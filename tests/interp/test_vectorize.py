"""Tests for whole-block NumPy execution of single statements.

Legality (which statements may become slice kernels and why the others
fall back), rectangle decomposition of lexicographic blocks, and — the
property everything rests on — bit-identity of the block-kernel path
against the compiled-loop interpreter.  (The file keeps the name of the
retired ``vectorize`` tier so test ids stay stable; it drives the one
remaining tier, fused closures, and the ``vectorize=`` alias.)
"""

import numpy as np
import pytest

from repro.interp import (
    ClosureSpec,
    Interpreter,
    NotFusable,
    closure_source,
    elementwise,
    emit_closure_spec,
    fuse_scop,
    is_elementwise,
    rectangles,
)
from repro.lang import parse
from repro.lang.errors import SemanticError
from repro.scop import extract_scop
from tests.conftest import fused_statements, run_whole_blocks


def scop_of(src, **params):
    return extract_scop(parse(src), params or None)


def all_statements(interp):
    return {s.name for s in interp.scop.statements}


def run_both(src, funcs=None, params=None):
    """(scalar store, fused store, fused interp) for ``src``."""
    scalar = Interpreter.from_source(src, params or {}, funcs, fuse="off")
    fused = Interpreter.from_source(src, params or {}, funcs, fuse="auto")
    s = run_whole_blocks(scalar)
    v = run_whole_blocks(fused)
    assert s.equal(scalar.run_sequential(scalar.new_store()))
    return s, v, fused


class TestElementwiseMarking:
    def test_decorator_marks(self):
        fn = elementwise(lambda x: x + 1)
        assert is_elementwise(fn)

    def test_plain_callable_not_marked(self):
        assert not is_elementwise(lambda x: x)

    def test_numpy_ufunc_is_elementwise(self):
        assert is_elementwise(np.sqrt)

    def test_default_funcs_are_elementwise(self):
        from repro.interp.interp import DEFAULT_FUNCS

        assert all(is_elementwise(f) for f in DEFAULT_FUNCS.values())


class TestRectangles:
    def test_dense_box_is_one_rectangle(self):
        pts = np.array([(i, j) for i in range(3) for j in range(4)])
        assert rectangles(pts) == [((0, 0), (2, 3))]

    def test_single_point(self):
        assert rectangles(np.array([[5, 7]])) == [((5, 7), (5, 7))]

    @pytest.mark.parametrize(
        "row", [(4,), (-3,), (5, 7), (0, -2), (-1, -1, -9), (2, 0, 11), (1, 2, 3, 4)]
    )
    def test_one_row_fast_path_equals_the_general_path(self, row):
        """A one-iteration block is its own rectangle: the early return
        yields what the bounding-box machinery computes for it."""
        iters = np.array([row], dtype=np.int64)
        lo, hi = iters.min(axis=0), iters.max(axis=0)  # the general path
        assert int(np.prod(hi - lo + 1)) == 1
        general = [(tuple(int(v) for v in lo), tuple(int(v) for v in hi))]
        got = rectangles(iters)
        assert got == general == [(row, row)]
        assert all(type(v) is int for bound in got[0] for v in bound)
        assert rectangles([list(row)]) == general  # array-likes too
        # and it agrees with the decomposition of any block containing it
        two = np.array([row, row[:-1] + (row[-1] + 1,)], dtype=np.int64)
        assert rectangles(two)[0][0] == got[0][0]

    def test_one_element_flat_input_is_still_rejected(self):
        with pytest.raises(ValueError):
            rectangles(np.array([7]))

    def test_one_dimensional_run_split(self):
        pts = np.array([[0], [1], [2], [5], [6]])
        assert rectangles(pts) == [((0,), (2,)), ((5,), (6,))]

    def test_ragged_block_covers_exactly(self):
        # L-shape: full 3x3 square minus its top-right corner.
        pts = np.array(
            [(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 2)]
        )
        rects = rectangles(pts)
        covered = set()
        for lo, hi in rects:
            for i in range(lo[0], hi[0] + 1):
                for j in range(lo[1], hi[1] + 1):
                    assert (i, j) not in covered, "rectangles overlap"
                    covered.add((i, j))
        assert covered == {tuple(p) for p in pts}

    def test_rectangles_in_lex_order(self):
        pts = np.array([(i, j) for i in range(4) for j in range(4)
                        if j != 2 or i > 1])
        rects = rectangles(pts)
        assert rects == sorted(rects)

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            rectangles(np.array([1, 2, 3]))


class TestLegality:
    def spec(self, src, stmt="S", funcs=None, **params):
        scop = scop_of(src, **params)
        return emit_closure_spec(scop, scop.statement(stmt), funcs)

    def refused(self, code, match, src, funcs=None):
        with pytest.raises(NotFusable, match=match) as err:
            self.spec(src, funcs=funcs)
        assert err.value.code == code

    def test_simple_copy_vectorizes(self):
        spec = self.spec("for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);")
        assert "__fused_S" in closure_source(ClosureSpec((spec,)))

    def test_recurrence_falls_back(self):
        self.refused(
            "RPA066", "recurrence",
            "for(i=0; i<8; i++) S: A[i][0] = f(A[i-1][0]);",
        )

    def test_coupled_subscript_falls_back(self):
        self.refused(
            "RPA062", "coupled",
            "for(i=0; i<4; i++) for(j=0; j<4; j++)"
            " S: B[i][j] = f(A[2*i+j][0]);",
        )

    def test_non_injective_write_falls_back(self):
        self.refused(
            "RPA065", "non-injective",
            "for(i=0; i<4; i++) for(j=0; j<4; j++)"
            " S: A[i][0] = f(A[i][0], B[i][j]);",
        )

    def test_non_elementwise_function_falls_back(self):
        self.refused(
            "RPA067", "non-elementwise",
            "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);",
            funcs={"f": lambda x: x},
        )

    def test_elementwise_function_accepted(self):
        src = "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);"
        spec = self.spec(src, funcs={"f": elementwise(lambda x: x * 2)})
        assert spec.rhs[:2] == ("call", "f")

    def test_anti_only_dependence_vectorizes(self):
        # Reads of *later* iterations are safe under gather-before-scatter.
        spec = self.spec("for(i=0; i<8; i++) S: A[i][0] = f(A[i+1][0]);")
        assert spec.name == "S"

    def test_compound_assign_vectorizes(self):
        spec = self.spec("for(i=0; i<8; i++) S: A[i][0] += B[i][0];")
        assert spec.op == "+" and spec.reduction_identity == 0.0


class TestBitIdentity:
    SOURCES = {
        "identity": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++)"
            " S: A[i][j] = f(A[i][j], B[i][j]);"
        ),
        "anti-shift": (
            "for(i=0; i<8; i++) for(j=0; j<7; j++)"
            " S: A[i][j] = f(A[i][j+1], A[i+1][j]);"
        ),
        "strided-write": (
            "for(i=0; i<8; i++) S: A[2*i][0] = f(B[i][0]);"
        ),
        "permuted-write": (
            "for(i=0; i<6; i++) for(j=0; j<6; j++)"
            " S: B[j][i] = f(A[i][j]);"
        ),
        "iv-expression": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++)"
            " S: A[i][j] = f(A[i][j]) + 2*i + j - 1;"
        ),
        "compound-add": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++)"
            " S: A[i][j] += f(B[i][j]);"
        ),
        "compound-mul": (
            "for(i=0; i<8; i++) S: A[i][0] *= 2;"
        ),
        "bare-same-array-copy": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++) S: A[i][j] = A[i][j];"
        ),
        "bounds-division": (
            "for(i=0; i<N/2; i++) S: A[i][0] = f(B[2*i][0]);"
        ),
        "constant-and-broadcast-dims": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++)"
            " S: A[i][j] = f(B[3][j], C[i][0]);"
        ),
        "permuted-read-ufunc": (
            "for(i=0; i<6; i++) for(j=0; j<6; j++)"
            " S: A[i][j] = min(A[i][j], B[j][i]);"
        ),
        "compound-sub-float-div-mod": (
            "for(i=0; i<8; i++) S: A[i][0] -= B[i][0] / 2 + B[i][0] % 3;"
        ),
        "integer-body": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++)"
            " S: A[j][i] = (i + 2*j) / 3 + i % 2;"
        ),
        "three-deep-negative-offset": (
            "for(i=0; i<4; i++) for(j=0; j<4; j++) for(k=0; k<4; k++)"
            " S: A[i][j][k] = f(A[i][j][k], B[k-2][2*i+1]);"
        ),
        "two-statement-chain": (
            "for(i=0; i<8; i++) for(j=0; j<8; j++) S: A[i][j] = f(A[i][j]);\n"
            "for(i=0; i<4; i++) for(j=0; j<4; j++)"
            " R: B[i][j] = g(A[2*i][2*j], B[i][j]);"
        ),
    }

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_vectorized_equals_scalar(self, name):
        src = self.SOURCES[name]
        s, v, interp = run_both(src, params={"N": 12})
        assert s.equal(v), f"{name}: max diff {s.max_abs_diff(v):g}"
        # each of these kernels must take the block-kernel path throughout
        assert fused_statements(interp) == all_statements(interp), name

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_both_kernel_forms_equal_scalar(self, name, kernel_form):
        # the same family with every rectangle forced into the slice
        # form, then into the loop form
        s, v, interp = run_both(self.SOURCES[name], params={"N": 12})
        assert s.equal(v), f"{name} ({kernel_form})"
        assert fused_statements(interp) == all_statements(interp), name

    def test_fallback_statement_runs_scalar_and_matches(self):
        src = (
            "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=1; i<8; i++) R: A[i][0] = g(A[i-1][0], A[i][0]);"
        )
        s, v, interp = run_both(src)
        assert s.equal(v)
        assert fused_statements(interp) == {"S"}  # R runs compiled loops

    def test_custom_elementwise_funcs_match(self):
        src = "for(i=0; i<8; i++) for(j=0; j<8; j++) S: A[i][j] = f(A[i][j]);"
        funcs = {"f": elementwise(lambda x: np.sqrt(x * x + 1.0))}
        s, v, _ = run_both(src, funcs=funcs)
        assert s.equal(v)


class TestVectorProgram:
    """The fusion plan's refusal record, and ``Interpreter(...,
    vectorize=X)`` meaning ``fuse=X`` unless ``fuse`` is given."""

    MIXED = (
        "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);\n"
        "for(i=1; i<8; i++) R: C[i][0] = g(C[i-1][0], A[i][0]);"
    )

    def test_coverage_and_reasons(self):
        program = fuse_scop(scop_of(self.MIXED))
        assert program.get("S") is not None
        assert program.get("R") is None
        refusal = program.fallbacks()["R"]
        assert refusal["code"] == "RPA066"
        assert "recurrence" in refusal["reason"]

    def test_mode_on_rejects_partial_programs(self):
        # ``on`` asserts full coverage eagerly, at construction.
        with pytest.raises(SemanticError, match="RPA066"):
            Interpreter.from_source(self.MIXED, {}, vectorize="on")

    def test_mode_on_accepts_full_programs(self):
        src = "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);"
        interp = Interpreter.from_source(src, {}, vectorize="on")
        store = run_whole_blocks(interp)
        ref = Interpreter.from_source(src, {}, vectorize="off")
        assert store.equal(run_whole_blocks(ref))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="vectorize"):
            Interpreter.from_source(
                "for(i=0; i<4; i++) S: A[i][0] = f(A[i][0]);",
                {},
                vectorize="sometimes",
            )

    def test_explicit_fuse_wins_over_vectorize(self):
        interp = Interpreter.from_source(
            self.MIXED, {}, vectorize="off", fuse="auto"
        )
        assert interp.fuse == "auto"
        assert Interpreter.from_source(self.MIXED, {}).fuse == "auto"
