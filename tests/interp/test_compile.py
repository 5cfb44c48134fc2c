"""Tests for the one kernel per statement.

Every statement's kernel has a loop form; where the slice-form gate
admits it, a slice form too.  Each test runs the forms the statement
has on hand-picked points and checks the cells, then runs them over the
whole program and compares with ``run_sequential``.
"""

import numpy as np
import pytest

from repro.interp import (
    ArrayStore,
    Interpreter,
    elementwise,
    emit_closure_spec,
    loop_source,
    rectangles,
)
from repro.interp.fused import spec_funcs
from tests.conftest import element


def setup(src, funcs=None, **params):
    interp = Interpreter.from_source(src, params, funcs)
    return interp, ArrayStore.for_scop(interp.scop, init="zeros")


def forms(interp, name="S"):
    """``{form: run(store, iters)}`` for the kernel of ``name``: its loop
    form, plus its slice form where the gate admits one."""
    kernel = interp.fused_program.get(name)
    fns = {"loop": kernel.loop_fn}
    if kernel.fn is not None:
        fns["slice"] = kernel.fn

    def runner(fn):
        def run(store, iters):
            for lo, hi in rectangles(np.array(iters)):
                fn(store, interp.funcs, lo, hi)
        return run

    return {form: runner(fn) for form, fn in fns.items()}


def each_form(interp, prepare, iters, name="S"):
    """Run every form of ``name``'s kernel on a fresh zeroed store
    (``prepare(store)`` first); returns ``{form: store}``."""
    out = {}
    for form, run in forms(interp, name).items():
        store = ArrayStore.for_scop(interp.scop, init="zeros")
        prepare(store)
        run(store, iters)
        out[form] = store
    return out


def assert_forms_match_sequential(interp, expected):
    """Whole-domain runs, statement by statement in program order, of
    each form equal ``run_sequential``; ``expected`` names the forms."""
    assert set(forms(interp, interp.scop.statements[0].name)) == expected
    seq = interp.run_sequential(interp.new_store())
    for form in expected:
        store = interp.new_store()
        for stmt in interp.scop.statements:
            fns = forms(interp, stmt.name)
            fns.get(form, fns["loop"])(store, stmt.points.points)
        assert seq.equal(store), form


BOTH = {"loop", "slice"}
LOOP = {"loop"}


class TestSemantics:
    def test_simple_assignment(self):
        interp, _ = setup(
            "for(i=0; i<4; i++) S: A[i][0] = f(B[i][0]);",
            {"f": elementwise(lambda x: x * 2)},
        )

        def prepare(store):
            store.arrays["B"].data[:] = 3.0

        for store in each_form(interp, prepare, [(0,), (2,)]).values():
            assert store.arrays["A"].data[0, 0] == 6.0
            assert store.arrays["A"].data[2, 0] == 6.0
            assert store.arrays["A"].data[1, 0] == 0.0
        assert_forms_match_sequential(interp, BOTH)

    def test_plus_assign(self):
        interp, _ = setup("for(i=0; i<4; i++) S: A[i][0] += B[i][0];")

        def prepare(store):
            store.arrays["A"].data[:] = 1.0
            store.arrays["B"].data[:] = 2.0

        for store in each_form(interp, prepare, [(1,)]).values():
            assert store.arrays["A"].data[1, 0] == 3.0
        assert_forms_match_sequential(interp, BOTH)

    def test_arithmetic_rhs(self):
        interp, _ = setup(
            "for(i=0; i<4; i++) S: A[i][0] = 2*B[i][0] + 5 - i;"
        )

        def prepare(store):
            store.arrays["B"].data[:] = 10.0

        for store in each_form(interp, prepare, [(3,)]).values():
            assert store.arrays["A"].data[3, 0] == 22.0
        assert_forms_match_sequential(interp, BOTH)

    def test_param_in_rhs(self):
        interp, _ = setup(
            "for(i=0; i<4; i++) S: A[i][0] = f(B[i][0], N);",
            {"f": elementwise(lambda b, n: n)},
            N=7,
        )
        for store in each_form(interp, lambda s: None, [(0,)]).values():
            assert store.arrays["A"].data[0, 0] == 7.0
        assert_forms_match_sequential(interp, BOTH)

    def test_offsets_applied(self):
        # A[i] reads A[i-2]: a recurrence, so the loop form only (RPA066)
        interp, _ = setup(
            "for(i=0; i<5; i++) S: A[i][0] = f(A[i-2][0]);",
            {"f": elementwise(lambda x: x + 1)},
        )

        def prepare(store):
            a = store.arrays["A"]
            a.data[element(a, (-2, 0))] = 9.0

        for store in each_form(interp, prepare, [(0,)]).values():
            a = store.arrays["A"]
            assert a.data[element(a, (0, 0))] == 10.0
        assert_forms_match_sequential(interp, LOOP)

    def test_depth_one_unpack(self):
        interp, _ = setup(
            "for(i=0; i<3; i++) S: A[i][0] = f(A[i][0]);",
            {"f": elementwise(lambda x: x + 1)},
        )
        stores = each_form(interp, lambda s: None, [(0,), (1,), (2,)])
        for store in stores.values():
            assert store.arrays["A"].data[:3, 0].tolist() == [1.0, 1.0, 1.0]
        assert_forms_match_sequential(interp, BOTH)

    def test_nested_calls(self):
        interp, _ = setup(
            "for(i=0; i<3; i++) S: A[i][0] = f(g(B[i][0]), 2);",
            {
                "f": elementwise(lambda a, b: a + b),
                "g": elementwise(lambda x: x * 10),
            },
        )
        kernel = interp.fused_program.get("S")
        assert spec_funcs(kernel.spec) == ("f", "g")
        for store in each_form(interp, lambda s: None, [(0,)]).values():
            assert store.arrays["A"].data[0, 0] == 2.0
        assert_forms_match_sequential(interp, BOTH)

    def test_source_readable(self):
        interp, _ = setup("for(i=0; i<3; i++) S: A[i][0] = f(A[i][0]);")
        kernel = interp.fused_program.get("S")
        assert "__fused_S" in kernel.source
        assert "__loop_S" in loop_source(kernel.spec)
        assert "__arr_A" in loop_source(kernel.spec)


class TestCompoundAssign:
    def test_minus_assign(self):
        interp, _ = setup("for(i=0; i<4; i++) S: A[i][0] -= B[i][0];")

        def prepare(store):
            store.arrays["A"].data[:] = 10.0
            store.arrays["B"].data[:] = 3.0

        for store in each_form(interp, prepare, [(2,)]).values():
            assert store.arrays["A"].data[2, 0] == 7.0
            assert store.arrays["A"].data[0, 0] == 10.0
        assert_forms_match_sequential(interp, BOTH)

    def test_star_assign(self):
        interp, _ = setup("for(i=0; i<4; i++) S: A[i][0] *= B[i][0];")

        def prepare(store):
            store.arrays["A"].data[:] = 5.0
            store.arrays["B"].data[:] = 4.0

        for store in each_form(interp, prepare, [(1,)]).values():
            assert store.arrays["A"].data[1, 0] == 20.0
        assert_forms_match_sequential(interp, BOTH)

    def test_compound_reads_target(self):
        # ``A[i] -= ...`` must register a read of the target, so the
        # dependence analysis sees the recurrence.
        interp, _ = setup("for(i=0; i<4; i++) S: A[i][0] -= B[i][0];")
        stmt = interp.scop.statement("S")
        assert any(a.array == "A" for a in stmt.reads)

    def test_unknown_operator_message(self):
        from repro.lang.errors import SemanticError

        interp, _ = setup("for(i=0; i<4; i++) S: A[i][0] += B[i][0];")
        stmt = interp.scop.statement("S")
        object.__setattr__(stmt.assign, "op", "@=")
        with pytest.raises(SemanticError, match="unsupported assignment"):
            emit_closure_spec(interp.scop, stmt)

    def test_end_to_end_sequential(self):
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) S: A[i][0] = 2;\n"
            "for(i=0; i<4; i++) T: A[i][0] *= 3;",
            {},
        )
        store = interp.run_sequential(interp.new_store())
        assert store.arrays["A"].data[:4, 0].tolist() == [6.0, 6.0, 6.0, 6.0]
        assert_forms_match_sequential(interp, BOTH)


class TestInterpreterChecks:
    def test_missing_function_rejected(self):
        with pytest.raises(KeyError, match="no implementation"):
            Interpreter.from_source(
                "for(i=0; i<3; i++) S: A[i][0] = myfunc(A[i][0]);", {}
            )

    def test_custom_function_supplied(self):
        interp = Interpreter.from_source(
            "for(i=0; i<3; i++) S: A[i][0] = myfunc(A[i][0]);",
            {},
            funcs={"myfunc": lambda x: 1.0},
        )
        store = interp.run_sequential(interp.new_store())
        assert store.arrays["A"].data[:3, 0].tolist() == [1.0, 1.0, 1.0]
        # a plain Python function is not elementwise: loop form only
        assert_forms_match_sequential(interp, LOOP)

    def test_construction_generates_no_code(self, monkeypatch):
        """Counted: constructing P5's interpreter generates no code — the
        oracle and the kernels are built on first use.  (While each
        statement also had a compiled loop, construction made one
        ``exec`` per statement: 4 on P5.)"""
        import builtins

        import repro.interp.compile as compile_mod
        from repro.interp import fused
        from repro.workloads import TABLE9
        from tests.conftest import Counter

        monkeypatch.setattr(compile_mod, "exec", builtins.exec, raising=False)
        counters = {
            "exec": Counter(monkeypatch, compile_mod, "exec"),
            "_compile": Counter(monkeypatch, fused, "_compile"),
        }
        interp = Interpreter.from_source(TABLE9["P5"].source(24), {})
        assert {k: c.calls for k, c in counters.items()} == {
            "exec": 0, "_compile": 0,
        }
        interp.oracle()  # the one function generated from the AST
        assert {k: c.calls for k, c in counters.items()} == {
            "exec": 1, "_compile": 0,
        }

    def test_batching_equals_per_point(self, listing1_interp):
        interp = listing1_interp
        S = interp.scop.statement("S")
        batched = interp.new_store()
        interp.run_block(batched, "S", S.points.points)
        single = interp.new_store()
        for row in S.points.points:
            interp.run_block(single, "S", row.reshape(1, -1))
        assert batched.equal(single)
