"""Tests for access relations and array extents."""

from pathlib import Path

import numpy as np
import pytest

from repro.driver import TransformOptions, transform
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.presburger import AffineExpr, PointSet, Space, unique_rows
from repro.presburger import cache as presburger_cache
from repro.scop import Access, AccessKind
from repro.workloads import TABLE9
from tests.conftest import reference_access_relation, reference_extent
from tests.interp.test_fused import NEGATIVE_STRIDES

SP = Space(("i", "j"))
i, j = AffineExpr.var("i"), AffineExpr.var("j")


def box_points(n):
    return PointSet(
        np.array([[a, b] for a in range(n) for b in range(n)], dtype=np.int64)
    )


class TestExplicitRelation:
    def test_cell_encoding(self):
        acc = Access("A", (2 * i, j + 1), AccessKind.READ)
        rel = acc.explicit_relation(box_points(3), SP, array_id=4, mem_rank=2)
        # (1, 2) -> (array 4, 2*1, 2+1)
        assert rel.lookup((1, 2)).tolist() == [[4, 2, 3]]

    def test_rank_padding(self):
        acc = Access("v", (i,), AccessKind.WRITE)
        rel = acc.explicit_relation(box_points(2), SP, array_id=0, mem_rank=3)
        assert rel.n_out == 4  # id + 3 padded dims
        assert rel.lookup((1, 0)).tolist() == [[0, 1, 0, 0]]

    def test_write_injective_for_identity(self):
        acc = Access("A", (i, j), AccessKind.WRITE)
        rel = acc.explicit_relation(box_points(3), SP, 0, 2)
        assert rel.is_injective()

    def test_noninjective_access(self):
        acc = Access("A", (i, AffineExpr.constant(0)), AccessKind.WRITE)
        rel = acc.explicit_relation(box_points(3), SP, 0, 2)
        assert not rel.is_injective()

    def test_matches_manual_evaluation(self):
        acc = Access("A", (i + j, 2 * j), AccessKind.READ)
        rel = acc.explicit_relation(box_points(3), SP, 1, 2)
        assert rel.pairs.tolist() == sorted(
            [a, b, 1, a + b, 2 * b] for a in range(3) for b in range(3)
        )


def test_str():
    acc = Access("A", (i,), AccessKind.WRITE)
    assert str(acc) == "W:A[i]"


# ----------------------------------------------------------------------
# per-statement access relations and extents against their references
# ----------------------------------------------------------------------
KERNELS = Path(__file__).resolve().parents[2] / "examples" / "kernels"

TRIANGULAR = (
    "for(i=0; i<N; i++) for(j=0; j<=i; j++)"
    " S: A[i][j] = f(A[i][j], A[i][i-j], B[j]);\n"
    "for(i=0; i<N; i++) for(j=i; j<N; j++) T: B[j-i] = g(A[j][i], B[i]);"
)


def assert_front_end_equals_references(scop):
    """Every access relation and extent of ``scop`` equals its reference
    bit for bit: same arity, shape, dtype and bytes, owned and
    C-contiguous."""
    for stmt in scop.statements:
        for kind in AccessKind:
            got = scop.access_relation(stmt, kind)
            want = reference_access_relation(scop, stmt, kind)
            assert got.n_in == want.n_in
            assert got.pairs.shape == want.pairs.shape
            assert got.pairs.dtype == want.pairs.dtype == np.int64
            assert got.pairs.tobytes() == want.pairs.tobytes()
            assert got.pairs.flags.c_contiguous and got.pairs.flags.owndata
    for name in scop.arrays:
        assert scop.array_extent(name) == reference_extent(scop, name)


@pytest.mark.parametrize("coarsen", [1, 3])
@pytest.mark.parametrize("n", [6, 10, 14])
@pytest.mark.parametrize("name", sorted(TABLE9, key=lambda k: int(k[1:])))
def test_pkernel_relations_and_extents_equal_references(name, n, coarsen):
    """The relations the detection used (read from the SCoP's cache
    after it ran) and every extent."""
    scop = Interpreter.from_source(TABLE9[name].source(n), {}).scop
    detect_pipeline(scop, coarsen=coarsen)
    assert_front_end_equals_references(scop)


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(NEGATIVE_STRIDES[k][0], id=k)
        for k in sorted(NEGATIVE_STRIDES)
    ]
    + [pytest.param(TRIANGULAR, id="triangular")],
)
def test_shaped_relations_and_extents_equal_references(source):
    assert_front_end_equals_references(
        Interpreter.from_source(source, {"N": 8}).scop
    )


@pytest.mark.parametrize("kernel", ["histogram.c", "sumstencil.c"])
def test_privatized_relations_and_extents_equal_references(kernel):
    result = transform(
        (KERNELS / kernel).read_text(), {"N": 8},
        TransformOptions(workers=2, privatize=True),
    )
    assert result.verified is True
    assert_front_end_equals_references(result.scop)


def test_access_relations_are_built_without_unions():
    """One canonicalisation per (statement, kind): no pairwise union."""
    scop = Interpreter.from_source(TABLE9["P5"].source(14), {}).scop
    before = presburger_cache.op_call_counts().get("PointRelation.union", 0)
    for stmt in scop.statements:
        for kind in AccessKind:
            rel = scop.access_relation(stmt, kind)
            assert np.array_equal(unique_rows(rel.pairs), rel.pairs)
    after = presburger_cache.op_call_counts().get("PointRelation.union", 0)
    assert after - before == 0
    assert sum(len(s.reads) > 1 for s in scop.statements) > 0  # unions due
