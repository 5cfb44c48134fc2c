"""Tests for access relations."""

import numpy as np

from repro.presburger import AffineExpr, PointSet, Space
from repro.scop import Access, AccessKind

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
