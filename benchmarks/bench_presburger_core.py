"""Micro-benchmarks of the polyhedral substrate.

These track the building blocks everything else pays for:
Fourier–Motzkin enumeration and the vectorized explicit-relation kernels
(rank joins, composition, per-domain lexmax).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.presburger import (
    BasicSet,
    Constraint,
    PointRelation,
    Space,
    enumerate_basic_set,
    joint_ranks,
    unique_rows,
)

SP = Space(("i", "j"))


def tri_constraints(n: int):
    return (
        Constraint.ge((1, 0), 0),
        Constraint.ge((-1, 0), n - 1),
        Constraint.ge((0, 1), 0),
        Constraint.ge((1, -1), 0),
    )


class TestEnumeration:
    @pytest.mark.parametrize("n", [32, 128])
    def test_triangle_scan(self, benchmark, n):
        bs = BasicSet(SP, tri_constraints(n))

        pts = benchmark(enumerate_basic_set, bs)
        assert pts.shape[0] == n * (n + 1) // 2


@pytest.fixture(scope="module")
def big_relation():
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, 200, size=(20_000, 4))
    return PointRelation(pairs, 2)


@pytest.fixture(scope="module")
def medium_relation():
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, 120, size=(8_000, 4))
    return PointRelation(pairs, 2)


#: coordinate scale: 1 keeps the bounding box packable (int64 row keys),
#: 2**40 pushes its volume past 2**62 (the np.unique(axis=0) rank fallback)
SPREADS = pytest.mark.parametrize(
    "spread", [1, 2**40], ids=["narrow", "wide"]
)


class TestExplicitKernels:
    @SPREADS
    def test_unique_rows(self, benchmark, big_relation, spread):
        # unsorted, every row twice: the sort + dedup path, not the
        # "already canonical" check
        rows = np.concatenate([big_relation.pairs[::-1], big_relation.pairs])

        result = benchmark(unique_rows, rows * spread)
        assert np.array_equal(result, big_relation.pairs * spread)

    @SPREADS
    def test_joint_ranks(self, benchmark, medium_relation, spread):
        left = medium_relation.out_part * spread
        right = medium_relation.in_part * spread

        kl, kr = benchmark(joint_ranks, left, right)
        assert kl.shape == kr.shape == (len(medium_relation),)
        assert np.all(kr[1:] >= kr[:-1])

    def test_compose(self, benchmark, big_relation):
        result = benchmark(big_relation.inverse().after, big_relation)
        assert len(result) > 0

    def test_lexmax_per_domain(self, benchmark, big_relation):
        result = benchmark(big_relation.lexmax_per_domain)
        assert result.is_single_valued()

    def test_set_difference(self, benchmark, big_relation):
        a = big_relation.domain()
        b = big_relation.range()

        result = benchmark(a.difference, b)
        assert result.ndim == 2


class TestJoinShapes:
    """``PointRelation._after`` (the kernel under the memo) in its two
    shapes: the right side a function on the matched keys — an inverted
    injective write, a plain gather — and duplicate keys on both sides,
    where every left row expands to a run of right rows."""

    @pytest.mark.parametrize("rows", [8_000, 20_000])
    def test_gather(self, benchmark, rows):
        rng = np.random.default_rng(rows)
        cells = rng.permutation(2 * rows)[:rows].reshape(-1, 1)
        writes = PointRelation.from_arrays(  # cell -> the one writer
            cells, np.arange(rows).reshape(-1, 1)
        )
        reads = PointRelation.from_arrays(  # reader -> cell, half written
            np.arange(rows).reshape(-1, 1),
            rng.integers(0, 2 * rows, size=(rows, 1)),
        )

        result = benchmark(writes._after, reads)
        assert 0 < len(result) < rows and result.is_single_valued()

    @pytest.mark.parametrize("rows", [8_000, 20_000])
    def test_many_to_many(self, benchmark, rows):
        rng = np.random.default_rng(rows + 1)
        draw = lambda hi: rng.integers(0, hi, size=(rows, 1))
        left = PointRelation.from_arrays(draw(rows), draw(rows // 4))
        right = PointRelation.from_arrays(draw(rows // 4), draw(rows))

        result = benchmark(right._after, left)
        assert len(result) > 2 * rows


class TestComposite:
    """The hot operations the pipeline algebra leans on — enumeration,
    relation composition, per-domain lexmax, set difference — over
    repeated operands, the access pattern ``detect_pipeline`` produces."""

    @staticmethod
    def _enumeration_workload():
        inter = BasicSet(SP, tri_constraints(48) + tri_constraints(40))
        pts = enumerate_basic_set(inter)
        return tuple(pts[-1]), pts.shape[0]

    def test_enumeration_workload(self, benchmark):
        result = benchmark(self._enumeration_workload)
        assert result == ((39, 39), 40 * 41 // 2)

    @staticmethod
    def _explicit_workload(rel):
        flow = rel.inverse().after(rel)
        return flow.lexmax_per_domain().domain().difference(rel.domain())

    def test_explicit_workload(self, benchmark, medium_relation):
        result = benchmark(self._explicit_workload, medium_relation)
        assert result.ndim == 2
