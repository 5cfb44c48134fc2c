"""Unit tests of the per-op computation counters and the kept facts.

:mod:`repro.presburger.cache` counts computations and caches nothing; a
:class:`PointRelation` keeps its domain, range and per-input lexmax on
itself.  Covers the counter surface (``count``, ``op_call_counts``,
``cache_clear``, ``stats``), which ops are computed once per relation
and which on every call, and the fast paths that compute nothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.presburger import PointRelation, PointSet, cache

KEPT_FACTS = ("domain", "range", "lexmax_per_domain")


@pytest.fixture(autouse=True)
def _clean_counters():
    """Each test starts from zeroed counters."""
    cache.cache_clear()
    yield
    cache.cache_clear()


def _points(n: int) -> PointSet:
    """The triangle ``0 <= j <= i < n``, tabulated by hand."""
    return PointSet(
        np.array([[i, j] for i in range(n) for j in range(i + 1)], dtype=np.int64)
    )


def _relation(seed: int = 11, rows: int = 40) -> PointRelation:
    pairs = np.random.default_rng(seed).integers(-4, 6, size=(rows, 4))
    return PointRelation(pairs, 2)


def _fresh(rel: PointRelation) -> PointRelation:
    return PointRelation(rel.pairs.copy(), rel.n_in)


class TestCounter:
    def test_count_records_one_computation_per_call(self):
        cache.count("test.op")
        cache.count("test.op")
        cache.count("test.other")
        assert cache.op_call_counts() == {"test.op": 2, "test.other": 1}

    def test_op_call_counts_is_a_snapshot(self):
        cache.count("test.op")
        snap = cache.op_call_counts()
        snap["test.op"] = 99
        snap["test.injected"] = 1
        cache.count("test.op")
        assert cache.op_call_counts() == {"test.op": 2}
        assert snap == {"test.op": 99, "test.injected": 1}

    def test_cache_clear_zeroes_every_op(self):
        _points(6).intersect(_points(8))
        _relation().inverse()
        assert cache.op_call_counts()
        cache.cache_clear()
        assert cache.op_call_counts() == {}
        assert cache.stats().calls == 0

    def test_stats_calls_sum_every_op(self):
        a, b = _points(6), _points(8)
        a.intersect(b)
        a.union(b)
        a.difference(b)
        assert cache.stats().calls == sum(cache.op_call_counts().values()) == 3

    def test_stats_is_a_frozen_value(self):
        st = cache.stats()
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.calls = 5
        _points(5).intersect(_points(6))
        assert st.calls == 0 and cache.stats().calls == 1


class TestMemoization:
    def test_hit_returns_identical_object(self):
        rel = _relation()
        first = rel.domain()
        second = rel.domain()
        assert first is second
        assert cache.op_call_counts() == {"PointRelation.domain": 1}

    def test_trivial_fast_path_counts_no_lookup(self):
        tri = _points(5)
        assert tri.union(PointSet.empty(2)) is tri
        assert PointSet.empty(2).union(tri) is tri
        assert tri.difference(PointSet.empty(2)) is tri
        assert cache.op_call_counts() == {}


class TestConfiguration:
    def test_reset_stats_keeps_entries(self):
        # zeroing the counters leaves every relation's kept facts on it
        rel = _relation()
        kept = [getattr(rel, fact)() for fact in KEPT_FACTS]
        assert cache.stats().calls == len(KEPT_FACTS)
        cache.cache_clear()
        assert [getattr(rel, fact)() for fact in KEPT_FACTS] == kept
        assert all(
            getattr(rel, fact)() is k for fact, k in zip(KEPT_FACTS, kept)
        )
        assert cache.stats().calls == 0


class TestStatsReporting:
    def test_snapshot_shape(self):
        a, b = _points(6), _points(7)
        a.intersect(b)
        a.intersect(b)
        st = cache.stats()
        assert isinstance(st, cache.Stats)
        assert (st.calls, st.hit_rate, st.evictions) == (2, 0.0, 0)
        assert cache.op_call_counts() == {"PointSet.intersect": 2}


class TestKeptFacts:
    @pytest.mark.parametrize("fact", KEPT_FACTS)
    def test_fact_is_computed_once_per_relation(self, fact):
        rel = _relation()
        values = [getattr(rel, fact)() for _ in range(4)]
        assert all(v is values[0] for v in values)
        assert cache.op_call_counts() == {f"PointRelation.{fact}": 1}

    @pytest.mark.parametrize("fact", KEPT_FACTS)
    def test_equal_relations_keep_their_own_fact(self, fact):
        rel = _relation()
        copy = _fresh(rel)
        assert rel == copy and rel is not copy
        mine, theirs = getattr(rel, fact)(), getattr(copy, fact)()
        assert mine == theirs and mine is not theirs
        assert cache.op_call_counts() == {f"PointRelation.{fact}": 2}

    def test_lexmax_of_an_empty_relation_is_itself_and_computes_nothing(self):
        empty = PointRelation.empty(2, 2)
        assert empty.lexmax_per_domain() is empty
        assert cache.op_call_counts() == {}


def _binary(op):
    return lambda r, s: getattr(r, op)(s)


COMPUTED_OPS = {
    "inverse": lambda r, s: r.inverse(),
    "union": _binary("union"),
    "intersect": _binary("intersect"),
    "difference": _binary("difference"),
    "after": lambda r, s: r.after(s.inverse()),
    "restrict_domain": lambda r, s: r.restrict_domain(s.domain()),
}


class TestComputedOps:
    @pytest.mark.parametrize("op", sorted(COMPUTED_OPS))
    def test_op_computes_on_every_call(self, op):
        r, s = _relation(seed=21), _relation(seed=22)
        s.domain()  # kept facts of the operands are read before counting
        first = COMPUTED_OPS[op](r, s)
        cache.cache_clear()
        second = COMPUTED_OPS[op](r, s)
        assert first == second and first is not second
        assert cache.op_call_counts()[f"PointRelation.{op}"] == 1

    def test_empty_operands_compute_nothing(self):
        r, empty = _relation(), PointRelation.empty(2, 2)
        assert r.union(empty) is r and empty.union(r) is r
        assert r.intersect(empty).is_empty()
        assert r.difference(empty) is r
        assert r.after(empty).is_empty() and empty.after(r).is_empty()
        assert empty.inverse().is_empty()
        assert r.restrict_domain(PointSet.empty(2)).is_empty()
        assert cache.op_call_counts() == {}

    def test_difference_of_equal_relations_computes_nothing(self):
        r = _relation()
        assert r.difference(_fresh(r)).is_empty()
        assert cache.op_call_counts() == {}

    def test_is_single_valued_reads_rows_and_computes_nothing(self):
        for seed in range(20):
            rel = _relation(seed=seed, rows=12)
            inputs = [tuple(row) for row in rel.in_part.tolist()]
            assert rel.is_single_valued() == (len(set(inputs)) == len(inputs))
            assert rel.lexmax_per_domain().is_single_valued()
        cache.cache_clear()
        _relation().is_single_valued()
        assert cache.op_call_counts() == {}
