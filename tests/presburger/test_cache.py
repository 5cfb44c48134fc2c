"""Unit tests of the Presburger performance layer itself.

Covers the LRU mechanics, the stats counters, environment-variable
parsing, configuration/override semantics, and interning behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.presburger import (
    BasicSet,
    Constraint,
    PointSet,
    Space,
    cache,
    enumerate_basic_set,
)
from repro.presburger.cache import DEFAULT_MAXSIZE, _parse_env


@pytest.fixture(autouse=True)
def _clean_cache():
    """Each test starts from an enabled, empty, default-sized cache."""
    with cache.overridden(enabled=True, maxsize=DEFAULT_MAXSIZE):
        cache.cache_clear()
        yield
    cache.cache_clear()


def _triangle(n: int, name: str = "S") -> BasicSet:
    sp = Space(("i", "j"), name)
    return BasicSet(
        sp,
        (
            Constraint.ge((1, 0), 0),
            Constraint.ge((-1, 0), n - 1),
            Constraint.ge((0, 1), 0),
            Constraint.ge((1, -1), 0),
        ),
    )


def _points(n: int) -> PointSet:
    """The triangle, tabulated by hand (no cached op involved)."""
    return PointSet(
        np.array([[i, j] for i in range(n) for j in range(i + 1)], dtype=np.int64)
    )


class TestEnvParsing:
    @pytest.mark.parametrize("raw", [None, "", "1", "on", "true", "YES", "Enabled"])
    def test_enabled_values(self, raw):
        assert _parse_env(raw) == (True, DEFAULT_MAXSIZE)

    @pytest.mark.parametrize("raw", ["0", "off", "FALSE", "no", "disabled"])
    def test_disabled_values(self, raw):
        assert _parse_env(raw) == (False, DEFAULT_MAXSIZE)

    def test_integer_sets_capacity(self):
        assert _parse_env("512") == (True, 512)

    def test_negative_integer_disables(self):
        enabled, _size = _parse_env("-3")
        assert not enabled

    def test_garbage_falls_back_to_default(self):
        assert _parse_env("bananas") == (True, DEFAULT_MAXSIZE)


class TestMemoization:
    def test_hit_returns_identical_object(self):
        a, b = _points(6), _points(8)
        first = a.intersect(b)
        second = a.intersect(b)
        assert first is second

    def test_structurally_equal_keys_share_entries(self):
        # Two separately constructed but equal operand pairs must hit.
        r1 = _points(6).intersect(_points(8))
        r2 = _points(6).intersect(_points(8))
        assert r1 is r2
        st = cache.stats().ops["PointSet.intersect"]
        assert st.hits == 1 and st.misses == 1

    def test_disabled_cache_still_computes(self):
        with cache.overridden(enabled=False):
            r1 = _points(6).intersect(_points(8))
            r2 = _points(6).intersect(_points(8))
            assert r1 is not r2
            assert r1 == r2
            assert cache.stats().hits == 0

    def test_trivial_fast_path_counts_no_lookup(self):
        tri = _points(5)
        assert tri.union(PointSet.empty(2)) is tri
        st = cache.stats().ops["PointSet.union"]
        assert st.trivial == 1 and st.hits == 0 and st.misses == 0


class TestLRU:
    def test_eviction_at_capacity(self):
        with cache.overridden(maxsize=4):
            for n in range(2, 12):
                enumerate_basic_set(_triangle(n))
            st = cache.stats()
            assert st.entries <= 4
            assert st.evictions > 0

    def test_recently_used_entry_survives(self):
        with cache.overridden(maxsize=8):
            hot_a, hot_b = _points(3), _points(4)
            hot_a.intersect(hot_b)
            for n in range(5, 9):
                _points(n).intersect(_points(n + 1))
                hot_a.intersect(hot_b)  # keep the hot entry fresh
            st = cache.stats().ops["PointSet.intersect"]
            assert st.hits >= 4

    def test_shrinking_maxsize_evicts(self):
        for n in range(2, 10):
            enumerate_basic_set(_triangle(n))
        before = cache.stats().entries
        assert before > 2
        with cache.overridden(maxsize=2):
            assert cache.stats().entries <= 2


class TestConfiguration:
    def test_overridden_restores_previous_state(self):
        assert cache.is_enabled()
        with cache.overridden(enabled=False):
            assert not cache.is_enabled()
        assert cache.is_enabled()
        assert cache.stats().maxsize == DEFAULT_MAXSIZE

    def test_disabling_clears_tables(self):
        _points(5).intersect(_points(6))
        assert cache.stats().entries > 0
        with cache.overridden(enabled=False):
            assert cache.stats().entries == 0

    def test_reset_stats_keeps_entries(self):
        _points(5).intersect(_points(6))
        entries = cache.stats().entries
        cache.reset_stats()
        st = cache.stats()
        assert st.entries == entries
        assert st.calls == 0 and st.hits == 0 and st.misses == 0


class TestStatsReporting:
    def test_snapshot_shape(self):
        a, b = _points(6), _points(7)
        a.intersect(b)
        a.intersect(b)
        st = cache.stats()
        assert st.enabled
        assert st.hits == 1 and st.misses == 1
        assert 0.0 < st.hit_rate < 1.0
        d = st.as_dict()
        assert d["ops"]["PointSet.intersect"]["calls"] == 2

    def test_format_mentions_every_op(self):
        _points(6).intersect(_points(7))
        enumerate_basic_set(_triangle(6))
        text = cache.format_stats()
        assert "presburger cache: enabled" in text
        assert "PointSet.intersect" in text
        assert "enumeration.basic_set" in text


class TestInterning:
    def test_interned_objects_are_canonical(self):
        a, b = _triangle(9), _triangle(9)
        assert a is not b
        assert cache.intern(a) is cache.intern(b)

    def test_unregistered_types_pass_through(self):
        obj = (1, 2, 3)
        assert cache.intern(obj) is obj
