"""Property tests: the op cache is semantically transparent.

For randomized basic sets and point relations, every memoized
operation must return a result structurally equal to the uncached
computation, and interning must never conflate objects that differ only in
dimension or tuple names.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.presburger import (
    BasicSet,
    Constraint,
    PointRelation,
    PointSet,
    Space,
    cache,
    enumerate_basic_set,
)
from tests.conftest import box, with_constraints

NUM_CASES = 25


@pytest.fixture(autouse=True)
def _clean_cache():
    with cache.overridden(enabled=True):
        cache.cache_clear()
        yield
    cache.cache_clear()


def _random_box_set(rng: random.Random, sp: Space) -> BasicSet:
    bounds = []
    for _ in range(sp.ndim):
        lo = rng.randint(-3, 3)
        hi = lo + rng.randint(0, 6)
        bounds.append((lo, hi))
    bs = box(sp, bounds)
    if rng.random() < 0.5:
        # add a random diagonal cut to vary the shape
        c = tuple(rng.choice((-1, 0, 1)) for _ in range(sp.ndim))
        bs = with_constraints(bs, [Constraint.ge(c, rng.randint(0, 4))])
    return bs


def _random_relation(rng: random.Random, rows: int = 40) -> PointRelation:
    nprng = np.random.default_rng(rng.randrange(2**31))
    pairs = nprng.integers(-5, 10, size=(rows, 4))
    return PointRelation(pairs, 2)


def _uncached(fn):
    with cache.overridden(enabled=False):
        return fn()


class TestEnumerationTransparency:
    def test_enumeration_matches_uncached(self):
        rng = random.Random(303)
        sp = Space(("i", "j"))
        for _ in range(NUM_CASES):
            a = _random_box_set(rng, sp)
            cached = enumerate_basic_set(a)
            again = _uncached(lambda: enumerate_basic_set(a))
            assert np.array_equal(cached, again)


class TestExplicitTransparency:
    def test_relation_algebra_matches_uncached(self):
        rng = random.Random(505)
        for _ in range(NUM_CASES):
            r, s = _random_relation(rng), _random_relation(rng)
            for op in ("union", "intersect", "difference", "after"):
                cached = getattr(r, op)(s)
                again = _uncached(lambda: getattr(r, op)(s))
                assert cached == again, f"PointRelation.{op} diverged"

    def test_lexopt_per_domain_matches_uncached(self):
        rng = random.Random(606)
        for _ in range(NUM_CASES):
            r = _random_relation(rng)
            assert r.lexmax_per_domain() == _uncached(r.lexmax_per_domain)

    def test_apply_and_restrict_match_uncached(self):
        rng = random.Random(707)
        for _ in range(NUM_CASES):
            r = _random_relation(rng)
            pts = PointSet(r.pairs[:10, :2])
            assert r.restrict_domain(pts) == _uncached(
                lambda: r.restrict_domain(pts)
            )


class TestInterningNeverConflates:
    def test_spaces_with_different_dim_names(self):
        a = Space(("i", "j"), "S")
        b = Space(("x", "y"), "S")
        assert cache.intern(a) is not cache.intern(b)
        assert cache.intern(a) != cache.intern(b)

    def test_spaces_with_different_tuple_names(self):
        a = Space(("i", "j"), "S")
        b = Space(("i", "j"), "T")
        assert cache.intern(a) is not cache.intern(b)

    def test_sets_differing_only_in_space_name(self):
        cons = (Constraint.ge((1, 0), 0), Constraint.ge((-1, 0), 5))
        a = BasicSet(Space(("i", "j"), "S"), cons)
        b = BasicSet(Space(("i", "j"), "T"), cons)
        assert a != b
        assert cache.intern(a) is not cache.intern(b)

    def test_memoized_ops_key_on_the_space(self):
        # Same constraints, different space names: each must get its own
        # cache entry carrying its own space, not the other's.
        cons = (
            Constraint.ge((1, 0), 0),
            Constraint.ge((-1, 0), 4),
            Constraint.ge((0, 1), 0),
            Constraint.ge((0, -1), 4),
        )
        a = BasicSet(Space(("i", "j"), "S"), cons)
        b = BasicSet(Space(("i", "j"), "T"), cons)
        assert np.array_equal(enumerate_basic_set(a), enumerate_basic_set(b))
        st = cache.stats().ops["enumeration.basic_set"]
        assert st.misses == 2 and st.hits == 0
