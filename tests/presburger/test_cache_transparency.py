"""Property tests: the facts kept on a relation equal their computation.

A :class:`PointRelation` is immutable, so its domain, range and
per-input lexmax are computed on first read and kept on it; every other
operation computes.  For randomized basic sets and point relations, each
value must equal the literal computation on a fresh copy of the
operands, structurally different operands must never share one, and the
kept facts must neither outlive their relation nor differ between the
threads that read them.
"""

from __future__ import annotations

import gc
import itertools
import random
import threading
import weakref

import numpy as np

from repro.presburger import (
    BasicSet,
    Constraint,
    PointRelation,
    PointSet,
    Space,
    enumerate_basic_set,
)
from tests.conftest import box, contains, with_constraints

NUM_CASES = 25


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


def _fresh(rel: PointRelation) -> PointRelation:
    """A structurally equal relation on its own copy, nothing read yet."""
    return PointRelation(rel.pairs.copy(), rel.n_in)


def _rows(arr: np.ndarray) -> set[tuple[int, ...]]:
    return {tuple(int(v) for v in row) for row in arr}


def _points(rows: set[tuple[int, ...]], ndim: int) -> PointSet:
    return PointSet(np.asarray(sorted(rows), dtype=np.int64).reshape(-1, ndim))


def _literal_domain(rel: PointRelation) -> PointSet:
    return _points({p[: rel.n_in] for p in _rows(rel.pairs)}, rel.n_in)


def _literal_range(rel: PointRelation) -> PointSet:
    return _points({p[rel.n_in :] for p in _rows(rel.pairs)}, rel.n_out)


def _assert_facts(rel: PointRelation) -> None:
    """Each kept fact of ``rel`` equals the literal computation on a
    fresh copy, and a second read returns the kept object."""
    copy = _fresh(rel)
    assert rel.domain() == _literal_domain(copy)
    assert rel.range() == _literal_range(copy)
    assert rel.domain() is rel.domain() and rel.range() is rel.range()
    best: dict[tuple, tuple] = {}
    for p in _rows(copy.pairs):
        key, value = p[: rel.n_in], p[rel.n_in :]
        best[key] = max(best.get(key, value), value)
    want = _points({k + v for k, v in best.items()}, rel.pairs.shape[1])
    got = rel.lexmax_per_domain()
    assert got is rel.lexmax_per_domain()
    assert np.array_equal(got.pairs, want.points) and got.n_in == rel.n_in


class TestEnumerationTransparency:
    def test_enumeration_matches_uncached(self):
        rng = random.Random(303)
        sp = Space(("i", "j"))
        box_points = list(itertools.product(range(-3, 10), repeat=2))
        for _ in range(NUM_CASES):
            a = _random_box_set(rng, sp)
            got = enumerate_basic_set(a)
            copy = BasicSet(a.space, a.constraints, a.n_div)
            assert np.array_equal(got, enumerate_basic_set(copy))
            literal = sorted(p for p in box_points if contains(a, p))
            assert _rows(got) == set(literal) and len(got) == len(literal)
            assert np.array_equal(got, PointSet(got).points)  # sorted


class TestExplicitTransparency:
    def test_relation_algebra_matches_uncached(self):
        rng = random.Random(505)
        literal = {
            "union": lambda a, b: a | b,
            "intersect": lambda a, b: a & b,
            "difference": lambda a, b: a - b,
        }
        for _ in range(NUM_CASES):
            r, s = _random_relation(rng), _random_relation(rng)
            for op in ("union", "intersect", "difference", "after"):
                got = getattr(r, op)(s)
                assert got == getattr(_fresh(r), op)(_fresh(s)), op
                rows, other = _rows(r.pairs), _rows(s.pairs)
                if op == "after":  # r ∘ s: apply s first
                    want = {
                        p[:2] + q[2:]
                        for p in other for q in rows if p[2:] == q[:2]
                    }
                else:
                    want = literal[op](rows, other)
                assert _rows(got.pairs) == want, op
                _assert_facts(got)
            assert r.difference(_fresh(r)).is_empty()  # equal operands

    def test_lexopt_per_domain_matches_uncached(self):
        rng = random.Random(606)
        for _ in range(NUM_CASES):
            r = _random_relation(rng)
            _assert_facts(r)
            assert r.lexmax_per_domain() == _fresh(r).lexmax_per_domain()
            assert r.lexmax_per_domain().is_single_valued()

    def test_apply_and_restrict_match_uncached(self):
        rng = random.Random(707)
        for _ in range(NUM_CASES):
            r = _random_relation(rng)
            pts = PointSet(r.pairs[:10, :2])
            got = r.restrict_domain(pts)
            assert got == _fresh(r).restrict_domain(PointSet(pts.points))
            keep = _rows(pts.points)
            assert _rows(got.pairs) == {
                p for p in _rows(r.pairs) if p[:2] in keep
            }
            _assert_facts(got)
            _assert_facts(r.inverse())


class TestInterningNeverConflates:
    def test_spaces_with_different_dim_names(self):
        a = Space(("i", "j"), "S")
        b = Space(("x", "y"), "S")
        assert a != b and len({a, b}) == 2
        assert a == Space(("i", "j"), "S")

    def test_spaces_with_different_tuple_names(self):
        a = Space(("i", "j"), "S")
        b = Space(("i", "j"), "T")
        assert a != b and len({a, b}) == 2

    def test_sets_differing_only_in_space_name(self):
        cons = (Constraint.ge((1, 0), 0), Constraint.ge((-1, 0), 5))
        a = BasicSet(Space(("i", "j"), "S"), cons)
        b = BasicSet(Space(("i", "j"), "T"), cons)
        assert a != b and len({a, b}) == 2

    def test_kept_facts_key_on_the_arity(self):
        # One pairs array, three arities: each relation keeps its own
        # domain and range, never the other's.
        pairs = np.random.default_rng(909).integers(-4, 5, size=(30, 4))
        rels = [PointRelation(pairs, n_in) for n_in in (1, 2, 3)]
        for rel in rels:
            _assert_facts(rel)
        assert len({rel.domain().ndim for rel in rels}) == 3
        assert len({rel.range().ndim for rel in rels}) == 3


class TestKeptFacts:
    def test_a_compiled_scop_and_its_relations_die_with_it(self):
        """Nothing outside the compile holds what it derived: once the
        result goes, its SCoP and the relations derived from it are
        freed by reference counting alone."""
        from repro.driver import TransformOptions, transform
        from repro.scop import AccessKind
        from repro.workloads import TABLE9

        result = transform(
            TABLE9["P5"].source(10), {}, TransformOptions(workers=2)
        )
        assert result.verified is True
        scop = result.scop
        pmap = next(iter(result.info.pipeline_maps.values()))
        access = scop.access_relation(scop.statements[0], AccessKind.WRITE)
        kept = (
            scop, pmap.relation, pmap.relation.domain(),
            pmap.relation.range(), access, access.domain(),
        )
        refs = [weakref.ref(obj) for obj in kept]
        del scop, pmap, access, kept
        gc.collect()
        gc.disable()
        try:
            del result
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()

    def test_threads_reading_one_domain_get_equal_values(self):
        rel = _random_relation(random.Random(808), rows=20_000)
        want = _literal_domain(_fresh(rel))
        start, got = threading.Barrier(8), [None] * 8

        def read(k: int) -> None:
            start.wait()
            got[k] = rel.domain()

        threads = [
            threading.Thread(target=read, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(d == want for d in got)
        assert rel.domain() is rel.domain()
