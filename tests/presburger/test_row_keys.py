"""Row keys under the explicit engine: packed int64 codes and the rank fallback.

Every property runs over three coordinate families so that both branches
of ``unique_rows`` / ``joint_ranks`` are exercised: *narrow* rows always
pack, *wide* rows (three columns from ±2**40) overflow the 2**62 box as soon
as two columns vary, *huge* rows overflow on a single column.  The pools
are small so that equal rows — across arrays too — are common.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.presburger import (
    PointRelation,
    PointSet,
    joint_ranks,
    lex_ranks,
    unique_rows,
)
from tests.conftest import lexmin_per_domain

ELEMENTS = {
    "narrow": st.integers(-9, 9),
    "wide": st.sampled_from(
        [-(2**40), -(2**40) + 1, -1, 0, 1, 2**40 - 1, 2**40]
    ),
    "huge": st.sampled_from(
        [-(2**62), -(2**62) + 1, -1, 0, 2**62 - 1, 2**62]
    ),
}
FAMILIES = sorted(ELEMENTS)
EXTREMES = {"narrow": (-9, 9), "wide": (-(2**40), 2**40), "huge": (-(2**62), 2**62)}


def as_rows(rows, ncols):
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


def rows_of(family, ncols, max_size=10):
    return st.lists(
        st.tuples(*[ELEMENTS[family]] * ncols), max_size=max_size
    ).map(lambda rs: as_rows(rs, ncols))


def any_family(ncols, count):
    """``count`` arrays of one family, the family drawn too."""
    return st.sampled_from(FAMILIES).flatmap(
        lambda fam: st.tuples(*[rows_of(fam, ncols)] * count)
    )


def tuples(arr):
    return {tuple(r) for r in arr.tolist()}


def canon(model):
    """The canonical array of a set-of-tuples model, as nested lists."""
    return [list(t) for t in sorted(model)]


# ----------------------------------------------------------------------
# the helpers
# ----------------------------------------------------------------------
class TestKeys:
    @given(any_family(3, 2))
    def test_joint_ranks_is_an_order_and_equality_isomorphism(self, ab):
        a, b = ab
        ra, rb = joint_ranks(a, b)
        assert ra.dtype == rb.dtype == np.int64
        assert ra.shape == (len(a),) and rb.shape == (len(b),)
        for x, kx in zip(a.tolist() + b.tolist(), ra.tolist() + rb.tolist()):
            for y, ky in zip(b.tolist() + a.tolist(), rb.tolist() + ra.tolist()):
                assert (kx < ky) == (x < y)
                assert (kx == ky) == (x == y)

    @given(any_family(3, 1))
    def test_unique_rows_equals_numpy(self, a):
        (a,) = a
        got, want = unique_rows(a), np.unique(a, axis=0)
        assert got.tolist() == want.tolist()
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous and not np.shares_memory(got, a)

    @given(any_family(2, 2))
    def test_in_part_keys_of_a_canonical_relation_are_sorted(self, ab):
        # what lets PointRelation._after skip sorting its right-hand side
        rows, other = ab
        rel = PointRelation(rows, 1)
        keys = joint_ranks(other[:, 1:], rel.in_part)[1]
        assert np.all(keys[1:] >= keys[:-1])

    @pytest.mark.parametrize(
        "rows, ncols",
        [
            ([], 2),  # no rows
            ([(), (), ()], 0),  # no columns
            ([(4, -4)], 2),  # one row
            ([(7, 7), (7, 7), (7, 7)], 2),  # all equal
            ([(2**62, -(2**62))] * 2, 2),  # all equal, huge
        ],
    )
    def test_degenerate_shapes(self, rows, ncols):
        a = as_rows(rows, ncols)
        want = np.unique(a, axis=0)
        got = unique_rows(a)
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert got.dtype == np.int64 and got.flags.c_contiguous
        keys = lex_ranks(a)
        assert keys.shape == (len(a),) and len(set(keys.tolist())) <= 1

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_empty_array_in_a_joint_call(self, family):
        lo, hi = EXTREMES[family]
        a = as_rows([(hi, lo), (lo, hi), (lo, lo)], 2)
        empty = as_rows([], 2)
        ka, ke, kb = joint_ranks(a, empty, a[::-1])
        assert ke.shape == (0,) and ke.dtype == np.int64
        assert ka.tolist() == kb.tolist()[::-1]
        assert [k.shape for k in joint_ranks(empty, empty)] == [(0,), (0,)]

    def test_non_int64_rows_keep_their_dtype(self):
        a = np.array([[3, 1], [1, 2], [3, 1]], dtype=np.int32)
        got = unique_rows(a)
        assert got.dtype == np.int32 and got.tolist() == [[1, 2], [3, 1]]


class TestBranchChoice:
    """Which branch runs is decided by the bounding box alone: packed
    below a box volume of 2**62, ``np.unique(axis=0)`` ranks from there."""

    def test_narrow_rows_never_reach_the_fallback(self, unique_axis0_calls):
        a = as_rows([(3, 0), (1, 1), (3, 0)], 2)
        assert unique_rows(a).tolist() == [[1, 1], [3, 0]]
        joint_ranks(a, a[:1])
        assert PointSet(a).intersect(PointSet(a[:2])).points.tolist() == [
            [1, 1], [3, 0]
        ]
        assert unique_axis0_calls == []

    @pytest.mark.parametrize(
        "top, packed", [(2**62 - 2, True), (2**62 - 1, False)]
    )
    def test_the_boundary_is_exactly_2_to_the_62(
        self, unique_axis0_calls, top, packed
    ):
        a = as_rows([(top,), (0,), (top,)], 1)  # box volume = top + 1
        assert unique_rows(a).tolist() == [[0], [top]]
        k = lex_ranks(a)
        assert k[0] == k[2] > k[1]
        assert (unique_axis0_calls == []) == packed

    def test_volume_is_a_product_over_columns(self, unique_axis0_calls):
        # each column fits on its own; the int64 product would wrap to 0
        a = as_rows([(0, 0), (2**32 - 1, 2**32 - 1)], 2)
        assert lex_ranks(a).tolist() == [0, 1]
        assert len(unique_axis0_calls) == 1

    def test_wide_relation_falls_back_and_still_matches_the_model(
        self, unique_axis0_calls
    ):
        w = 2**40
        r1 = PointRelation(as_rows([(-w, w), (0, -w), (w, 0), (w, w)], 2), 1)
        r2 = PointRelation(as_rows([(w, -w), (-w, 5), (0, w), (0, 0)], 2), 1)
        assert unique_axis0_calls  # canonicalising 2 columns of ±2**40
        assert r2.after(r1).pairs.tolist() == canon(
            {(-w, -w), (0, 5), (w, -w), (w, 0), (w, w)}
        )
        assert r1.union(r2).pairs.tolist() == canon(
            tuples(r1.pairs) | tuples(r2.pairs)
        )
        assert r1.difference(r2) == r1 and r1.intersect(r2).is_empty()


# ----------------------------------------------------------------------
# the algebra against a set-of-tuples model
# ----------------------------------------------------------------------
class TestSetModel:
    @settings(max_examples=60)
    @given(any_family(3, 2))
    def test_point_set_algebra(self, ab):
        a, b = ab
        pa, pb = PointSet(a), PointSet(b)
        ma, mb = tuples(a), tuples(b)
        assert pa.points.tolist() == canon(ma)
        assert pa.union(pb).points.tolist() == canon(ma | mb)
        assert pa.intersect(pb).points.tolist() == canon(ma & mb)
        assert pa.difference(pb).points.tolist() == canon(ma - mb)
        assert pa.contains_rows(b).tolist() == [t in mb for t in sorted(ma)]
        geq = pa.first_geq(pb).tolist()
        targets = sorted(mb)
        assert geq == [
            next((i for i, t in enumerate(targets) if t >= p), len(targets))
            for p in sorted(ma)
        ]

    @settings(max_examples=60)
    @given(any_family(2, 2))
    def test_relation_set_algebra(self, ab):
        a, b = ab
        ra, rb = PointRelation(a, 1), PointRelation(b, 1)
        ma, mb = tuples(a), tuples(b)
        assert ra.pairs.tolist() == canon(ma)
        assert ra.union(rb).pairs.tolist() == canon(ma | mb)
        assert ra.intersect(rb).pairs.tolist() == canon(ma & mb)
        assert ra.difference(rb).pairs.tolist() == canon(ma - mb)
        assert ra.inverse().pairs.tolist() == canon({(y, x) for x, y in ma})

    @settings(max_examples=60)
    @given(any_family(2, 2))
    def test_after_apply_restrict(self, ab):
        a, b = ab
        r1, r2 = PointRelation(a, 1), PointRelation(b, 1)
        m1, m2 = tuples(a), tuples(b)
        assert r2.after(r1).pairs.tolist() == canon(
            {(x, z) for x, y in m1 for y2, z in m2 if y == y2}
        )
        s = r2.domain()
        ms = {(x,) for x, _ in m2}
        assert s.points.tolist() == canon(ms)
        assert r1.restrict_domain(s).pairs.tolist() == canon(
            {(x, y) for x, y in m1 if (x,) in ms}
        )

    @settings(max_examples=60)
    @given(any_family(3, 1))
    def test_lexopt_per_domain(self, a):
        (a,) = a
        rel = PointRelation(a, 1)
        best: dict = {}
        worst: dict = {}
        for x, *out in sorted(tuples(a)):
            worst.setdefault(x, out)
            best[x] = out
        assert rel.lexmax_per_domain().pairs.tolist() == [
            [x, *out] for x, out in sorted(best.items())
        ]
        assert lexmin_per_domain(rel).pairs.tolist() == [
            [x, *out] for x, out in sorted(worst.items())
        ]


# ----------------------------------------------------------------------
# canonical values never alias what they were built from
# ----------------------------------------------------------------------
class TestNoAliasing:
    @given(any_family(2, 1), st.booleans())
    def test_mutating_the_source_array_changes_nothing(self, a, presorted):
        (a,) = a
        if presorted:  # the "already canonical" fast path
            a = as_rows(sorted(tuples(a)), 2)
        ps, rel = PointSet(a), PointRelation(a, 1)
        want, hashes = ps.points.tolist(), (hash(ps), hash(rel))
        assert not np.shares_memory(ps.points, a)
        assert not np.shares_memory(rel.pairs, a)
        a[...] = 5
        assert ps.points.tolist() == rel.pairs.tolist() == want
        fresh = as_rows(want, 2)
        assert PointSet(fresh) == ps and PointRelation(fresh, 1) == rel
        assert (hash(PointSet(fresh)), hash(PointRelation(fresh, 1))) == hashes

    @given(any_family(3, 1))
    def test_column_slices_are_copied_not_pinned(self, a):
        (a,) = a
        rel = PointRelation(a, 1)
        for part in (rel.domain().points, rel.range().points):
            assert part.flags.c_contiguous and part.dtype == np.int64
            assert not np.shares_memory(part, rel.pairs)
