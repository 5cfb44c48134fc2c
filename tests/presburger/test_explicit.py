"""Tests for the explicit NumPy-backed point sets and relations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.presburger import (
    PointRelation,
    PointSet,
    joint_ranks,
    lex_ranks,
    lexsorted_rows,
    rowwise_lex_lt,
    unique_rows,
)
from tests.conftest import lexmin_per_domain, rowwise_lex_le

rows2 = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=0, max_size=20
).map(lambda rs: np.asarray(rs or np.zeros((0, 2)), dtype=np.int64).reshape(-1, 2))


class TestHelpers:
    def test_lexsorted(self):
        arr = np.array([[2, 1], [0, 5], [2, 0]])
        assert lexsorted_rows(arr).tolist() == [[0, 5], [2, 0], [2, 1]]

    def test_unique_rows(self):
        arr = np.array([[1, 1], [0, 0], [1, 1]])
        assert unique_rows(arr).tolist() == [[0, 0], [1, 1]]

    @given(rows2, rows2)
    def test_joint_ranks_order(self, a, b):
        ra, rb = joint_ranks(a, b)
        for i in range(len(a)):
            for j in range(len(b)):
                ta, tb = tuple(a[i]), tuple(b[j])
                assert (ra[i] < rb[j]) == (ta < tb)
                assert (ra[i] == rb[j]) == (ta == tb)

    def test_lex_ranks_dense(self):
        arr = np.array([[5, 0], [1, 1], [5, 0]])
        r = lex_ranks(arr)
        assert r[0] == r[2] > r[1]

    def test_rowwise_lex(self):
        a = np.array([[0, 5], [1, 1], [2, 2]])
        b = np.array([[1, 0], [1, 1], [2, 1]])
        assert rowwise_lex_lt(a, b).tolist() == [True, False, False]
        assert rowwise_lex_le(a, b).tolist() == [True, True, False]

    def test_rowwise_shape_check(self):
        with pytest.raises(ValueError):
            rowwise_lex_lt(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPointSet:
    def test_canonicalization(self):
        ps = PointSet(np.array([[3, 0], [1, 1], [3, 0]]))
        assert ps.points.tolist() == [[1, 1], [3, 0]]
        assert len(ps) == 2

    def test_set_algebra_matches_python_sets(self):
        a = PointSet(np.array([[0, 0], [1, 1], [2, 2]]))
        b = PointSet(np.array([[1, 1], [3, 3]]))
        assert a.union(b).points.tolist() == [[0, 0], [1, 1], [2, 2], [3, 3]]
        assert a.intersect(b).points.tolist() == [[1, 1]]
        assert a.difference(b).points.tolist() == [[0, 0], [2, 2]]

    def test_contains(self):
        ps = PointSet(np.array([[1, 2]]))
        assert ps.contains((1, 2))
        assert not ps.contains((2, 1))
        assert not PointSet.empty(2).contains((0, 0))

    def test_lexmin_lexmax(self):
        ps = PointSet(np.array([[3, 0], [0, 9], [3, 1]]))
        assert ps.lexmin() == (0, 9)
        assert ps.lexmax() == (3, 1)

    def test_lexmin_empty_raises(self):
        with pytest.raises(ValueError):
            PointSet.empty(1).lexmin()

    def test_first_geq(self):
        ps = PointSet(np.array([[0, 0], [0, 5], [1, 1], [2, 2]]))
        ends = PointSet(np.array([[0, 5], [1, 3]]))
        assert ps.first_geq(ends).tolist() == [0, 0, 1, 2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PointSet.empty(2).union(PointSet.empty(1))

    def test_single(self):
        assert PointSet.single((4, 2)).points.tolist() == [[4, 2]]

    @given(rows2, rows2)
    def test_difference_union_partition(self, a, b):
        pa, pb = PointSet(a), PointSet(b)
        inter = pa.intersect(pb)
        diff = pa.difference(pb)
        assert diff.union(inter) == pa
        assert diff.intersect(pb).is_empty()


class TestPointRelation:
    def test_from_arrays(self):
        rel = PointRelation.from_arrays(
            np.array([[0], [1]]), np.array([[5, 5], [6, 6]])
        )
        assert rel.n_in == 1 and rel.n_out == 2

    def test_from_affine(self):
        ps = PointSet(np.array([[0, 0], [1, 2]]))
        rel = PointRelation.from_affine(
            ps, np.array([[2, 0], [0, 1]]), np.array([1, 0])
        )
        assert rel.lookup((1, 2)).tolist() == [[3, 2]]

    def test_inverse_roundtrip(self):
        rel = PointRelation(np.array([[0, 1, 2], [3, 4, 5]]), 1)
        assert rel.inverse().inverse() == rel

    def test_domain_range(self):
        rel = PointRelation(np.array([[0, 7], [0, 8], [1, 7]]), 1)
        assert rel.domain().points.ravel().tolist() == [0, 1]
        assert rel.range().points.ravel().tolist() == [7, 8]

    def test_compose_matches_bruteforce(self):
        r1 = PointRelation(  # A -> B
            np.array([[0, 10], [0, 11], [1, 11], [2, 12]]), 1
        )
        r2 = PointRelation(  # B -> C
            np.array([[10, 100], [11, 101], [11, 102]]), 1
        )
        comp = r2.after(r1)
        expected = set()
        for a, b in r1.pairs.tolist():
            for b2, c in r2.pairs.tolist():
                if b == b2:
                    expected.add((a, c))
        assert {tuple(r) for r in comp.pairs.tolist()} == expected

    def test_compose_empty_result(self):
        r1 = PointRelation(np.array([[0, 1]]), 1)
        r2 = PointRelation(np.array([[2, 3]]), 1)
        assert r2.after(r1).is_empty()

    def test_restrict(self):
        rel = PointRelation(np.array([[0, 5], [1, 6]]), 1)
        assert len(rel.restrict_domain(PointSet(np.array([[1]])))) == 1

    def test_lexmax_per_domain(self):
        rel = PointRelation(
            np.array([[0, 0, 5], [0, 0, 7], [1, 2, 3], [1, 2, 1]]), 2
        )
        assert rel.lexmax_per_domain().pairs.tolist() == [[0, 0, 7], [1, 2, 3]]
        assert lexmin_per_domain(rel).pairs.tolist() == [[0, 0, 5], [1, 2, 1]]

    def test_single_valued_injective(self):
        fn = PointRelation(np.array([[0, 5], [1, 6]]), 1)
        assert fn.is_single_valued() and fn.is_injective()
        multi = PointRelation(np.array([[0, 5], [0, 6]]), 1)
        assert not multi.is_single_valued()
        noninj = PointRelation(np.array([[0, 5], [1, 5]]), 1)
        assert noninj.is_single_valued() and not noninj.is_injective()

    def test_identity(self):
        ps = PointSet(np.array([[1, 2], [3, 4]]))
        ident = PointRelation.identity(ps)
        assert np.array_equal(ident.in_part, ident.out_part)

    def test_union_intersect_difference(self):
        a = PointRelation(np.array([[0, 1], [1, 2]]), 1)
        b = PointRelation(np.array([[1, 2], [2, 3]]), 1)
        assert len(a.union(b)) == 3
        assert a.intersect(b).pairs.tolist() == [[1, 2]]
        assert a.difference(b).pairs.tolist() == [[0, 1]]

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            PointRelation.from_arrays(np.zeros((2, 1)), np.zeros((3, 1)))

    @settings(max_examples=40)
    @given(rows2, rows2)
    def test_compose_property(self, a, b):
        """(r2 ∘ r1) pairs == brute-force join on middle column."""
        r1 = PointRelation(a, 1)  # 1 -> 1
        r2 = PointRelation(b, 1)
        comp = r2.after(r1)
        expected = {
            (x, z)
            for x, y in r1.pairs.tolist()
            for y2, z in r2.pairs.tolist()
            if y == y2
        }
        assert {tuple(r) for r in comp.pairs.tolist()} == expected


# ----------------------------------------------------------------------
# a masked subset of canonical rows is canonical
# ----------------------------------------------------------------------
def assert_canonical(rel):
    """Sorted and unique, in an owned C-contiguous int64 array."""
    pairs = rel.pairs
    assert pairs.dtype == np.int64
    assert pairs.flags.c_contiguous and pairs.flags.owndata
    assert np.array_equal(unique_rows(pairs), pairs)


class TestSubset:
    @settings(max_examples=120, deadline=None)
    @given(rows2, st.data())
    def test_is_the_sorted_filter(self, pairs, data):
        rel = PointRelation(pairs, 1)
        mask = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=len(rel),
                               max_size=len(rel))),
            dtype=bool,
        ).reshape(len(rel))
        out = rel.subset(mask)
        assert_canonical(out)
        want = PointRelation(rel.pairs[mask], 1)
        assert out.n_in == 1 and out.pairs.tobytes() == want.pairs.tobytes()
        assert out.pairs.shape == want.pairs.shape and out == want

    def test_every_subset_of_a_compile_is_canonical(self, monkeypatch):
        """Every relation built through ``subset`` while compiling and
        verifying a Table 9 kernel and a privatized reduction: the
        dependence filters, intersections, differences, restrictions
        and per-domain lexmax/lexmin."""
        from pathlib import Path

        from repro.driver import TransformOptions, transform
        from repro.presburger import cache as presburger_cache
        from repro.workloads import TABLE9

        real, outputs = PointRelation.subset, []

        def recording(self, mask):
            outputs.append(real(self, mask))
            return outputs[-1]

        monkeypatch.setattr(PointRelation, "subset", recording)
        histogram = (
            Path(__file__).resolve().parents[2]
            / "examples" / "kernels" / "histogram.c"
        ).read_text()
        with presburger_cache.overridden(enabled=False):  # every op runs
            for source, params, extra in (
                (TABLE9["P5"].source(10), {}, {}),
                (histogram, {"N": 8}, {"privatize": True}),
            ):
                result = transform(
                    source, params, TransformOptions(workers=2, **extra)
                )
                assert result.verified is True
        assert outputs
        for out in outputs:
            assert_canonical(out)
