"""Tests for bounded-set enumeration (Fourier–Motzkin scan)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.presburger import (
    BasicSet,
    Constraint,
    Space,
    UnboundedSetError,
    enumerate_basic_set,
)
from tests.conftest import box, contains, equality, satisfied, with_constraints

SP = Space(("i", "j"))


def brute(cons, lo=-8, hi=8, ncols=2):
    pts = []
    for p in itertools.product(range(lo, hi + 1), repeat=ncols):
        if all(satisfied(c, p) for c in cons):
            pts.append(list(p))
    return sorted(pts)


class TestShapes:
    def test_box(self):
        bs = box(SP, [(0, 2), (1, 3)])
        pts = enumerate_basic_set(bs)
        assert pts.shape == (9, 2)
        assert pts.tolist() == brute(bs.constraints, 0, 3)

    def test_triangle(self):
        cons = (
            Constraint.ge((1, 0), 0),
            Constraint.ge((-1, 0), 4),
            Constraint.ge((0, 1), 0),
            Constraint.ge((1, -1), 0),  # j <= i
        )
        bs = BasicSet(SP, cons)
        assert enumerate_basic_set(bs).tolist() == brute(cons, 0, 4)

    def test_diagonal_equality(self):
        cons = (
            Constraint.ge((1, 0), 0),
            Constraint.ge((-1, 0), 5),
            Constraint.ge((0, 1), 0),
            Constraint.ge((0, -1), 5),
            equality((1, -1), 0),
        )
        pts = enumerate_basic_set(BasicSet(SP, cons))
        assert pts.tolist() == [[k, k] for k in range(6)]

    def test_empty(self):
        bs = with_constraints(
            box(SP, [(0, 3), (0, 3)]), [Constraint.ge((1, 1), -100)]
        )
        assert enumerate_basic_set(bs).shape == (0, 2)

    def test_zero_dim(self):
        bs = BasicSet(Space(()), ())
        assert enumerate_basic_set(bs).shape == (1, 0)

    def test_lex_sorted_output(self):
        bs = box(SP, [(0, 3), (0, 3)])
        pts = enumerate_basic_set(bs)
        keys = [tuple(r) for r in pts.tolist()]
        assert keys == sorted(keys)


class TestDivs:
    def test_floor_division_set(self):
        # { i : 0 <= i <= 9, exists e: i = 2e }  -> even numbers
        bs = BasicSet(
            Space(("i",)),
            (
                Constraint.ge((1, 0), 0),
                Constraint.ge((-1, 0), 9),
                equality((1, -2), 0),
            ),
            n_div=1,
        )
        pts = enumerate_basic_set(bs)
        assert pts.ravel().tolist() == [0, 2, 4, 6, 8]

    def test_div_projection_dedupes(self):
        # e = floor(i / 2): each e covers two i values; project onto e.
        bs = BasicSet(
            Space(("e",)),
            (
                # 0 <= i <= 5, i - 2e in [0, 1]
                Constraint.ge((0, 1), 0),
                Constraint.ge((0, -1), 5),
                Constraint.ge((-2, 1), 0),
                Constraint.ge((2, -1), 1),
            ),
            n_div=1,
        )
        pts = enumerate_basic_set(bs)
        assert pts.ravel().tolist() == [0, 1, 2]


class TestUnbounded:
    def test_unbounded_raises(self):
        bs = BasicSet(SP, (Constraint.ge((1, 0), 0),))
        with pytest.raises(UnboundedSetError):
            enumerate_basic_set(bs)

    def test_one_sided_column(self):
        bs = BasicSet(
            SP,
            (
                Constraint.ge((1, 0), 0),
                Constraint.ge((-1, 0), 3),
                Constraint.ge((0, 1), 0),  # j unbounded above
            ),
        )
        with pytest.raises(UnboundedSetError):
            enumerate_basic_set(bs)


class TestAgainstBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(-5, 5)
            ),
            max_size=4,
        )
    )
    def test_random_polytopes(self, extra):
        cons = tuple(
            [
                Constraint.ge((1, 0), 4),
                Constraint.ge((-1, 0), 4),
                Constraint.ge((0, 1), 4),
                Constraint.ge((0, -1), 4),
            ]
            + [Constraint.ge((a, b), c) for a, b, c in extra]
        )
        bs = BasicSet(SP, cons)
        got = enumerate_basic_set(bs).tolist()
        assert got == brute(cons, -4, 4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_counts(self, w, h):
        bs = box(SP, [(0, w - 1), (0, h - 1)])
        assert enumerate_basic_set(bs).shape[0] == w * h


#: a random row ``a*i + b*j + c (>=|==) 0``
ROWS = st.lists(
    st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6),
        st.booleans(),
    ),
    max_size=4,
)


def rows(extra):
    return [
        (equality if is_eq else Constraint.ge)((a, b), c)
        for a, b, c, is_eq in extra
    ]


BOX = [
    Constraint.ge((1, 0), 4),
    Constraint.ge((-1, 0), 4),
    Constraint.ge((0, 1), 4),
    Constraint.ge((0, -1), 4),
]


class TestGridOracle:
    """``enumerate_basic_set`` and the ``contains`` reference against grid
    brute force: equalities, empty systems, unbounded systems."""

    @settings(max_examples=60, deadline=None)
    @given(ROWS)
    def test_equalities_and_empties(self, extra):
        cons = tuple(BOX + rows(extra))
        bs = BasicSet(SP, cons)
        got = enumerate_basic_set(bs).tolist()
        assert got == brute(cons, -4, 4)
        for p in itertools.product(range(-5, 6), repeat=2):
            assert contains(bs, p) == (list(p) in got)

    def test_integrally_empty_equality(self):
        # rationally feasible (i = 1/2), no integer point
        bs = BasicSet(SP, tuple(BOX + [equality((2, 0), -1)]))
        assert enumerate_basic_set(bs).shape == (0, 2)
        assert not any(
            contains(bs, p) for p in itertools.product(range(-4, 5), repeat=2)
        )

    @settings(max_examples=60, deadline=None)
    @given(ROWS, st.integers(0, 3))
    def test_one_open_side(self, extra, dropped):
        """A box side removed: the scan either refuses the system as
        unbounded — and it is (or is empty) — or the random rows closed
        it again, within |x| <= (3*4 + 6)/1 = 18."""
        cons = tuple(BOX[:dropped] + BOX[dropped + 1:] + rows(extra))
        expected = brute(cons, -20, 20)
        try:
            got = enumerate_basic_set(BasicSet(SP, cons)).tolist()
        except UnboundedSetError:
            edge = -20 if dropped % 2 == 0 else 20
            assert not expected or any(
                p[dropped // 2] == edge for p in expected
            )
        else:
            assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-6, 0), st.integers(0, 9), st.integers(1, 4),
           st.integers(0, 3))
    def test_div_membership(self, lo, hi, k, r):
        # { i : lo <= i <= hi, exists e: i = k*e + r }
        bs = BasicSet(
            Space(("i",)),
            (
                Constraint.ge((1, 0), -lo),
                Constraint.ge((-1, 0), hi),
                equality((1, -k), -r),
            ),
            n_div=1,
        )
        want = [i for i in range(lo, hi + 1) if (i - r) % k == 0]
        assert enumerate_basic_set(bs).ravel().tolist() == want
        for i in range(lo - 1, hi + 2):
            assert contains(bs, (i,)) == (i in want)
