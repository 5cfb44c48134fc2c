"""Tests for basic sets."""

import pytest

from repro.presburger import (
    BasicSet,
    Constraint,
    Space,
    enumerate_basic_set,
)
from tests.conftest import box, contains, equality, with_constraints

SP = Space(("i", "j"))


def tri(n: int) -> BasicSet:
    """Lower-triangular set 0 <= j <= i < n."""
    return BasicSet(
        SP,
        (
            Constraint.ge((1, 0), 0),
            Constraint.ge((-1, 0), n - 1),
            Constraint.ge((0, 1), 0),
            Constraint.ge((1, -1), 0),
        ),
    )


class TestConstruction:
    def test_universe(self):
        universe = BasicSet(SP)
        assert not universe.constraints
        assert contains(universe, (7, -3))

    def test_empty(self):
        empty = BasicSet(SP, (Constraint.ge((0, 0), -1),))
        assert enumerate_basic_set(empty).shape == (0, 2)
        assert not contains(empty, (0, 0))

    def test_from_box(self):
        bs = box(SP, [(0, 3), (1, 2)])
        assert contains(bs, (0, 1))
        assert contains(bs, (3, 2))
        assert not contains(bs, (4, 1))
        assert not contains(bs, (0, 0))

    def test_from_box_arity(self):
        with pytest.raises(ValueError):
            box(SP, [(0, 1)])

    def test_with_constraints_pads(self):
        bs = box(SP, [(0, 5), (0, 5)])
        bs2 = with_constraints(bs, [Constraint.ge((1, -1), 0)])  # i >= j
        assert contains(bs2, (3, 2))
        assert not contains(bs2, (2, 3))


class TestMembershipWithDivs:
    def test_contains_scans_divs(self):
        even = BasicSet(
            Space(("i",)),
            (equality((1, -2), 0),),
            n_div=1,
        )
        assert contains(even, (4,))
        assert not contains(even, (5,))

    def test_contains_arity(self):
        with pytest.raises(ValueError):
            contains(tri(3), (1,))

    def test_str_mentions_divs(self):
        even = BasicSet(Space(("i",)), (equality((1, -2), 0),), n_div=1)
        assert "divs" in str(even)
