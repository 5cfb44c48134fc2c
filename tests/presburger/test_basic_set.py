"""Tests for basic sets."""

import pytest

from repro.presburger import (
    BasicSet,
    Constraint,
    Space,
    enumerate_basic_set,
)

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
        assert not BasicSet.universe(SP).constraints

    def test_empty(self):
        assert enumerate_basic_set(BasicSet.empty(SP)).shape == (0, 2)
        assert not BasicSet.empty(SP).contains((0, 0))

    def test_from_box(self):
        bs = BasicSet.from_box(SP, [(0, 3), (1, 2)])
        assert bs.contains((0, 1))
        assert bs.contains((3, 2))
        assert not bs.contains((4, 1))
        assert not bs.contains((0, 0))

    def test_from_box_arity(self):
        with pytest.raises(ValueError):
            BasicSet.from_box(SP, [(0, 1)])

    def test_with_constraints_pads(self):
        bs = BasicSet.from_box(SP, [(0, 5), (0, 5)])
        bs2 = bs.with_constraints([Constraint.ge((1, -1), 0)])  # i >= j
        assert bs2.contains((3, 2))
        assert not bs2.contains((2, 3))


class TestMembershipWithDivs:
    def test_contains_scans_divs(self):
        even = BasicSet(
            Space(("i",)),
            (Constraint.eq((1, -2), 0),),
            n_div=1,
        )
        assert even.contains((4,))
        assert not even.contains((5,))

    def test_contains_arity(self):
        with pytest.raises(ValueError):
            tri(3).contains((1,))

    def test_str_mentions_divs(self):
        even = BasicSet(Space(("i",)), (Constraint.eq((1, -2), 0),), n_div=1)
        assert "divs" in str(even)
