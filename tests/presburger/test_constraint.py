"""Tests for positional constraints."""

import pytest

from repro.presburger import Constraint, Kind
from tests.conftest import equality, satisfied


class TestBasics:
    def test_ge(self):
        c = Constraint.ge((1, -1), 3)
        assert c.kind is Kind.GE
        assert c.ncols == 2

    def test_satisfied_ge(self):
        c = Constraint.ge((1, -1), 0)  # x - y >= 0
        assert satisfied(c, (5, 3))
        assert satisfied(c, (3, 3))
        assert not satisfied(c, (2, 3))

    def test_satisfied_eq(self):
        c = equality((1, 1), -4)  # x + y == 4
        assert satisfied(c, (1, 3))
        assert not satisfied(c, (1, 2))

    def test_trivial(self):
        assert Constraint.ge((0, 0), 5).is_trivial()
        assert equality((0,), 0).is_trivial()
        assert not Constraint.ge((1,), 5).is_trivial()

    def test_contradiction(self):
        assert Constraint.ge((0,), -1).is_contradiction()
        assert equality((0,), 2).is_contradiction()
        assert not Constraint.ge((1,), -1).is_contradiction()


class TestColumnJuggling:
    def test_padded(self):
        c = Constraint.ge((1,), 2).padded(3)
        assert c.coeffs == (1, 0, 0)

    def test_padded_cannot_shrink(self):
        with pytest.raises(ValueError):
            Constraint.ge((1, 2), 0).padded(1)


class TestNormalization:
    def test_ineq_gcd_tightens(self):
        # 2x + 4y + 3 >= 0  ->  x + 2y + 1 >= 0 (floor(3/2) = 1)
        c = Constraint.ge((2, 4), 3).normalized()
        assert c.coeffs == (1, 2)
        assert c.const == 1

    def test_eq_divisible(self):
        c = equality((2, 4), -6).normalized()
        assert c.coeffs == (1, 2)
        assert c.const == -3

    def test_eq_indivisible_becomes_contradiction(self):
        c = equality((2, 4), 3).normalized()
        assert c.is_contradiction()

    def test_already_normal(self):
        c = Constraint.ge((1, 2), 5)
        assert c.normalized() is c

    def test_tightening_preserves_integer_points(self):
        original = Constraint.ge((3,), 4)  # 3x >= -4 -> x >= -4/3 -> x >= -1
        tight = original.normalized()
        for x in range(-5, 6):
            assert satisfied(original, (x,)) == satisfied(tight, (x,))


def test_arity_check_in_sets():
    from repro.presburger import BasicSet, Space

    with pytest.raises(ValueError, match="columns"):
        BasicSet(Space(("i",)), (Constraint.ge((1, 1), 0),))
