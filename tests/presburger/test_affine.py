"""Tests for affine expressions, including algebraic property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.presburger import AffineExpr, Space
from tests.conftest import evaluate

x = AffineExpr.var("x")
y = AffineExpr.var("y")


def exprs(max_vars: int = 3) -> st.SearchStrategy[AffineExpr]:
    names = st.sampled_from(["a", "b", "c"][:max_vars])
    coeffs = st.dictionaries(names, st.integers(-50, 50), max_size=max_vars)
    consts = st.integers(-100, 100)
    return st.builds(AffineExpr.build, coeffs, consts)


envs = st.fixed_dictionaries(
    {"a": st.integers(-9, 9), "b": st.integers(-9, 9), "c": st.integers(-9, 9)}
)


class TestConstruction:
    def test_var(self):
        assert x.coeff("x") == 1
        assert x.const == 0

    def test_constant(self):
        c = AffineExpr.constant(7)
        assert c.is_constant
        assert c.const == 7

    def test_build_drops_zero_coeffs(self):
        e = AffineExpr.build({"x": 0, "y": 2})
        assert list(e.variables()) == ["y"]

    def test_as_dict(self):
        assert (2 * x + y).as_dict() == {"x": 2, "y": 1}


class TestArithmetic:
    def test_add_sub(self):
        e = x + y - 3
        assert e.coeff("x") == 1 and e.coeff("y") == 1 and e.const == -3

    def test_radd_rsub(self):
        assert (5 + x).const == 5
        e = 5 - x
        assert e.coeff("x") == -1 and e.const == 5

    def test_scale(self):
        e = 3 * (x + 2)
        assert e.coeff("x") == 3 and e.const == 6

    def test_scale_by_zero(self):
        assert (0 * (x + 5)).is_constant

    def test_neg(self):
        e = -(x - 1)
        assert e.coeff("x") == -1 and e.const == 1

    def test_nonint_scale_rejected(self):
        with pytest.raises(TypeError):
            x * 1.5  # type: ignore[operator]

    def test_cancellation(self):
        assert (x - x).is_constant


class TestEvaluation:
    def test_evaluate(self):
        e = 2 * x + 3 * y - 1
        assert evaluate(e, {"x": 5, "y": 2}) == 15

    def test_vector(self):
        sp = Space(("x", "y"))
        vec, const = (3 * y - 2).vector(sp)
        assert vec == [0, 3] and const == -2

    def test_vector_unknown_var(self):
        with pytest.raises(KeyError):
            x.vector(Space(("y",)))


class TestProperties:
    @given(exprs(), exprs(), envs)
    def test_addition_homomorphic(self, e1, e2, env):
        assert evaluate(e1 + e2, env) == evaluate(e1, env) + evaluate(e2, env)

    @given(exprs(), st.integers(-20, 20), envs)
    def test_scaling_homomorphic(self, e, k, env):
        assert evaluate(e * k, env) == k * evaluate(e, env)

    @given(exprs(), exprs())
    def test_addition_commutes(self, e1, e2):
        assert e1 + e2 == e2 + e1

    @given(exprs())
    def test_self_difference_zero(self, e):
        z = e - e
        assert z.is_constant and z.const == 0


class TestStr:
    def test_zero(self):
        assert str(AffineExpr.constant(0)) == "0"

    def test_mixed(self):
        s = str(2 * x - y + 3)
        assert "2*x" in s and "y" in s and "3" in s
