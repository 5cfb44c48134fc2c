"""Constraint system → explicit point set."""

from repro.presburger import Space, to_point_set
from tests.conftest import box

SP = Space(("i", "j"))


def test_point_set_from_basic():
    bs = box(SP, [(0, 2), (0, 1)])
    ps = to_point_set(bs)
    assert len(ps) == 6
    assert ps.contains((2, 1))
