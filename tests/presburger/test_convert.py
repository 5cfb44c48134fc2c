"""Constraint system → explicit point set."""

from repro.presburger import BasicSet, Space, to_point_set

SP = Space(("i", "j"))


def test_point_set_from_basic():
    bs = BasicSet.from_box(SP, [(0, 2), (0, 1)])
    ps = to_point_set(bs)
    assert len(ps) == 6
    assert ps.contains((2, 1))
