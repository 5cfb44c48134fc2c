"""Bridging constraint systems to explicit point sets."""

from __future__ import annotations

from .basic_set import BasicSet
from .enumeration import enumerate_basic_set
from .explicit import PointSet


def to_point_set(s: BasicSet) -> PointSet:
    """Enumerate a bounded basic set into an explicit point set."""
    return PointSet(enumerate_basic_set(s))
