"""Basic integer sets: conjunctions of affine constraints.

A :class:`BasicSet` is the integer-point set of a conjunction of affine
equalities and inequalities over its space's dimensions plus ``n_div``
existentially quantified columns, mirroring ``isl_basic_set``.  Column
layout is ``[set dims | divs]``.

It is a constraint *container*: the frontend builds one per statement
from the loop bounds, :func:`~repro.presburger.enumeration.enumerate_basic_set`
tabulates it once, and every set/relation operation of the pipeline
algebra runs on the tabulation (:mod:`repro.presburger.explicit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cache
from .constraint import Constraint
from .space import Space


@cache.register_internable
@dataclass(frozen=True)
class BasicSet:
    """Integer points satisfying a conjunction of affine constraints."""

    space: Space
    constraints: tuple[Constraint, ...] = ()
    n_div: int = 0

    def __post_init__(self) -> None:
        ncols = self.ncols
        for con in self.constraints:
            if con.ncols != ncols:
                raise ValueError(
                    f"constraint has {con.ncols} columns, set has {ncols}"
                )

    def __hash__(self) -> int:  # structural hash, computed once
        try:
            return self._hash
        except AttributeError:
            h = hash((self.space, self.constraints, self.n_div))
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not BasicSet:
            return NotImplemented
        return (
            self.n_div == other.n_div
            and self.space == other.space
            and self.constraints == other.constraints
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def universe(space: Space) -> "BasicSet":
        return BasicSet(space)

    @staticmethod
    def empty(space: Space) -> "BasicSet":
        false = Constraint.ge((0,) * space.ndim, -1)
        return BasicSet(space, (false,))

    @staticmethod
    def from_box(space: Space, bounds: Sequence[tuple[int, int]]) -> "BasicSet":
        """The box ``lo_k <= x_k <= hi_k`` (inclusive)."""
        if len(bounds) != space.ndim:
            raise ValueError("one (lo, hi) pair per dimension required")
        cons: list[Constraint] = []
        n = space.ndim
        for k, (lo, hi) in enumerate(bounds):
            unit = [0] * n
            unit[k] = 1
            cons.append(Constraint.ge(tuple(unit), -lo))
            unit2 = [0] * n
            unit2[k] = -1
            cons.append(Constraint.ge(tuple(unit2), hi))
        return BasicSet(space, tuple(cons))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return self.space.ndim

    @property
    def ncols(self) -> int:
        return self.space.ndim + self.n_div

    def with_constraints(self, extra: Iterable[Constraint]) -> "BasicSet":
        extra = tuple(c.padded(self.ncols) for c in extra)
        return BasicSet(self.space, self.constraints + extra, self.n_div)

    def contains(self, point: Sequence[int]) -> bool:
        """Membership test by evaluating the constraints; with divs, by
        scanning the (bounded) div columns under ``dims == point``."""
        if len(point) != self.ndim:
            raise ValueError("point arity mismatch")
        if self.n_div == 0:
            return all(c.satisfied(point) for c in self.constraints)
        from .enumeration import enumerate_basic_set

        pinned = [
            Constraint.eq([int(k == col) for k in range(self.ndim)], -int(val))
            for col, val in enumerate(point)
        ]
        return len(enumerate_basic_set(self.with_constraints(pinned))) > 0

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        divs = f" exists {self.n_div} divs:" if self.n_div else ""
        return f"{{ {self.space} :{divs} {body} }}"
