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

from .constraint import Constraint
from .space import Space


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
    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return self.space.ndim

    @property
    def ncols(self) -> int:
        return self.space.ndim + self.n_div

    def __str__(self) -> str:
        body = " and ".join(str(c) for c in self.constraints) or "true"
        divs = f" exists {self.n_div} divs:" if self.n_div else ""
        return f"{{ {self.space} :{divs} {body} }}"
