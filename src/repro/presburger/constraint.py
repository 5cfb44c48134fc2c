"""Positional affine constraints.

A :class:`Constraint` is a linear inequality or equality over the *columns*
of a basic set: the set dimensions followed by any existentially quantified
dimensions.  Coefficients are exact Python integers.

The normal forms are::

    coeffs · x + const >= 0      (kind = GE)
    coeffs · x + const == 0      (kind = EQ)

matching ISL's internal representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from . import cache


class Kind(Enum):
    GE = ">="
    EQ = "="


@cache.register_internable
@dataclass(frozen=True)
class Constraint:
    """``coeffs · x + const (>=|==) 0`` over positional columns."""

    coeffs: tuple[int, ...]
    const: int
    kind: Kind = Kind.GE

    def __hash__(self) -> int:  # structural hash, computed once
        try:
            return self._hash
        except AttributeError:
            h = hash((self.coeffs, self.const, self.kind))
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Constraint:
            return NotImplemented
        return (
            self.const == other.const
            and self.kind is other.kind
            and self.coeffs == other.coeffs
        )

    # ------------------------------------------------------------------
    @staticmethod
    def ge(coeffs: Sequence[int], const: int) -> "Constraint":
        return Constraint(tuple(int(c) for c in coeffs), int(const), Kind.GE)

    # ------------------------------------------------------------------
    @property
    def ncols(self) -> int:
        return len(self.coeffs)

    def is_trivial(self) -> bool:
        """True for constraints with no variables that always hold."""
        if any(self.coeffs):
            return False
        return self.const == 0 if self.kind is Kind.EQ else self.const >= 0

    def is_contradiction(self) -> bool:
        """True for constraints with no variables that never hold."""
        if any(self.coeffs):
            return False
        return self.const != 0 if self.kind is Kind.EQ else self.const < 0

    # ------------------------------------------------------------------
    def padded(self, ncols: int) -> "Constraint":
        """Extend with zero coefficients up to ``ncols`` columns."""
        if ncols < self.ncols:
            raise ValueError("cannot shrink a constraint")
        return Constraint(
            self.coeffs + (0,) * (ncols - self.ncols), self.const, self.kind
        )

    def normalized(self) -> "Constraint":
        """Divide by the gcd of all coefficients (tightening inequalities).

        For an inequality ``g·a·x + c >= 0`` with ``g = gcd(a)`` the
        equivalent integer constraint is ``a·x + floor(c/g) >= 0``.
        """
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        if g in (0, 1):
            return self
        if self.kind is Kind.EQ:
            if self.const % g != 0:
                # Unsatisfiable over the integers; keep a canonical
                # contradiction so emptiness checks see it.
                return Constraint((0,) * self.ncols, -1, Kind.GE)
            return Constraint(
                tuple(c // g for c in self.coeffs), self.const // g, Kind.EQ
            )
        return Constraint(
            tuple(c // g for c in self.coeffs), self.const // g, Kind.GE
        )

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c:+d}*x{k}")
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} {self.const:+d} {self.kind.value} 0"
