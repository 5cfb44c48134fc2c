"""Integer affine expressions over named dimensions.

:class:`AffineExpr` is an exact, immutable linear form ``Σ c_k · x_k + c0``
with Python-int coefficients, keyed by dimension *name*.  It is the building
block for constraints (:mod:`repro.presburger.constraint`) and for the access
functions produced by the frontend.

The class supports the usual ring operations with other expressions and with
plain integers, plus exact evaluation and coefficient-vector extraction
against a :class:`~repro.presburger.space.Space`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .space import Space


@dataclass(frozen=True)
class AffineExpr:
    """An affine form with integer coefficients.

    Parameters
    ----------
    coeffs:
        Mapping from dimension name to integer coefficient.  Zero
        coefficients are normalized away.
    const:
        The constant term.
    """

    coeffs: tuple[tuple[str, int], ...]
    const: int = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def build(coeffs: Mapping[str, int] | None = None, const: int = 0) -> "AffineExpr":
        items = tuple(sorted((k, int(v)) for k, v in (coeffs or {}).items() if v != 0))
        return AffineExpr(items, int(const))

    @staticmethod
    def var(name: str) -> "AffineExpr":
        """The expression consisting of the single variable ``name``."""
        return AffineExpr(((name, 1),), 0)

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr((), int(value))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def coeff(self, name: str) -> int:
        for k, v in self.coeffs:
            if k == name:
                return v
        return 0

    def variables(self) -> Iterator[str]:
        for k, _ in self.coeffs:
            yield k

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _combine(self, other: "AffineExpr | int", sign: int) -> "AffineExpr":
        if isinstance(other, int):
            return AffineExpr(self.coeffs, self.const + sign * other)
        merged = dict(self.coeffs)
        for k, v in other.coeffs:
            merged[k] = merged.get(k, 0) + sign * v
        return AffineExpr.build(merged, self.const + sign * other.const)

    def __add__(self, other: "AffineExpr | int") -> "AffineExpr":
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "AffineExpr | int") -> "AffineExpr":
        return self._combine(other, -1)

    def __rsub__(self, other: int) -> "AffineExpr":
        return (-self) + other

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(tuple((k, -v) for k, v in self.coeffs), -self.const)

    def __mul__(self, factor: int) -> "AffineExpr":
        if not isinstance(factor, int):
            raise TypeError("affine expressions can only be scaled by integers")
        if factor == 0:
            return AffineExpr((), 0)
        return AffineExpr(
            tuple((k, v * factor) for k, v in self.coeffs), self.const * factor
        )

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # evaluation / lowering
    # ------------------------------------------------------------------
    def vector(self, space: Space) -> tuple[list[int], int]:
        """Coefficient vector aligned with ``space.dims`` plus constant.

        Raises ``KeyError`` if the expression mentions a variable that is not
        a dimension of ``space``.
        """
        vec = [0] * space.ndim
        for k, v in self.coeffs:
            if k not in space.dims:
                raise KeyError(f"variable {k!r} not in space {space}")
            vec[space.index(k)] = v
        return vec, self.const

    def __str__(self) -> str:
        parts: list[str] = []
        for k, v in self.coeffs:
            if v == 1:
                term = k
            elif v == -1:
                term = f"-{k}"
            else:
                term = f"{v}*{k}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self.const or not parts:
            if parts:
                sign = "+" if self.const >= 0 else "-"
                parts.append(f"{sign} {abs(self.const)}")
            else:
                parts.append(str(self.const))
        return " ".join(parts)
