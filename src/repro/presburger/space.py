"""Dimension spaces for integer sets.

A :class:`Space` names the dimensions of a set of integer tuples, mirroring
``isl_space``: one tuple of dimension names, optionally labelled with the
statement it belongs to.

Spaces are immutable value objects: two spaces compare equal when their tuple
names and dimension names match.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cache


@cache.register_internable
@dataclass(frozen=True)
class Space:
    """An ordered tuple of dimension names, optionally labelled.

    Parameters
    ----------
    dims:
        Names of the dimensions, e.g. ``("i", "j")``.
    name:
        Optional tuple name, e.g. ``"S"`` for a statement ``S[i, j]``.
    """

    dims: tuple[str, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"duplicate dimension names in {self.dims!r}")

    def __hash__(self) -> int:  # structural hash, computed once
        try:
            return self._hash
        except AttributeError:
            h = hash((self.dims, self.name))
            object.__setattr__(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Space:
            return NotImplemented
        return self.name == other.name and self.dims == other.dims

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def index(self, dim: str) -> int:
        """Position of dimension ``dim`` in this space."""
        return self.dims.index(dim)

    def __str__(self) -> str:
        label = self.name or ""
        return f"{label}[{', '.join(self.dims)}]"

