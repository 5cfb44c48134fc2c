"""Static control part (SCoP) representation.

A :class:`Scop` is the polyhedral abstraction of a kernel program: one
:class:`ScopStatement` per labelled assignment, each carrying its iteration
domain (constraints and enumerated points), its read/write access
relations, and enough of the original AST to execute the statement.  This
mirrors what Polly's analysis passes hand to the paper's pipeline detection.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..lang.ast import Assign
from ..presburger import (
    BasicSet,
    PointRelation,
    PointSet,
    Space,
    to_point_set,
)
from .access import Access, AccessKind


@dataclass(frozen=True)
class ScopStatement:
    """One statement instance set plus its memory behaviour."""

    name: str
    nest_index: int
    position: int
    space: Space
    domain: BasicSet
    accesses: tuple[Access, ...]
    assign: Assign

    @property
    def depth(self) -> int:
        return self.space.ndim

    @property
    def writes(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.kind is AccessKind.WRITE)

    @property
    def reads(self) -> tuple[Access, ...]:
        return tuple(a for a in self.accesses if a.kind is AccessKind.READ)

    @functools.cached_property
    def points(self) -> PointSet:
        """The enumerated iteration domain (cached)."""
        return to_point_set(self.domain)

    def __str__(self) -> str:
        acc = ", ".join(str(a) for a in self.accesses)
        return f"{self.name}{list(self.space.dims)} in nest {self.nest_index}: {acc}"


@dataclass(frozen=True)
class Scop:
    """An analyzed static control part."""

    statements: tuple[ScopStatement, ...]
    arrays: dict[str, int] = field(default_factory=dict)  # name -> rank
    params: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [s.name for s in self.statements]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate statement labels: {names}")

    # ------------------------------------------------------------------
    @property
    def mem_rank(self) -> int:
        """Common padded rank of the encoded memory space."""
        return max(self.arrays.values(), default=0)

    @functools.cached_property
    def array_ids(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(sorted(self.arrays))}

    def statement(self, name: str) -> ScopStatement:
        for s in self.statements:
            if s.name == name:
                return s
        raise KeyError(f"no statement named {name!r}")

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    # ------------------------------------------------------------------
    # access relations
    # ------------------------------------------------------------------
    def write_relation(self, stmt: ScopStatement) -> PointRelation:
        """Explicit ``Wr`` relation (iterations → encoded cells), cached."""
        return self.access_relation(stmt, AccessKind.WRITE)

    def read_relation(self, stmt: ScopStatement) -> PointRelation:
        """Explicit ``Rd`` relation (iterations → encoded cells), cached."""
        return self.access_relation(stmt, AccessKind.READ)

    def access_relation(
        self, stmt: ScopStatement, kind: AccessKind
    ) -> PointRelation:
        """All of ``stmt``'s accesses of one kind as one relation, cached."""
        # The dependence and pipeline passes request these repeatedly;
        # tabulating an access relation is the analysis' hottest kernel.
        cache: dict = self.__dict__.setdefault("_relation_cache", {})
        key = (stmt.name, kind)
        if key not in cache:
            cache[key] = self._access_relation(stmt, kind)
        return cache[key]

    def _access_relation(
        self, stmt: ScopStatement, kind: AccessKind
    ) -> PointRelation:
        rank = self.mem_rank
        maps = [
            acc.encoded_map(stmt.space, self.array_ids[acc.array], rank)
            for acc in stmt.accesses
            if acc.kind is kind
        ]
        if not maps:
            return PointRelation.empty(stmt.depth, rank + 1)
        # one (point, access) row per cell, canonicalised once
        points = stmt.points.points
        cells = _image(points, maps).reshape(-1, rank + 1)
        rows = np.repeat(points, len(maps), axis=0)
        return PointRelation(np.concatenate([rows, cells], axis=1), stmt.depth)

    # ------------------------------------------------------------------
    def dependence_table(self):
        """The slot of the SCoP's :class:`~repro.scop.deps.DependenceTable`
        (a :class:`~repro.scop.deps.DependenceSlot`): every dependence,
        derived by the first question (:func:`repro.scop.deps.dependences`).
        On the SCoP object, not in the process: compiling a fresh ``Scop``
        costs a first sight of the kernel.  An owner keeping the SCoP
        beyond its compile (a resident server entry) ``clear()``s it; a
        question derives it again."""
        slot = self.__dict__.get("_dependence_table")
        if slot is None:
            from .deps import DependenceSlot

            slot = self.__dict__.setdefault(
                "_dependence_table", DependenceSlot()
            )
        return slot

    # ------------------------------------------------------------------
    def array_extent(self, name: str) -> tuple[tuple[int, int], ...]:
        """Conservative per-dimension (min, max) touched by any access.

        Used by the interpreter and runtime to size backing NumPy arrays.
        One pass per SCoP gives every array's (:meth:`_array_extents`) —
        statement compilation, closure lowering and every ``new_store()``
        ask again.
        """
        extents = self.__dict__.get("_extents")
        if extents is None:
            extents = self.__dict__["_extents"] = self._array_extents()
        return extents[name]

    def _array_extents(self) -> dict[str, tuple[tuple[int, int], ...]]:
        # min/max of the affine image of the domain points, one min and
        # one max per statement over all of its accesses; no relation is
        # tabulated (and none deduplicated) to take bounds
        lows: dict[str, list[int]] = {}
        highs: dict[str, list[int]] = {}
        for stmt in self.statements:
            points = stmt.points.points
            if points.shape[0] == 0:
                continue
            cells = _image(
                points, [acc.index_map(stmt.space) for acc in stmt.accesses]
            )
            mins, maxs = cells.min(axis=0).tolist(), cells.max(axis=0).tolist()
            end = 0
            for acc in stmt.accesses:
                start, end = end, end + acc.rank
                lo, hi = mins[start:end], maxs[start:end]
                lows[acc.array] = list(map(min, lows.get(acc.array, lo), lo))
                highs[acc.array] = list(map(max, highs.get(acc.array, hi), hi))
        return {
            name: tuple(zip(lows[name], highs[name])) if name in lows
            else ((0, 0),) * rank for name, rank in self.arrays.items()
        }

    def __str__(self) -> str:
        lines = [f"Scop with {len(self.statements)} statements:"]
        lines += [f"  {s}" for s in self.statements]
        return "\n".join(lines)


def _image(points: np.ndarray, maps: list) -> np.ndarray:
    """``points`` under every ``(matrix, const)`` of ``maps`` in one
    product: each map's cells in its own columns, in order."""
    cells = points @ np.concatenate([m for m, _ in maps]).T
    cells += np.concatenate([c for _, c in maps])
    return cells
