"""Nest-level pattern detectors: do-all, reduction, geometric decomposition.

These reuse the dependence evidence the partition pass already computed —
no pattern is claimed without the relations backing it:

* **do-all** — the nest carries no dependence at all; every iteration is
  independent.
* **reduction** — every carried dependence is reduction-carried, so the
  nest parallelizes once its accumulators are privatized.
* **geometric-decomposition** — every *true* (non-relaxable) dependence
  has a short constant distance vector, the uniform-dependence shape that
  block decomposition with halo exchange handles: partition the
  iteration space into contiguous blocks and only block boundaries
  communicate.
* **irregular** — anything else (long-range or non-uniform distances).

The geometric thresholds are conservative: at most
:data:`GEOMETRIC_MAX_DISTANCES` distinct distance vectors, each
component at most :data:`GEOMETRIC_MAX_RADIUS` in magnitude.  A reversal
like ``A[N-1-i]`` produces O(N) distinct distances and is rejected.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ...presburger import unique_rows
from ...scop import Scop, ScopStatement
from ...scop.deps import parallel_levels
from .partition import DependencePartition, PairKey
from .reduction import ReductionSpec

#: distinct dependence distance vectors a geometric nest may have
GEOMETRIC_MAX_DISTANCES = 8
#: largest |component| of a geometric dependence distance
GEOMETRIC_MAX_RADIUS = 4


class NestPattern(enum.Enum):
    DO_ALL = "do-all"
    REDUCTION = "reduction"
    GEOMETRIC = "geometric-decomposition"
    IRREGULAR = "irregular"


@dataclass(frozen=True)
class NestPatternReport:
    """Pattern classification of one loop nest, with its evidence."""

    nest_index: int
    pattern: NestPattern
    statements: tuple[str, ...]
    #: dependence-free loop levels (Polly-style per-level parallelism)
    parallel_levels: tuple[int, ...]
    #: instance pairs carried inside the nest / relaxable part of them
    carried_pairs: int
    reduction_carried_pairs: int
    #: distinct dependence distance vectors of the true dependences
    #: (only populated when they are all constant and short)
    distances: tuple[tuple[int, ...], ...]
    reasons: tuple[str, ...]

    def describe(self) -> str:
        return f"nest {self.nest_index}: {self.pattern.value}"

    def to_dict(self) -> dict:
        return {
            "nest": self.nest_index,
            "pattern": self.pattern.value,
            "statements": list(self.statements),
            "parallel_levels": list(self.parallel_levels),
            "carried_pairs": self.carried_pairs,
            "reduction_carried_pairs": self.reduction_carried_pairs,
            "distances": [list(d) for d in self.distances],
            "reasons": list(self.reasons),
        }


def detect_nest_patterns(
    scop: Scop,
    specs: dict[str, ReductionSpec],
    partitions: dict[PairKey, DependencePartition],
) -> tuple[NestPatternReport, ...]:
    """Classify every loop nest of the SCoP."""
    nests: dict[int, list[ScopStatement]] = {}
    for stmt in scop.statements:
        nests.setdefault(stmt.nest_index, []).append(stmt)
    return tuple(
        _classify_nest(scop, index, stmts, specs, partitions)
        for index, stmts in sorted(nests.items())
    )


def _classify_nest(
    scop: Scop,
    nest_index: int,
    stmts: list[ScopStatement],
    specs: dict[str, ReductionSpec],
    partitions: dict[PairKey, DependencePartition],
) -> NestPatternReport:
    names = {s.name for s in stmts}
    parts = [
        p
        for p in partitions.values()
        if p.source in names and p.target in names
    ]
    carried = sum(len(p.full) for p in parts)
    relaxable = sum(len(p.reduction_carried) for p in parts)
    levels = tuple(parallel_levels(scop, nest_index))
    ordered_names = tuple(s.name for s in stmts)

    if carried == 0:
        return NestPatternReport(
            nest_index, NestPattern.DO_ALL, ordered_names, levels, 0, 0, (),
            ("no intra-nest dependence; every iteration is independent",),
        )

    if all(p.residual.is_empty() for p in parts):
        accs = sorted({specs[n].array for n in names if n in specs})
        return NestPatternReport(
            nest_index, NestPattern.REDUCTION, ordered_names, levels,
            carried, relaxable, (),
            (
                f"all {carried} carried pair(s) are reduction-carried; "
                f"privatizing {', '.join(repr(a) for a in accs)} makes "
                "the nest do-all",
            ),
        )

    distances = _uniform_distances(stmts, parts)
    if distances is not None:
        return NestPatternReport(
            nest_index, NestPattern.GEOMETRIC, ordered_names, levels,
            carried, relaxable, distances,
            (
                f"every true dependence has a constant distance vector "
                f"({len(distances)} distinct, max radius "
                f"{max(abs(c) for d in distances for c in d)}); block "
                "decomposition with halo exchange applies",
            ),
        )

    return NestPatternReport(
        nest_index, NestPattern.IRREGULAR, ordered_names, levels,
        carried, relaxable, (),
        (
            "true dependences have non-uniform or long-range distances; "
            "no portfolio pattern applies",
        ),
    )


def _uniform_distances(
    stmts: list[ScopStatement],
    parts: list[DependencePartition],
) -> tuple[tuple[int, ...], ...] | None:
    """Distinct distance vectors of the true dependences, or ``None``.

    ``None`` when any residual relation connects statements of different
    depth (no common distance space) or the distances fail the
    short-constant criterion.
    """
    depth = {s.name: s.depth for s in stmts}
    seen: set[tuple[int, ...]] = set()
    for part in parts:
        if part.residual.is_empty():
            continue
        if depth[part.source] != depth[part.target]:
            return None
        # residual maps target iterations to source iterations; the
        # distance is target - source (how far ahead the consumer sits)
        deltas = part.residual.in_part - part.residual.out_part
        for row in unique_rows(deltas):
            seen.add(tuple(int(v) for v in row))
    if not seen or len(seen) > GEOMETRIC_MAX_DISTANCES:
        return None
    if any(abs(c) > GEOMETRIC_MAX_RADIUS for d in seen for c in d):
        return None
    return tuple(sorted(seen))
