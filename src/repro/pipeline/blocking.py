"""Pipeline blocking maps (Section 4.2 of the paper).

A *blocking map* partitions a statement's iteration domain into contiguous
lexicographic intervals ("blocks"), mapping every iteration to the largest
iteration of its block (the *block end*).  Block ends come from the pipeline
maps: the domain of ``T_{S,T}`` for S as source, the range for T as target.
Iterations after the last end form a final block ending at the domain's
lexicographic maximum (the paper's left-over rule).

Equation 3 combines all blocking maps of one statement by a pointwise
``lexmin``; because each blocking map sends ``x`` to the smallest end
``>= x`` of its own end set, the pointwise minimum equals blocking by the
*union* of all end sets — which is how :func:`blocking_from_end_sets`
computes it (and what the property tests verify against the literal
definition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..presburger import PointRelation, PointSet, joint_ranks
from .pipeline_map import PipelineMap


@dataclass(frozen=True)
class Blocking:
    """A blocking map over one statement's iteration domain."""

    statement: str
    #: total map: iteration -> block end (lex-largest iteration of its block)
    mapping: PointRelation

    def __post_init__(self) -> None:
        if not self.mapping.is_single_valued():
            raise AssertionError("blocking map must be single-valued")

    @cached_property
    def ends(self) -> PointSet:
        """The block ends, in lexicographic (execution) order."""
        return self.mapping.range()

    @property
    def num_blocks(self) -> int:
        return len(self.ends)

    def block_of_rows(self, iters: np.ndarray) -> np.ndarray:
        """Dense block ids for an array of iterations of this statement.

        Vectorized: rank-join the iterations against the (sorted) blocking
        map, then rank the resulting ends against the end table.
        """
        iters = np.asarray(iters, dtype=np.int64)
        if iters.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        keys, queries = joint_ranks(self.mapping.in_part, iters)
        idx = np.searchsorted(keys, queries)
        if np.any(idx >= len(keys)) or np.any(keys[idx % len(keys)] != queries):
            raise KeyError("some iterations are outside the blocked domain")
        ends = self.mapping.out_part[idx]
        end_keys, end_queries = joint_ranks(self.ends.points, ends)
        return np.searchsorted(end_keys, end_queries)

    def grouped_iterations(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, bounds)``: every iteration grouped by block (one
        vectorized grouping, lexicographic order inside each block), block
        ``k``'s being ``rows[bounds[k]:bounds[k + 1]]`` — the task-AST
        generator's hot path."""
        ids = self.block_of_rows(self.mapping.in_part)
        order = np.argsort(ids, kind="stable")  # keeps lex order per block
        bounds = np.searchsorted(ids[order], np.arange(self.num_blocks + 1))
        return self.mapping.in_part[order], bounds

    def coarsened(self, factor: int) -> "Blocking":
        """Merge every ``factor`` consecutive blocks into one.

        The surviving ends are every ``factor``-th end (keeping the last),
        so each merged block still ends at one of the original ends — block
        requirements stay valid, blocks just get coarser (the task
        granularity knob the paper lists as future work).
        """
        if factor < 1:
            raise ValueError("coarsening factor must be >= 1")
        if factor == 1 or self.num_blocks == 0:
            return self
        keep = self.ends.points[factor - 1 :: factor]
        last = self.ends.points[-1:]
        ends = PointSet(np.concatenate([keep, last], axis=0))
        domain = self.mapping.domain()
        coarse = blocking_from_ends(self.statement, domain, ends)
        # The coarse map must repartition exactly the original domain with
        # a subset of the original ends (so block requirements derived for
        # parameterized sizes stay dominated); cheap invariants guard
        # every ``coarsen`` a detection is asked for.
        if coarse.mapping.domain() != domain:
            raise AssertionError(
                f"coarsened({factor}) changed the domain of "
                f"{self.statement}"
            )
        if len(coarse.ends.difference(self.ends)):
            raise AssertionError(
                f"coarsened({factor}) invented block ends for "
                f"{self.statement}"
            )
        return coarse

    def __str__(self) -> str:
        return (
            f"Blocking({self.statement}: {self.num_blocks} blocks over "
            f"{len(self.mapping)} iterations)"
        )


def blocking_from_ends(
    statement: str, domain: PointSet, ends: PointSet
) -> Blocking:
    """Blocking map sending each iteration to the smallest end ``>=`` it.

    Iterations beyond the last end are folded into a final block ending at
    ``lexmax(domain)``.
    """
    if domain.is_empty():
        return Blocking(statement, PointRelation.empty(domain.ndim, domain.ndim))
    # Ends outside the domain would create blocks no iteration belongs to;
    # restrict defensively (pipeline anchors always lie in the domain).
    ends = ends.intersect(domain)
    top = np.asarray([domain.lexmax()], dtype=np.int64)
    if len(ends) == 0:
        table = top
        idx = np.zeros(len(domain), dtype=np.int64)
    else:
        idx = domain.first_geq(ends)
        # Append the fallback top end for iterations past the last end.
        if np.any(idx == len(ends)) and not ends.contains(domain.lexmax()):
            table = np.concatenate([ends.points, top], axis=0)
        else:
            table = ends.points
            idx = np.minimum(idx, len(ends) - 1)
    mapping = PointRelation.from_arrays(domain.points, table[idx])
    return Blocking(statement, mapping)


def target_blocking(
    statement: str, domain: PointSet, pmap: PipelineMap
) -> Blocking:
    """Blocking of the *target* statement of a pipeline map (ends = Range T)."""
    return blocking_from_ends(statement, domain, pmap.relation.range())


def blocking_from_end_sets(
    statement: str, domain: PointSet, end_sets: list[PointSet]
) -> Blocking:
    """Equation 3 from the end sets alone, no blocking map per set.

    A blocking map of one end set adds the left-over end ``lexmax(domain)``
    when the set stops short of it; the union stops short exactly when
    every set does, and :func:`blocking_from_ends` adds the same end then.
    """
    ends = end_sets[0] if end_sets else PointSet.empty(domain.ndim)
    for more in end_sets[1:]:
        ends = ends.union(more)
    return blocking_from_ends(statement, domain, ends)
