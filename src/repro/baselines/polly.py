"""Polly/Pluto-like baseline: per-loop-nest parallelization.

Models what stock Polly (with Pluto's scheduler) does to the benchmark
kernels of Section 6: each loop nest is examined for dependence-free loop
dimensions; a nest with a parallel dimension is split into ``threads``
chunks executed concurrently, nests run one after another (the implicit
barrier of ``#pragma omp parallel for``).  Nests with no parallel dimension
stay sequential — exactly the situations in which the paper's kernels
defeat Polly.

Tiling/locality effects are not modelled (see DESIGN.md §2): Figure 11 only
needs the baseline's parallelization *decisions* and thread scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..scop import Scop, parallel_levels
from ..tasking import TaskGraph
from .sequential import IterCost


@dataclass(frozen=True)
class PollyDecision:
    """What the baseline decided for one loop nest."""

    nest_index: int
    parallel_level: int | None
    total_cost: float

    @property
    def parallelized(self) -> bool:
        return self.parallel_level is not None


def polly_decisions(
    scop: Scop, cost_of_iters: IterCost
) -> list[PollyDecision]:
    """Per-nest parallelization decisions (outermost parallel level wins)."""
    nests = sorted({s.nest_index for s in scop.statements})
    decisions = []
    for nest in nests:
        levels = parallel_levels(scop, nest)
        cost = 0.0
        for stmt in scop.statements:
            if stmt.nest_index == nest:
                cost += float(cost_of_iters(stmt.name, stmt.points.points).sum())
        decisions.append(
            PollyDecision(nest, levels[0] if levels else None, cost)
        )
    return decisions


def polly_task_graph(
    scop: Scop,
    threads: int,
    cost_of_iters: IterCost,
) -> TaskGraph:
    """Task graph of the Polly-parallelized program.

    Parallel nests become ``threads`` equal chunks (static scheduling of the
    parallel loop); consecutive nests are separated by a full barrier.
    """
    if threads < 1:
        raise ValueError("need at least one thread")
    graph = TaskGraph()
    prev_tasks: list[int] = []
    for dec in polly_decisions(scop, cost_of_iters):
        if dec.parallelized and threads > 1:
            per_chunk = dec.total_cost / threads
            current = [
                graph.add_task(
                    statement=f"nest{dec.nest_index}",
                    block_id=chunk,
                    cost=per_chunk,
                )
                for chunk in range(threads)
            ]
        else:
            current = [
                graph.add_task(
                    statement=f"nest{dec.nest_index}",
                    block_id=0,
                    cost=dec.total_cost,
                )
            ]
        for p in prev_tasks:
            for c in current:
                graph.add_edge(p, c)
        prev_tasks = current
    return graph
