"""Discrete-event simulation of task-graph execution.

The performance substitute for the paper's quad-core OpenMP runs (see
DESIGN.md §2): a deterministic greedy list scheduler executes a
:class:`~repro.tasking.task.TaskGraph` on ``workers`` identical workers.
A task becomes ready when all predecessors finished; ready tasks start as
soon as a worker is free, in creation order (FIFO, OpenMP-like) or most
recently enabled first (LIFO, Cilk-like work stealing) — the scheduler
policy is an ablation axis.

Per-task creation/dispatch overhead models the ``omp task`` cost the paper
mentions when discussing granularity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .task import TaskGraph


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulated execution."""

    makespan: float
    start: np.ndarray
    finish: np.ndarray
    worker: np.ndarray
    workers: int
    policy: str

    def speedup_vs(self, sequential_time: float) -> float:
        if self.makespan == 0:
            return float("inf") if sequential_time > 0 else 1.0
        return sequential_time / self.makespan

    def utilization(self) -> float:
        busy = float((self.finish - self.start).sum())
        if self.makespan == 0:
            return 1.0
        return busy / (self.makespan * self.workers)


def simulate(
    graph: TaskGraph,
    workers: int,
    overhead: float = 0.0,
    policy: str = "fifo",
) -> SimResult:
    """Simulate list-scheduled execution of the task graph.

    Parameters
    ----------
    graph:
        The task DAG; task costs are in abstract time units.
    workers:
        Number of identical workers (cores/threads).
    overhead:
        Added to every task's cost (task creation + dispatch).
    policy:
        ``"fifo"`` — ready tasks start in task-creation order;
        ``"lifo"`` — most recently enabled task starts first;
        ``"cp"``  — highest critical-path-to-exit priority first
        (HEFT-style upward rank on uniform workers).
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    if policy not in ("fifo", "lifo", "cp"):
        raise ValueError(f"unknown policy {policy!r}")
    from ..obs.spans import span

    with span("tasking.simulate", workers=workers, policy=policy):
        return _simulate(graph, workers, overhead, policy)


def _simulate(
    graph: TaskGraph, workers: int, overhead: float, policy: str
) -> SimResult:
    n = len(graph)
    cost = graph.costs.tolist()
    start = np.zeros(n)
    finish = np.zeros(n)
    assigned = np.full(n, -1, dtype=np.int64)

    indeg = np.diff(graph.indptr).tolist()
    counter = 0
    ready: list[tuple[float, int]] = []  # (priority, task id)

    if policy == "cp":
        # Upward rank: longest cost-weighted path from each task to an exit.
        _, rank, _ = graph.longest_paths(cost)

    def push(tid: int) -> None:
        nonlocal counter
        if policy == "fifo":
            key = float(tid)
        elif policy == "lifo":
            key = float(-counter)
        else:  # cp: highest rank first, creation order tie-break
            key = (-rank[tid], tid)  # type: ignore[assignment]
        counter += 1
        heapq.heappush(ready, (key, tid))

    for tid in range(n):
        if indeg[tid] == 0:
            push(tid)

    running: list[tuple[float, int, int]] = []  # (finish time, task, worker)
    free_workers = list(range(workers - 1, -1, -1))
    now = 0.0
    completed = 0

    while completed < n:
        while ready and free_workers:
            _, tid = heapq.heappop(ready)
            w = free_workers.pop()
            start[tid] = now
            finish[tid] = now + cost[tid] + overhead
            assigned[tid] = w
            heapq.heappush(running, (finish[tid], tid, w))
        if not running:
            raise RuntimeError("deadlock: no ready tasks and none running")
        # Drain all completions at the next instant before assigning.
        now = running[0][0]
        while running and running[0][0] == now:
            _, tid, w = heapq.heappop(running)
            free_workers.append(w)
            completed += 1
            for s in graph.succs[tid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    push(s)

    return SimResult(
        makespan=float(finish.max(initial=0.0)),
        start=start,
        finish=finish,
        worker=assigned,
        workers=workers,
        policy=policy,
    )


def scaling_curve(
    graph: TaskGraph,
    workers: tuple[int, ...] = (1, 2, 4, 8, 16),
    overhead: float = 0.0,
    policy: str = "fifo",
) -> dict[int, float]:
    """Strong-scaling speed-ups over a range of worker counts.

    Returns ``{worker count: speed-up vs the task-free sequential run}``.
    The curve plateaus at ``total / critical_path`` — for pipeline graphs,
    at the number of overlappable loop nests (Section 4.4).
    """
    base = graph.total_cost()
    return {
        w: simulate(graph, w, overhead, policy).speedup_vs(base)
        for w in workers
    }
