"""Tasks and task graphs.

A :class:`Task` is one pipeline block (or one chunk of a parallel loop in
the baseline); a :class:`TaskGraph` is the DAG of tasks with precedence
edges.  Graphs are built from the task-annotated AST
(:func:`TaskGraph.from_task_ast`) with two edge families, mirroring the
paper's runtime (Section 5.5):

* *cross-statement* edges from the ``Q_S`` in-dependencies (the
  ``depend(in:…)`` clauses), and
* *self* edges chaining the blocks of each ``chained`` statement in
  lexicographic order (the ``funcCount`` trick of Figure 8 — blocks of
  one loop nest run sequentially).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..schedule.astgen import TaskAst, TaskBlock


@dataclass
class Task:
    """A schedulable unit of work."""

    task_id: int
    statement: str
    block_id: int
    cost: float = 1.0
    block: TaskBlock | None = None
    action: Callable[[], None] | None = None

    def __str__(self) -> str:
        return f"Task#{self.task_id}({self.statement}/{self.block_id}, cost={self.cost:g})"


class CyclicTaskGraphError(ValueError):
    """The dependence edges form a cycle (would deadlock the runtime)."""


class TaskGraph:
    """A DAG of tasks with precedence edges (pred must finish before succ)."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.preds: list[set[int]] = []
        self.succs: list[set[int]] = []

    # ------------------------------------------------------------------
    def add_task(
        self,
        statement: str,
        block_id: int,
        cost: float = 1.0,
        block: TaskBlock | None = None,
        action: Callable[[], None] | None = None,
    ) -> int:
        tid = len(self.tasks)
        self.tasks.append(Task(tid, statement, block_id, cost, block, action))
        self.preds.append(set())
        self.succs.append(set())
        return tid

    def add_edge(self, pred: int, succ: int) -> None:
        if pred == succ:
            raise CyclicTaskGraphError(f"self-edge on task {pred}")
        self.preds[succ].add(pred)
        self.succs[pred].add(succ)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def num_edges(self) -> int:
        return sum(len(p) for p in self.preds)

    def total_cost(self) -> float:
        return float(sum(t.cost for t in self.tasks))

    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Kahn topological order; raises on cycles."""
        indeg = [len(p) for p in self.preds]
        ready = [t for t in range(len(self.tasks)) if indeg[t] == 0]
        order: list[int] = []
        while ready:
            tid = ready.pop()
            order.append(tid)
            for s in self.succs[tid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self.tasks):
            raise CyclicTaskGraphError(
                f"{len(self.tasks) - len(order)} tasks are on a cycle"
            )
        return order

    def validate(self) -> None:
        self.topological_order()

    def longest_paths(self, weights) -> tuple[list, list, list[int]]:
        """``(down, up, parent)`` in one topological walk: the heaviest
        weight-inclusive path into and out of each task, and the
        predecessor ``down`` came through (-1 at an entry; a tie goes to
        the first in topological order)."""
        order = self.topological_order()
        n = len(self.tasks)
        down = [0] * n
        parent = [-1] * n
        for tid in order:
            here = down[tid] = down[tid] + weights[tid]
            for s in self.succs[tid]:
                if here > down[s]:
                    down[s] = here
                    parent[s] = tid
        up = [0] * n
        for tid in reversed(order):
            up[tid] = weights[tid] + max(
                (up[s] for s in self.succs[tid]), default=0
            )
        return down, up, parent

    def critical_path(self) -> tuple[float, list[int]]:
        """Length and one witness path of the longest (cost-weighted) chain."""
        down, _, parent = self.longest_paths([t.cost for t in self.tasks])
        length, path = witness_path(down, parent)
        return float(length), path

    def chain_reach(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reachability in tasks × chains memory (Jagadish's chain
        compression of the transitive closure).

        One topological pass covers the graph with chains: a task
        extends the chain of a predecessor that is still its tail (one
        of the task's own statement first), else starts one.  Task ``t``
        is member ``pos[t]`` of chain ``chain[t]``; ``reach[t, c]`` is
        the last member of chain ``c`` at or before ``t`` (-1: none), so
        ``s`` precedes or is ``t`` iff ``reach[t, chain[s]] >= pos[s]``.
        A chained nest is one chain; an antichain needs one per task.
        """
        order = self.topological_order()
        n = len(self.tasks)
        chain = [0] * n
        pos = [0] * n
        tails: list[int] = []
        for tid in order:
            statement = self.tasks[tid].statement
            pick = -1
            for p in self.preds[tid]:
                if tails[chain[p]] == p:
                    pick = p
                    if self.tasks[p].statement == statement:
                        break
            if pick < 0:
                chain[tid] = len(tails)
                tails.append(tid)
            else:
                chain[tid], pos[tid] = chain[pick], pos[pick] + 1
                tails[chain[tid]] = tid
        reach = np.full((n, len(tails)), -1, dtype=np.int32)
        for tid in order:
            preds = self.preds[tid]
            if len(preds) == 1:
                reach[tid] = reach[next(iter(preds))]
            elif preds:
                reach[tid] = reach[list(preds)].max(axis=0)
            reach[tid, chain[tid]] = pos[tid]
        return np.array(chain), np.array(pos), reach

    # ------------------------------------------------------------------
    @staticmethod
    def from_task_ast(
        ast: TaskAst,
        cost_of_block: Callable[[TaskBlock], float] | None = None,
        plan=None,
        join_cost: float = 1.0,
    ) -> "TaskGraph":
        """Build the pipeline task graph from a task-annotated AST.

        Blocks of a ``chained`` nest run in order; an unchained one (a
        relaxed self chain, or a reduction privatized under a verified
        proof) is ordered by nothing but the tokens its blocks carry.
        A ``plan`` with reduction groups adds one join task per group
        (``block=None``, named by ``join_label``) after the blocks.  The
        edges are :func:`~repro.schedule.astgen.task_edges`' — the ones
        lowering orders the plan's rows by.
        """
        from ..schedule.astgen import task_edges
        from ..schedule.privatize import join_label

        graph = TaskGraph()
        for nest in ast.nests:
            for block in nest.blocks:
                cost = (
                    cost_of_block(block) if cost_of_block else float(block.size)
                )
                graph.add_task(nest.statement, block.block_id, cost, block)
        for group in plan.groups if plan is not None else ():
            graph.add_task(join_label(group.array), 0, cost=join_cost)
        for src, dst in zip(*(e.tolist() for e in task_edges(ast, plan))):
            graph.add_edge(src, dst)
        graph.validate()
        return graph

    def __str__(self) -> str:
        return f"TaskGraph({len(self)} tasks, {self.num_edges} edges)"


def witness_path(down: list, parent: list[int]) -> tuple:
    """``(length, path)`` of the heaviest path ``longest_paths`` found,
    ending at the first greatest ``down``; ``(0, [])`` on no task."""
    if not down:
        return 0, []
    end = max(range(len(down)), key=down.__getitem__)
    path = [end]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return down[end], path[::-1]
