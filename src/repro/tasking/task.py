"""Tasks and task graphs.

A :class:`Task` is one pipeline block (or one chunk of a parallel loop in
the baseline); a :class:`TaskGraph` is the DAG of tasks with precedence
edges.  Built from the task-annotated AST, a graph has the two edge
families of the paper's runtime (Section 5.5): *cross-statement* edges
from the ``Q_S`` in-dependencies (the ``depend(in:…)`` clauses), and
*self* edges chaining the blocks of each ``chained`` statement in
lexicographic order (the ``funcCount`` trick of Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Iterator, Sequence

import numpy as np

from ..schedule.astgen import TaskAst, TaskBlock, csr_indptr, csr_rows


@dataclass
class Task:
    """A schedulable unit of work (a view of one task of a graph)."""

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
    """A DAG of tasks with precedence edges (pred must finish before succ).

    Columns, one entry per task: ``statement_ids`` (into ``labels``),
    ``block_ids`` and ``costs``; the predecessors as CSR, ascending
    ``indices[indptr[t]:indptr[t + 1]]``.  :class:`Task` objects and
    ``preds`` / ``succs`` sets are views, built on first read for
    renderers, the simulator and tests.  :meth:`add_task` /
    :meth:`add_edge` build a graph by hand (an edge joins the CSR when
    it is next read).
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.statement_ids = self.block_ids = np.zeros(0, np.int64)
        self.costs = np.zeros(0)
        self._indptr, self._indices = np.zeros(1, np.int64), self.block_ids
        self._new_edges: list[tuple[int, int]] = []
        self._given: dict[int, tuple] = {}  # tid -> add_task's (block, action)
        self._ast: TaskAst | None = None  # whose blocks tasks 0.. run
        self._tasks: list[Task] = []
        self._adjacency: tuple | None = None
        self._chain_reach: tuple | None = None

    def add_task(
        self,
        statement: str,
        block_id: int,
        cost: float = 1.0,
        block: TaskBlock | None = None,
        action: Callable[[], None] | None = None,
    ) -> int:
        tid = len(self)
        if statement not in self.labels:
            self.labels.append(statement)
        code = self.labels.index(statement)
        self.statement_ids = np.append(self.statement_ids, code)
        self.block_ids = np.append(self.block_ids, block_id)
        self.costs = np.append(self.costs, cost)
        self._indptr = np.append(self._indptr, self._indptr[-1])
        self._adjacency = self._chain_reach = None
        if block is not None or action is not None:
            self._given[tid] = (block, action)
        return tid

    def add_edge(self, pred: int, succ: int) -> None:
        if pred == succ:
            raise CyclicTaskGraphError(f"self-edge on task {pred}")
        self._new_edges.append((pred, succ))
        self._chain_reach = None

    @property
    def indptr(self) -> np.ndarray:
        if self._new_edges:
            src, dst = np.array(self._new_edges, dtype=np.int64).T
            self._new_edges = []
            self._set_preds(
                np.append(self._indices, src),
                np.append(csr_rows(self._indptr), dst),
            )
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        self.indptr  # merges the added edges
        return self._indices

    def _set_preds(self, src: np.ndarray, dst: np.ndarray) -> None:
        """The CSR of the edges ``src[i] -> dst[i]`` (duplicates collapse)."""
        n = max(len(self), 1)
        key = np.sort(dst * n + src)
        dst, self._indices = np.divmod(key[np.diff(key, prepend=-1) > 0], n)
        self._indptr = csr_indptr(dst, len(self))
        self._adjacency = self._chain_reach = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.statement_ids)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def total_cost(self) -> float:
        return float(sum(self.costs.tolist()))

    @property
    def tasks(self) -> list[Task]:
        """One :class:`Task` per task: a view built on first read (again
        once tasks are added), so an ``action`` set on one stays."""
        if len(self._tasks) != len(self):
            blocks = self._ast.all_blocks() if self._ast is not None else []
            blocks += [None] * (len(self) - len(blocks))
            self._tasks = [
                Task(tid, self.labels[code], block_id, cost,
                     *self._given.get(tid, (blocks[tid], None)))
                for tid, (code, block_id, cost) in enumerate(zip(
                    self.statement_ids.tolist(), self.block_ids.tolist(),
                    self.costs.tolist(),
                ))
            ]
        return self._tasks

    @property
    def preds(self) -> list[set[int]]:
        """Per task, the set of tasks it waits on (a view)."""
        if self._adjacency is None:
            ptr, ids = self.indptr.tolist(), self._indices.tolist()
            preds = [set(ids[ptr[t] : ptr[t + 1]]) for t in range(len(self))]
            succs: list[set[int]] = [set() for _ in preds]
            for tid, ps in enumerate(preds):
                for p in ps:
                    succs[p].add(tid)
            self._adjacency = preds, succs
        return self._adjacency[0]

    @property
    def succs(self) -> list[set[int]]:
        """Per task, the set of tasks waiting on it (a view)."""
        self.preds  # builds both views
        return self._adjacency[1]

    # ------------------------------------------------------------------
    def topological_order(self) -> list[int]:
        """A topological order; raises on cycles.  Creation order when
        every edge points forward (a graph of a task AST)."""
        if np.all(self.indices < csr_rows(self.indptr)):
            return list(range(len(self)))
        try:
            preds = dict(enumerate(self.preds))
            return list(TopologicalSorter(preds).static_order())
        except CycleError as exc:
            raise CyclicTaskGraphError(f"cycle: {exc.args[1]}") from None

    def validate(self) -> None:
        self.topological_order()

    def longest_paths(self, weights) -> tuple[list, list, list[int]]:
        """``(down, up, parent)`` in one topological walk each way: the
        heaviest weight-inclusive path into and out of each task, and the
        predecessor ``down`` came through (-1 at an entry; a tie goes to
        the lowest task id)."""
        order = self.topological_order()
        ptr, ids = self.indptr.tolist(), self._indices.tolist()
        down, up = [0] * len(order), [0] * len(order)
        parent = [-1] * len(order)
        for tid in order:
            for p in ids[ptr[tid] : ptr[tid + 1]]:
                if down[p] > down[tid]:
                    down[tid], parent[tid] = down[p], p
            down[tid] += weights[tid]
        for tid in reversed(order):  # up starts as the successors' max
            up[tid] += weights[tid]
            for p in ids[ptr[tid] : ptr[tid + 1]]:
                up[p] = max(up[p], up[tid])
        return down, up, parent

    def critical_path(self) -> tuple[float, list[int]]:
        """Length and one witness path of the longest (cost-weighted) chain."""
        down, _, parent = self.longest_paths(self.costs.tolist())
        length, path = witness_path(down, parent)
        return float(length), path

    def chain_reach(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reachability in tasks × chains memory (Jagadish's chain
        compression of the transitive closure).  One topological pass
        covers the graph with chains: a task extends the chain of a
        predecessor still at its tail (one of its own statement first),
        else starts one.  Task ``t`` is member ``pos[t]`` of chain
        ``chain[t]``; ``reach[t, c]`` is the last member of chain ``c`` at
        or before ``t`` (-1: none; the smallest signed dtype the longest
        chain fits), so ``s`` precedes or is ``t`` iff
        ``reach[t, chain[s]] >= pos[s]``.  A chained nest is one chain,
        filled as one (:meth:`_chain_runs`); only other tasks take a
        step each (:meth:`_walk`).  Computed once per graph
        (``add_task`` / ``add_edge`` forget it); the arrays are
        read-only.
        """
        if self._chain_reach is None:
            self._chain_reach = self._chain_cover()
            for array in self._chain_reach:
                array.flags.writeable = False
        return self._chain_reach

    def _chain_runs(self) -> list[tuple[Sequence[int], bool]]:
        """The tasks in topological order, cut into runs: ``(tids,
        whole)``, where a *whole* run is a statement's tasks ``a..b-1``
        in creation order that form one chain (task ``t > a`` waits on
        ``t - 1``) and wait on no other task of theirs or later."""
        n = len(self)
        rows = csr_rows(self.indptr)
        if n == 0:
            return []
        if not np.all(self._indices < rows):  # not in creation order
            return [(self.topological_order(), False)]
        stmt = self.statement_ids
        cuts = [0, *(np.flatnonzero(np.diff(stmt)) + 1).tolist(), n]
        runs = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            lo, hi = self.indptr[a], self.indptr[b]
            preds, waiting = self._indices[lo:hi], rows[lo:hi]
            inside = preds >= a
            whole = (
                np.array_equal(waiting[inside], np.arange(a + 1, b))
                and np.array_equal(preds[inside], np.arange(a, b - 1))
                and not np.any(stmt[preds[~inside]] == stmt[a])
            )
            runs.append((range(a, b), whole))
        return runs

    def _chain_cover(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        runs = self._chain_runs()
        ptr, ids = self.indptr.tolist(), self._indices.tolist()
        stmt = self.statement_ids.tolist()
        chain, pos = [0] * len(self), [0] * len(self)
        tails: list[int] = []
        for tids, whole in runs:
            # a whole run's later tasks each extend their predecessor
            for tid in tids[:1] if whole else tids:
                pick = -1
                for p in ids[ptr[tid] : ptr[tid + 1]]:
                    if tails[chain[p]] == p:
                        pick = p
                        if stmt[p] == stmt[tid]:
                            break
                if pick < 0:
                    chain[tid] = len(tails)
                    tails.append(tid)
                else:
                    chain[tid], pos[tid] = chain[pick], pos[pick] + 1
                    tails[chain[tid]] = tid
            if whole:
                a, b = tids[0], tids[-1] + 1
                chain[a:b] = [chain[a]] * (b - a)
                pos[a:b] = range(pos[a], pos[a] + b - a)
                tails[chain[a]] = b - 1
        dtype = np.min_scalar_type(-max(pos, default=0) - 1)
        reach = np.full((len(self), len(tails)), -1, dtype=dtype)
        for tids, whole in runs:
            if whole:
                self._fill_chain(reach, tids[0], tids[-1] + 1, chain, pos)
            else:
                self._walk(reach, tids, chain, pos, ptr, ids)
        chain_ids = np.array(chain, dtype=np.int64)
        return chain_ids, np.array(pos, dtype=np.int64), reach

    def _fill_chain(self, reach, a: int, b: int, chain, pos) -> None:
        """``reach`` of a whole run ``a..b-1``: per task the maximum over
        its predecessors outside the run (one ``reduceat``), then the
        running maximum down the chain (one ``accumulate``)."""
        lo, hi = self.indptr[a], self.indptr[b]
        preds = self._indices[lo:hi]
        cross = preds < a
        preds, waiting = preds[cross], csr_rows(self.indptr[a : b + 1])[cross]
        block = np.full((b - a, reach.shape[1]), -1, dtype=reach.dtype)
        if len(preds):
            starts = np.flatnonzero(np.diff(waiting, prepend=-1))
            block[waiting[starts]] = np.maximum.reduceat(
                reach[preds], starts, axis=0
            )
        np.maximum.accumulate(block, axis=0, out=block)
        block[np.arange(b - a), chain[a]] = pos[a:b]
        reach[a:b] = block

    def _walk(self, reach, tids: Sequence[int], chain, pos, ptr, ids) -> None:
        """``reach`` of the tasks ``tids``, one step each (``ptr`` /
        ``ids``: the CSR as lists)."""
        for tid in tids:
            lo, hi = ptr[tid], ptr[tid + 1]
            if hi - lo == 1:
                reach[tid] = reach[ids[lo]]
            elif hi > lo:
                reach[tid] = reach[self._indices[lo:hi]].max(axis=0)
            reach[tid, chain[tid]] = pos[tid]

    # ------------------------------------------------------------------
    @staticmethod
    def from_task_ast(
        ast: TaskAst,
        cost_of_block: Callable[[TaskBlock], float] | None = None,
    ) -> "TaskGraph":
        """The pipeline task graph of a task-annotated AST: one task per
        block, then one join task per join row (no block, named by
        ``join_label``, cost 1).  The edges are the AST's own
        (:attr:`~repro.schedule.astgen.TaskAst.edges`) — the ones
        lowering orders the plan's rows by.  Costs are block sizes; a
        ``cost_of_block`` reads the AST's task loop nests instead.
        """
        from ..schedule.privatize import join_label

        a, graph = ast.arrays, TaskGraph()
        graph.labels = [*a.statements, *(join_label(j.array) for j in a.joins)]
        nest = csr_rows(a.starts)  # per block, its nest: its label
        joins = np.arange(len(a.statements), len(graph.labels))
        graph.statement_ids = np.append(nest, joins)
        blocks = np.arange(len(nest)) - a.starts[nest]
        graph.block_ids = np.append(blocks, np.zeros_like(joins))
        costs = a.shapes[:, 0] if cost_of_block is None else [
            cost_of_block(b) for b in ast.all_blocks()
        ]
        graph.costs = np.append(costs, np.ones(len(joins))).astype(float)
        graph._set_preds(*ast.edges)
        graph._ast = ast
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
