"""Hybrid parallelism: cross-loop pipelining + intra-nest parallelism.

Section 7 of the paper lists, as future work, combining cross-loop tasking
with "other parallelization opportunities".  The standard pipeline task
graph (:meth:`TaskGraph.from_task_ast`) serializes the blocks of every
statement — correct, but it forgoes the per-loop parallelism Polly exploits
on kernels like the matmul chains.

:func:`hybrid_task_graph` relaxes that chain using the *actual*
intra-statement dependences:

* blocks of a statement are chained only where a (flow/anti/output)
  self-dependence connects them — independent blocks may run concurrently;
* because "block ``e`` finished" then no longer implies "all earlier blocks
  finished", a cross-statement in-dependency on source end ``e`` becomes
  edges from **every** source block up to ``e`` (prefix edges), unless the
  source's own chain is complete, in which case the single edge suffices.

On the plain matmul chains this recovers Polly's per-nest parallelism *and*
removes Polly's inter-nest barriers, strictly dominating both strategies in
the simulator (see ``benchmarks/bench_hybrid.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..pipeline import PipelineInfo
from ..presburger import unique_rows
from ..schedule import TaskAst, TaskBlock, generate_task_ast
from ..scop import DepKind, dependence_relation
from .task import TaskGraph


def intra_block_edges(
    scop, info: PipelineInfo, statement: str
) -> set[tuple[int, int]]:
    """Block-level self-dependence edges of one statement.

    Returns pairs ``(pred block id, succ block id)`` with ``pred < succ``
    such that some instance of the succ block depends on an instance of the
    pred block (any dependence class).
    """
    stmt = scop.statement(statement)
    blocking = info.blockings[statement]
    edges: set[tuple[int, int]] = set()
    for kind in DepKind:
        rel = dependence_relation(scop, stmt, stmt, kind)
        if rel.is_empty():
            continue
        src_blocks = blocking.block_of_rows(rel.out_part)
        tgt_blocks = blocking.block_of_rows(rel.in_part)
        pairs = unique_rows(np.stack([src_blocks, tgt_blocks], axis=1))
        for a, b in pairs.tolist():
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return edges


def has_complete_chain(num_blocks: int, edges: set[tuple[int, int]]) -> bool:
    """True when consecutive blocks are all directly dependent."""
    return all((k, k + 1) in edges for k in range(num_blocks - 1))


def hybrid_task_graph(
    scop,
    info: PipelineInfo,
    ast: TaskAst | None = None,
    cost_of_block: Callable[[TaskBlock], float] | None = None,
) -> TaskGraph:
    """Task graph combining pipeline dependencies with relaxed self-chains."""
    ast = ast if ast is not None else generate_task_ast(info)
    graph = TaskGraph()
    token_to_task: dict[tuple[str, tuple[int, ...]], int] = {}
    stmt_tasks: dict[str, list[int]] = {}
    stmt_chain_complete: dict[str, bool] = {}

    for nest in ast.nests:
        tids: list[int] = []
        for block in nest.blocks:
            cost = cost_of_block(block) if cost_of_block else float(block.size)
            tid = graph.add_task(nest.statement, block.block_id, cost, block)
            token_to_task[block.out_token] = tid
            tids.append(tid)
        stmt_tasks[nest.statement] = tids

        edges = intra_block_edges(scop, info, nest.statement)
        stmt_chain_complete[nest.statement] = has_complete_chain(
            len(tids), edges
        )
        if stmt_chain_complete[nest.statement]:
            for prev, nxt in zip(tids, tids[1:]):
                graph.add_edge(prev, nxt)
        else:
            for a, b in edges:
                graph.add_edge(tids[a], tids[b])

    for nest in ast.nests:
        for block in nest.blocks:
            tid = token_to_task[block.out_token]
            for src_name, end in block.in_tokens:
                src_tid = token_to_task[(src_name, end)]
                if stmt_chain_complete[src_name]:
                    graph.add_edge(src_tid, tid)
                else:
                    # prefix edges: the requirement is "source ran up to
                    # end", which without a complete chain means every
                    # source block at or before it.
                    src_block = graph.tasks[src_tid].block_id
                    for k in range(src_block + 1):
                        graph.add_edge(stmt_tasks[src_name][k], tid)
    graph.validate()
    return graph
