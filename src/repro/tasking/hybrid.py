"""Hybrid parallelism: cross-loop pipelining + intra-nest parallelism.

Section 7 of the paper lists, as future work, combining cross-loop tasking
with "other parallelization opportunities".  The standard task AST
serializes the blocks of every statement (``TaskLoopNest.chained``) —
correct, but it forgoes the per-loop parallelism Polly exploits on
kernels like the matmul chains.

:func:`relax_self_chains` rewrites the AST using the *actual*
intra-statement dependences:

* a statement whose consecutive blocks are not all directly dependent
  loses its chain and each block instead carries one self-token per
  (flow/anti/output) self-dependence reaching it — independent blocks
  may run concurrently;
* because "block ``e`` finished" then no longer implies "all earlier blocks
  finished", an in-token on such a source's end ``e`` becomes tokens on
  **every** source block up to ``e`` (prefix tokens).

The relaxation is data on the AST — every consumer reads the one flag and
the tokens — and reorders no dependent pair, so every backend stays
bit-identical.  On the plain matmul chains it recovers Polly's per-nest
parallelism *and* removes its barriers (``benchmarks/bench_hybrid.py``).
"""

from __future__ import annotations

from dataclasses import replace
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


def relax_self_chains(scop, info: PipelineInfo, ast: TaskAst) -> TaskAst:
    """``ast`` with every incomplete self chain replaced by self-tokens;
    nests already unchained (privatized members) are left alone."""
    ends: dict[str, list] = {}  # relaxed statement -> its block ends
    self_tokens: dict[tuple, list] = {}  # by the waiting block's out_token
    for nest in ast.nests:
        if not nest.chained:
            continue
        edges = intra_block_edges(scop, info, nest.statement)
        if all((k, k + 1) in edges for k in range(nest.num_blocks - 1)):
            continue  # consecutive blocks all directly dependent
        ends[nest.statement] = [b.end for b in nest.blocks]
        for a, b in sorted(edges):
            self_tokens.setdefault(nest.blocks[b].out_token, []).append(
                nest.blocks[a].out_token
            )
    if not ends:
        return ast

    def tokens_of(block) -> tuple:
        tokens: list = []
        for src, end in block.in_tokens:
            prefix = ends.get(src, [end])
            # "source ran up to end" is every block at or before it
            tokens += [(src, e) for e in prefix[: prefix.index(end) + 1]]
        tokens += self_tokens.get(block.out_token, ())
        return tuple(dict.fromkeys(tokens))

    return TaskAst(tuple(
        replace(
            nest,
            chained=nest.chained and nest.statement not in ends,
            blocks=tuple(
                replace(b, in_tokens=tokens_of(b)) for b in nest.blocks
            ),
        )
        for nest in ast.nests
    ))


def hybrid_task_graph(
    scop,
    info: PipelineInfo,
    ast: TaskAst | None = None,
    cost_of_block: Callable[[TaskBlock], float] | None = None,
) -> TaskGraph:
    """Task graph combining pipeline dependencies with relaxed self-chains."""
    ast = ast if ast is not None else generate_task_ast(info)
    return TaskGraph.from_task_ast(
        relax_self_chains(scop, info, ast), cost_of_block=cost_of_block
    )
