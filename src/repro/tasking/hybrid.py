"""Hybrid parallelism: cross-loop pipelining + intra-nest parallelism.

Section 7 of the paper lists, as future work, combining cross-loop tasking
with "other parallelization opportunities".  The standard task AST
serializes the blocks of every statement (its ``chained`` column),
forgoing the per-loop parallelism Polly exploits on the matmul chains.
:func:`relax_self_chains` rewrites the AST by the *actual* intra-statement
dependences: a statement whose consecutive blocks are not all directly
dependent loses its chain, each block carrying one self-token per
self-dependence reaching it; and since "block ``e`` finished" then no
longer implies "all earlier blocks finished", a token on such a source's
end ``e`` becomes tokens on every source block up to ``e`` (prefix
tokens).  The relaxation is data on the AST and reorders no dependent
pair, so every backend stays bit-identical (``benchmarks/bench_hybrid.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..pipeline import PipelineInfo
from ..presburger import unique_rows
from ..schedule import TaskAst
from ..schedule.astgen import csr_indptr, csr_rows
from ..scop import DepKind, dependence_relation


def intra_block_edges(
    scop, info: PipelineInfo, statement: str
) -> set[tuple[int, int]]:
    """Block-level self-dependence edges of one statement: the pairs
    ``(pred block id, succ block id)``, ``pred < succ``, such that an
    instance of the succ block depends on one of the pred block."""
    stmt, blocking = scop.statement(statement), info.blockings[statement]
    edges: set[tuple[int, int]] = set()
    for kind in DepKind:
        rel = dependence_relation(scop, stmt, stmt, kind)
        if not rel.is_empty():
            pairs = np.sort(np.stack([
                blocking.block_of_rows(rel.out_part),
                blocking.block_of_rows(rel.in_part),
            ], axis=1), axis=1)
            pairs = unique_rows(pairs[pairs[:, 0] != pairs[:, 1]])
            edges.update(map(tuple, pairs.tolist()))
    return edges


def relax_self_chains(scop, info: PipelineInfo, ast: TaskAst) -> TaskAst:
    """``ast`` with every incomplete self chain replaced by self-tokens;
    nests already unchained (privatized members) are left alone.

    A rewrite of the AST's producer CSR: per block, the tokens on a
    relaxed source expand to prefix tokens, then its self-tokens follow
    (ascending source block), each token kept at its first occurrence.
    """
    a = ast.arrays
    relaxed = np.zeros(len(a.statements), dtype=bool)
    selfs = [np.zeros((0, 2), dtype=np.int64)]  # (source, waiting) blocks
    for k, name in enumerate(a.statements):
        edges = intra_block_edges(scop, info, name) if a.chained[k] else {}
        # a chain stays where consecutive blocks are all directly dependent
        if a.chained[k] and not all(
            (j, j + 1) in edges for j in range(len(a.blocks(k)) - 1)
        ):
            relaxed[k] = True
            pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
            selfs.append(a.starts[k] + pairs)
    if not relaxed.any():
        return ast
    # "source ran up to block p" is every block of its nest at or before p
    nest = csr_rows(a.starts)[a.indices]
    low = np.where(relaxed[nest], a.starts[nest], a.indices)
    counts = a.indices - low + 1
    skip = np.repeat(np.cumsum(counts) - counts - low, counts)
    selfs = np.concatenate(selfs)
    src = np.concatenate([np.arange(counts.sum()) - skip, selfs[:, 0]])
    dst = np.concatenate([np.repeat(csr_rows(a.indptr), counts), selfs[:, 1]])
    by_block = np.argsort(dst, kind="stable")
    key = (dst * a.num_blocks + src)[by_block]
    keep = by_block[np.sort(np.unique(key, return_index=True)[1])]
    return TaskAst(replace(
        a,
        chained=tuple(c and not r for c, r in zip(a.chained, relaxed)),
        indptr=csr_indptr(dst[keep], a.num_blocks),
        indices=src[keep].astype(np.int64),
    ))
