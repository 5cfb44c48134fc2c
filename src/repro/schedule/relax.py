"""One relaxation consumer: the evidence that reorders a task AST's
blocks, written into its :class:`~repro.schedule.astgen.TaskArrays`, so
the task graph, lowering and the store read the relaxed AST alone.

* *hybrid* (Section 7's "other parallelization opportunities"): a
  statement whose consecutive blocks are not all directly dependent
  loses its chain; its blocks wait on their own statement's blocks they
  depend on (self tokens), and a token on its block ``p`` moves to its
  *frontier* at ``p``: the blocks ``b <= p`` with no self successor
  ``<= p``.  Every other block ``<= p`` reaches one of them, so the
  graph orders what tokens on every block up to ``p`` would.
* *privatization* (Doerfert et al., "Polly's Polyhedral Scheduling in
  the Presence of Reductions"): a verified group's members lose their
  chain and the group gets one join row waiting on every member block.
  Join rows come only from a verified plan; the store never holds them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..presburger import unique_rows
from ..scop import DepKind, dependence_relation
from .astgen import JoinRow, TaskAst, csr_indptr, csr_rows


def intra_block_edges(scop, info, statement: str) -> set[tuple[int, int]]:
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


def relax(
    scop, info, ast: TaskAst, *, hybrid: bool = False, plan=None
) -> TaskAst:
    """``ast`` relaxed by a verified ``plan`` (its members unchained, its
    join rows replacing the AST's), then by ``hybrid`` (module
    docstring; self tokens follow a block's other tokens, each token
    kept at its first occurrence); ``ast`` itself when nothing changes.
    Only ``hybrid`` reads ``scop`` and ``info``."""
    a = ast.arrays
    chained = np.array(a.chained, dtype=bool)
    joins = a.joins
    if plan is not None:
        chained &= ~np.isin(a.statements, list(plan.statements))
        joins = tuple(
            JoinRow(g.array, g.group, tuple(g.statements))
            for g in plan.groups
        )
    indptr, indices = a.indptr, a.indices
    if hybrid:
        relaxed = np.zeros(len(a.statements), dtype=bool)
        selfs = [np.zeros((0, 2), dtype=np.int64)]  # (source, waiting)
        for k in np.flatnonzero(chained).tolist():
            edges = intra_block_edges(scop, info, a.statements[k])
            # a chain stays where consecutive blocks are all dependent
            blocks = len(a.blocks(k))
            if not all((j, j + 1) in edges for j in range(blocks - 1)):
                relaxed[k] = True
                pairs = np.array(sorted(edges), dtype=np.int64)
                selfs.append(a.starts[k] + pairs.reshape(-1, 2))
        if relaxed.any():
            chained &= ~relaxed
            indptr, indices = _frontier_tokens(
                a, relaxed, np.concatenate(selfs)
            )
    chained = tuple(chained.tolist())
    if (chained, joins) == (a.chained, a.joins) and indices is a.indices:
        return ast
    return TaskAst(replace(
        a, chained=chained, joins=joins, indptr=indptr, indices=indices
    ))


def _frontier_tokens(a, relaxed: np.ndarray, selfs: np.ndarray):
    """``a``'s producer CSR with tokens on ``relaxed`` nests moved to
    their frontier, then the ``selfs`` ``(source, waiting)`` tokens."""
    n = a.num_blocks
    nest = csr_rows(a.starts)
    block = np.arange(n)
    # block b is in the frontier at p for b <= p < stop[b]: its first
    # self successor, else its nest's end; a chained source's is b alone
    stop = np.where(relaxed[nest], a.starts[nest + 1], block + 1)
    np.minimum.at(stop, selfs[:, 0], selfs[:, 1])
    owner = block.repeat(stop - block)
    at = owner + _offsets(stop - block)  # the p each entry is at
    members = owner[np.argsort(at, kind="stable")]
    first = csr_indptr(np.sort(at), n)  # frontier at p: members[first[p]:]
    sizes = np.diff(first)[a.indices]
    src = np.concatenate([
        members[first[a.indices].repeat(sizes) + _offsets(sizes)],
        selfs[:, 0],
    ])
    dst = np.concatenate([csr_rows(a.indptr).repeat(sizes), selfs[:, 1]])
    by_block = np.argsort(dst, kind="stable")
    key = (dst * n + src)[by_block]
    keep = by_block[np.sort(np.unique(key, return_index=True)[1])]
    return csr_indptr(dst[keep], n), src[keep].astype(np.int64)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Each entry's index in its run, for runs of these lengths."""
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if len(ends) else 0) - (
        ends - counts
    ).repeat(counts)
