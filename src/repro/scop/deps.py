"""Memory-based dependence analysis on explicit relations.

Computes flow (read-after-write), anti (write-after-read) and output
(write-after-write) dependences between statement instances, ordered by the
sequential execution of the program: nests run one after another, and within
a nest instances follow lexicographic order of the shared loops with textual
order breaking ties.

Every question is :func:`dependence_relation`, answered from one table per
:class:`Scop` (:meth:`Scop.dependence_table`): an entry is joined at most
once for the life of that SCoP object and dies with it;
:func:`iter_dependences` walks the non-empty entries.  Consumers: Algorithm
1's "T depends on S" test, its ``P`` relation and the coverage check
(``pipeline``); the legality, proof and static task-graph checks
(``schedule.legality``, ``analysis.taskcheck``); the reduction portfolio's
partitions; fusion legality and the recurrence test of the block kernels
(``interp``); ``tasking.hybrid``, ``analysis.explain``, ``scop.ddg``; and
the Polly-like baseline's parallel-dimension detection below.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..presburger import PointRelation, rowwise_lex_lt
from .access import Access, AccessKind
from .scop import Scop, ScopStatement


class DepKind(Enum):
    FLOW = "flow"  # src writes, tgt reads
    ANTI = "anti"  # src reads, tgt writes
    OUTPUT = "output"  # src writes, tgt writes


#: the access roles (of the source, of the target) each kind pairs
_ROLES = {
    DepKind.FLOW: (AccessKind.WRITE, AccessKind.READ),
    DepKind.ANTI: (AccessKind.READ, AccessKind.WRITE),
    DepKind.OUTPUT: (AccessKind.WRITE, AccessKind.WRITE),
}


def dependence_relation(
    scop: Scop,
    src: ScopStatement,
    tgt: ScopStatement,
    kind: DepKind = DepKind.FLOW,
) -> PointRelation:
    """Instances of ``tgt`` mapped to the ``src`` instances they depend on.

    The result only contains pairs where the source instance executes
    strictly before the target instance in the original sequential program.
    """
    table = scop.dependence_table()
    key = (src.name, tgt.name, kind)
    rel = table.get(key)
    if rel is None:
        rel = table[key] = _join_dependence(scop, src, tgt, kind)
    return rel


def paired_accesses(
    src: ScopStatement, tgt: ScopStatement, kind: DepKind
) -> tuple[tuple[Access, ...], tuple[Access, ...]]:
    """The accesses ``kind`` pairs: the source's in its role, the target's."""
    src_role, tgt_role = _ROLES[kind]
    return (
        tuple(a for a in src.accesses if a.kind is src_role),
        tuple(a for a in tgt.accesses if a.kind is tgt_role),
    )


def _join_dependence(
    scop: Scop, src: ScopStatement, tgt: ScopStatement, kind: DepKind
) -> PointRelation:
    src_accs, tgt_accs = paired_accesses(src, tgt, kind)
    shared = {a.array for a in src_accs} & {a.array for a in tgt_accs}
    # Two exact exits before any join: a source nest after the target nest
    # executes wholly after it, and cells carry their array's id, so
    # accesses of disjoint array sets cannot touch a common cell.
    if src.nest_index > tgt.nest_index or not shared:
        return PointRelation.empty(tgt.depth, src.depth)
    src_role, tgt_role = _ROLES[kind]
    # tgt iteration -> src iteration touching the same cell
    candidates = (
        scop.access_relation(src, src_role)
        .inverse()
        .after(scop.access_relation(tgt, tgt_role))
    )
    return _filter_execution_order(candidates, src, tgt)


def _filter_execution_order(
    candidates: PointRelation, src: ScopStatement, tgt: ScopStatement
) -> PointRelation:
    if candidates.is_empty():
        return candidates
    tgt_iters = candidates.in_part
    src_iters = candidates.out_part

    if src.nest_index < tgt.nest_index:
        return candidates
    if src.nest_index > tgt.nest_index:
        return PointRelation.empty(candidates.n_in, candidates.n_out)

    # Same nest: order on the shared loop dimensions, textual order as tie
    # break; same statement requires strict lexicographic precedence.
    common = min(src.depth, tgt.depth)
    src_prefix = src_iters[:, :common]
    tgt_prefix = tgt_iters[:, :common]
    before = rowwise_lex_lt(src_prefix, tgt_prefix)
    equal = np.all(src_prefix == tgt_prefix, axis=1)
    if src.name == tgt.name:
        keep = before | (equal & rowwise_lex_lt(src_iters, tgt_iters))
    elif src.position < tgt.position:
        keep = before | equal
    else:
        keep = before
    return candidates.subset(keep)


def iter_dependences(
    scop: Scop,
    kinds: Sequence[DepKind] = tuple(DepKind),
    relaxed: Mapping[tuple[str, str, DepKind], PointRelation] | None = None,
) -> Iterator[tuple[ScopStatement, ScopStatement, DepKind, PointRelation]]:
    """Every non-empty instance-level dependence relation of ``scop`` as
    ``(source, target, kind, relation)``, sources then targets in
    execution order, minus the pairs ``relaxed`` allows a schedule to
    reorder (``PrivatizationProof.relaxed_map()``)."""
    for source in scop.statements:
        for target in scop.statements:
            for kind in kinds:
                rel = dependence_relation(scop, source, target, kind)
                if relaxed:
                    cut = relaxed.get((source.name, target.name, kind))
                    if cut is not None and not cut.is_empty():
                        rel = rel.difference(cut)
                if not rel.is_empty():
                    yield source, target, kind, rel


# ----------------------------------------------------------------------
# Loop-level parallelism (used by the Polly-like baseline)
# ----------------------------------------------------------------------
def carried_levels(scop: Scop, nest_index: int) -> set[int]:
    """Loop levels of a nest that carry a dependence.

    Level ``k`` (0-based) carries a dependence when two dependent instances
    share loop indices ``0..k-1`` but differ at ``k``.  A level that carries
    no dependence can run in parallel, which is the decision the Polly/Pluto
    baseline takes per loop nest.
    """
    carried: set[int] = set()
    for src, tgt, _kind, rel in iter_dependences(scop):
        if src.nest_index != nest_index or tgt.nest_index != nest_index:
            continue
        common = min(src.depth, tgt.depth)
        a = rel.out_part[:, :common]  # src iterations
        b = rel.in_part[:, :common]  # tgt iterations
        decided = np.zeros(a.shape[0], dtype=bool)
        for level in range(common):
            differs = ~decided & (a[:, level] != b[:, level])
            if np.any(differs):
                carried.add(level)
            decided |= differs
    return carried


def parallel_levels(scop: Scop, nest_index: int) -> list[int]:
    """Loop levels of a nest that are dependence-free (parallelizable)."""
    stmts = [s for s in scop.statements if s.nest_index == nest_index]
    if not stmts:
        return []
    depth = min(s.depth for s in stmts)
    carried = carried_levels(scop, nest_index)
    return [k for k in range(depth) if k not in carried]
