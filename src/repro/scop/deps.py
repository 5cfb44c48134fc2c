"""Memory-based dependence analysis on explicit relations.

Computes flow (read-after-write), anti (write-after-read) and output
(write-after-write) dependences between statement instances, ordered by the
sequential execution of the program: nests run one after another, and within
a nest instances follow lexicographic order of the shared loops with textual
order breaking ties.

Every dependence of a :class:`Scop` comes from one batched derivation,
a :class:`DependenceTable` kept in the SCoP's slot
(:meth:`Scop.dependence_table`): every access's affine image, one sort
of all accesses by packed cell key, one join of each write against
every access of its cell, one vectorized execution-order test
(:func:`execution_order`) and one dedup on packed ``(source, target,
kind, target instance, source instance)`` keys.  The table is derived
at most once for the life of that SCoP object (again after the slot's
``clear()``) and dies with it.
:func:`dependence_relation` and :func:`iter_dependences` read its
entries as relations; the legality check reads its arrays.
Consumers: Algorithm 1's "T depends on S" test, its ``P`` relation and
the coverage check (``pipeline``); the legality, proof and static
task-graph checks (``schedule.legality``, ``analysis.taskcheck``); the
hybrid relaxation's self tokens (``schedule.relax``); the reduction
portfolio's partitions; fusion legality and the recurrence test of the
block kernels (``interp``); ``analysis.explain``, ``scop.ddg``; and the
Polly-like baseline's parallel-dimension detection below.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..presburger import PointRelation, joint_ranks
from ..presburger.explicit import _KEY_CAPACITY
from .access import Access, AccessKind
from .scop import Scop, ScopStatement, _image


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

#: a kind's code in the table's entry order
KIND_CODES = {kind: code for code, kind in enumerate(DepKind)}
_KINDS = tuple(DepKind)
_FLOW, _ANTI, _OUTPUT = range(len(_KINDS))


class DependenceTable:
    """Every flow, anti and output dependence of one SCoP, as arrays.

    Instances are numbered globally: statement ``k``'s are
    ``offsets[k]:offsets[k + 1]``, in lexicographic order, their
    coordinates the rows of ``points`` (zero-padded to the deepest
    statement) and ``owner`` their statement.  Entry ``(source,
    target, kind)`` is group ``(s * S + t) * 3 + KIND_CODES[kind]`` of
    the ``S`` statements; its pairs are rows ``bounds[g]:bounds[g + 1]``
    of ``source`` / ``target`` (instance numbers), sorted by target
    instance, then source instance — the canonical row order of its
    :class:`PointRelation`, which indexing by key builds on first read.
    Derived whole (:func:`_derive`) and never changed after.
    """

    def __init__(self, scop: Scop) -> None:
        self.statements = scop.statements
        #: statement name -> its number
        self.ids = {s.name: k for k, s in enumerate(scop.statements)}
        (self.points, self.offsets, self.owner, self.bounds, self.source,
         self.target) = _derive(scop)
        self._relations: dict[tuple, PointRelation] = {}

    # -- entries ----------------------------------------------------------
    def group(self, key: tuple[str, str, DepKind]) -> int:
        source, target, kind = key
        count = len(self.statements)
        return (self.ids[source] * count + self.ids[target]) * 3 + (
            KIND_CODES[kind]
        )

    def count(self, key: tuple[str, str, DepKind]) -> int:
        """The number of pairs of one entry."""
        g = self.group(key)
        return int(self.bounds[g + 1] - self.bounds[g])

    def __getitem__(self, key: tuple[str, str, DepKind]) -> PointRelation:
        rel = self._relations.get(key)
        if rel is None:
            g = self.group(key)
            rows = slice(self.bounds[g], self.bounds[g + 1])
            src = self.statements[self.ids[key[0]]]
            tgt = self.statements[self.ids[key[1]]]
            pairs = np.concatenate([
                self.points[self.target[rows], : tgt.depth],
                self.points[self.source[rows], : src.depth],
            ], axis=1)
            rel = self._relations[key] = PointRelation.from_canonical(
                pairs, tgt.depth
            )
        return rel

    def __len__(self) -> int:
        """The number of entries, empty or not."""
        return 3 * len(self.statements) ** 2

    # -- arrays -----------------------------------------------------------
    def rows_in_order(self, kinds: Sequence[DepKind]) -> np.ndarray:
        """The pairs of ``kinds``' entries in :func:`iter_dependences`'
        order: sources, then targets, then ``kinds`` as given."""
        n = len(self.statements)
        codes = np.array([KIND_CODES[k] for k in kinds], dtype=np.int64)
        visit = (np.arange(n * n)[:, None] * 3 + codes).ravel()
        rank = np.full(3 * n * n, -1, dtype=np.int64)
        rank[visit] = np.arange(visit.size)
        row_rank = np.repeat(rank, np.diff(self.bounds))
        rows = np.flatnonzero(row_rank >= 0)
        if np.any(np.diff(visit) < 0):  # kinds out of DepKind order
            rows = rows[np.argsort(row_rank[rows], kind="stable")]
        return rows

    def key_of(self, row: int) -> tuple[str, str, DepKind]:
        """The entry a pair belongs to."""
        g = int(np.searchsorted(self.bounds, row, side="right")) - 1
        pair, code = divmod(g, 3)
        source, target = divmod(pair, len(self.statements))
        return (
            self.statements[source].name, self.statements[target].name,
            _KINDS[code],
        )

    def instance(self, index: int) -> tuple[int, ...]:
        """One instance's iteration vector."""
        depth = self.statements[int(self.owner[index])].depth
        return tuple(int(v) for v in self.points[index, :depth])

    def instances(self, name: str, iters: np.ndarray) -> np.ndarray:
        """The instance number of each row of ``iters`` (iterations of
        statement ``name``); -1 for a row that is none of its instances."""
        k = self.ids[name]
        lo, depth = int(self.offsets[k]), self.statements[k].depth
        own = self.points[lo : self.offsets[k + 1], :depth]
        if not len(own) or not len(iters):
            return np.full(len(iters), -1, dtype=np.int64)
        keys, queries = joint_ranks(own, np.asarray(iters, dtype=np.int64))
        idx = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
        return np.where(keys[idx] == queries, lo + idx, -1)


class DependenceSlot:
    """Where a SCoP keeps its :class:`DependenceTable`
    (:meth:`Scop.dependence_table`): its entries by key, none until the
    first question derives it (:func:`dependences`).  ``clear()`` drops
    it; a reader already holding the table keeps a whole one."""

    def __init__(self) -> None:
        self.table: DependenceTable | None = None

    def clear(self) -> None:
        self.table = None

    def __getitem__(self, key: tuple[str, str, DepKind]) -> PointRelation:
        if self.table is None:
            raise KeyError(key)
        return self.table[key]

    def __len__(self) -> int:
        return 0 if self.table is None else len(self.table)


def dependences(scop: Scop) -> DependenceTable:
    """``scop``'s dependence table, derived on the first question
    (span ``scop.dependences``)."""
    from ..obs.spans import span

    slot = scop.dependence_table()
    table = slot.table
    if table is None:
        with span("scop.dependences") as sp:
            table = slot.table = DependenceTable(scop)
            sp.set(pairs=len(table.source))
    return table


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
    return dependences(scop)[(src.name, tgt.name, kind)]


def paired_accesses(
    src: ScopStatement, tgt: ScopStatement, kind: DepKind
) -> tuple[tuple[Access, ...], tuple[Access, ...]]:
    """The accesses ``kind`` pairs: the source's in its role, the target's."""
    src_role, tgt_role = _ROLES[kind]
    return (
        tuple(a for a in src.accesses if a.kind is src_role),
        tuple(a for a in tgt.accesses if a.kind is tgt_role),
    )


def _derive(scop: Scop) -> tuple[np.ndarray, ...]:
    """``(points, offsets, owner, bounds, source, target)`` of
    :class:`DependenceTable`, every entry in one pass."""
    stmts = scop.statements
    count, rank = len(stmts), scop.mem_rank
    sizes = [len(s.points) for s in stmts]
    offsets = np.zeros(count + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(sizes)
    total = int(offsets[-1])
    points = np.zeros(
        (total, max((s.depth for s in stmts), default=0)), dtype=np.int64
    )
    owner = np.repeat(np.arange(count, dtype=np.int64), sizes)
    groups = 3 * count * count
    # every access of every instance: its instance, its role, its cell
    cells, where, writes = [], [], []
    for k, stmt in enumerate(stmts):
        pts = stmt.points.points
        points[offsets[k] : offsets[k + 1], : stmt.depth] = pts
        if not len(pts) or not stmt.accesses:
            continue
        cells.append(_image(pts, [
            acc.encoded_map(stmt.space, scop.array_ids[acc.array], rank)
            for acc in stmt.accesses
        ]).reshape(-1, rank + 1))
        where.append(np.repeat(
            np.arange(offsets[k], offsets[k + 1]), len(stmt.accesses)
        ))
        writes.append(np.tile(
            [a.kind is AccessKind.WRITE for a in stmt.accesses], len(pts)
        ))
    if not cells:
        none = np.zeros(0, dtype=np.int64)
        bounds = np.zeros(groups + 1, dtype=np.int64)
        return points, offsets, owner, bounds, none, none
    # one sort by cell, then each write meets every access of its cell
    (key,) = joint_ranks(np.concatenate(cells))
    order = np.argsort(key, kind="stable")
    key = key[order]
    where, writes = np.concatenate(where)[order], np.concatenate(writes)[order]
    w = np.flatnonzero(writes)
    lo = np.searchsorted(key, key[w], side="left")
    cnt = np.searchsorted(key, key[w], side="right") - lo
    first = np.cumsum(cnt) - cnt
    other = np.arange(int(cnt.sum())) - np.repeat(first - lo, cnt)
    a, b = np.repeat(where[w], cnt), where[other]
    b_writes = writes[other]
    cmp = execution_order(points, a, b, owner, stmts)
    # the write first: flow (the other reads) or output (it writes);
    # a read first: anti (output pairs meet twice, kept once)
    keep = (cmp < 0) | ((cmp > 0) & ~b_writes)
    a, b, b_writes, fwd = a[keep], b[keep], b_writes[keep], cmp[keep] < 0
    source, target = np.where(fwd, a, b), np.where(fwd, b, a)
    kind = np.where(b_writes, _OUTPUT, np.where(fwd, _FLOW, _ANTI))
    group = (owner[source] * count + owner[target]) * 3 + kind
    if groups * total * total < _KEY_CAPACITY:  # packed keys cannot wrap
        packed = np.sort((group * total + target) * total + source)
        packed = packed[np.diff(packed, prepend=-1) != 0]
        group, rest = np.divmod(packed, total * total)
        target, source = np.divmod(rest, total)
    else:
        order = np.lexsort((source, target, group))
        group, target, source = group[order], target[order], source[order]
        new = np.ones(len(group), dtype=bool)
        new[1:] = (
            (np.diff(group) != 0) | (np.diff(target) != 0)
            | (np.diff(source) != 0)
        )
        group, target, source = group[new], target[new], source[new]
    bounds = np.searchsorted(group, np.arange(groups + 1))
    return points, offsets, owner, bounds, source, target


def execution_order(
    points: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    owner: np.ndarray,
    stmts: Sequence[ScopStatement],
) -> np.ndarray:
    """Per pair ``(a[k], b[k])`` of rows of ``points`` (iterations of
    statements ``stmts[owner[row]]``, zero-padded): -1 where ``a`` runs
    first, 1 where ``b`` does, 0 where they are one instance.  Nest
    order, then the loops the two statements share (the common prefix),
    then textual position; one statement's instances in strict
    lexicographic order."""
    nest, depth, position = (
        np.array([getattr(s, f) for s in stmts], dtype=np.int64)
        for f in ("nest_index", "depth", "position")
    )
    sa, sb = owner[a], owner[b]
    cmp = np.sign(nest[sa] - nest[sb]).astype(np.int8)
    common = np.minimum(depth[sa], depth[sb])
    open_, tied = np.flatnonzero(cmp == 0), []
    for k in range(points.shape[1]):
        shared = common[open_] > k
        tied.append(open_[~shared])
        open_ = open_[shared]
        step = np.sign(points[a[open_], k] - points[b[open_], k])
        cmp[open_] = step
        open_ = open_[step == 0]
    tied = np.concatenate([*tied, open_])
    cmp[tied] = np.sign(position[sa[tied]] - position[sb[tied]])
    return cmp


def in_execution_order(
    candidates: PointRelation, src: ScopStatement, tgt: ScopStatement
) -> PointRelation:
    """The pairs of ``candidates`` (``tgt`` instance → ``src`` instance)
    whose source instance runs strictly before its target instance."""
    n = len(candidates)
    if not n:
        return candidates
    stmts = (src,) if src.name == tgt.name else (src, tgt)
    points = np.zeros((2 * n, max(src.depth, tgt.depth)), dtype=np.int64)
    points[:n, : src.depth] = candidates.out_part
    points[n:, : tgt.depth] = candidates.in_part
    owner = np.repeat(np.array([0, len(stmts) - 1]), n)
    rows = np.arange(n)
    return candidates.subset(
        execution_order(points, rows, rows + n, owner, stmts) < 0
    )


def iter_dependences(
    scop: Scop,
    kinds: Sequence[DepKind] = tuple(DepKind),
    relaxed: Mapping[tuple[str, str, DepKind], PointRelation] | None = None,
) -> Iterator[tuple[ScopStatement, ScopStatement, DepKind, PointRelation]]:
    """Every non-empty instance-level dependence relation of ``scop`` as
    ``(source, target, kind, relation)``, sources then targets in
    execution order, minus the pairs ``relaxed`` allows a schedule to
    reorder (``PrivatizationProof.relaxed_map()``)."""
    table = dependences(scop)
    for source in scop.statements:
        for target in scop.statements:
            for kind in kinds:
                key = (source.name, target.name, kind)
                if not table.count(key):
                    continue
                rel = table[key]
                if relaxed:
                    cut = relaxed.get(key)
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
