"""Presburger partition of dependences into reduction-carried vs true.

A dependence pair between two statement instances is *reduction-carried*
when

1. both endpoint statements are associative accumulations over the same
   array with the same operator group (:mod:`.reduction`), and
2. the pair is induced by accesses to that accumulator array, and
3. the pair is **not** induced by an access pair on any other array.

Condition 3 is what keeps the partition sound by construction: when the
same instance pair also conflicts through other memory (the update
expression reading an array another statement writes, say), relaxing it
would reorder non-accumulator state, so it stays in the *residual* set.
The partition is computed with the explicit relational algebra — per
access-pair relations, union, and difference — so ``reduction_carried ∪
residual = full`` and the two parts are disjoint by construction.

Dependences touching any non-reduction statement are never relaxed: they
fail condition 1 and land wholly in the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...presburger import PointRelation
from ...scop import DepKind, Scop, ScopStatement, dependence_relation
from ...scop.deps import iter_dependences, paired_accesses
from ..explain import access_pair_relation
from .reduction import ReductionSpec

#: (source statement, target statement, dependence kind)
PairKey = tuple[str, str, DepKind]


@dataclass(frozen=True)
class DependencePartition:
    """One dependence relation split into relaxable and true parts."""

    source: str
    target: str
    kind: DepKind
    #: all execution-ordered dependence pairs (memory-based)
    full: PointRelation
    #: pairs induced solely through the shared accumulator — removable
    #: once the accumulator is privatized
    reduction_carried: PointRelation
    #: pairs any schedule must still preserve
    residual: PointRelation

    @property
    def key(self) -> PairKey:
        return (self.source, self.target, self.kind)

    @property
    def fully_relaxed(self) -> bool:
        """All pairs are reduction-carried (and there is at least one)."""
        return not self.full.is_empty() and self.residual.is_empty()

    def describe(self) -> str:
        return (
            f"{self.kind.value} {self.source} -> {self.target}: "
            f"{len(self.full)} pairs, {len(self.reduction_carried)} "
            f"reduction-carried, {len(self.residual)} true"
        )


def compatible_specs(
    sspec: ReductionSpec | None, tspec: ReductionSpec | None
) -> bool:
    """Updates of both statements commute with each other."""
    return (
        sspec is not None
        and tspec is not None
        and sspec.array == tspec.array
        and sspec.group is tspec.group
    )


def induced_relations(
    scop: Scop,
    src: ScopStatement,
    tgt: ScopStatement,
    kind: DepKind,
    array: str,
) -> tuple[PointRelation, PointRelation]:
    """Dependence pairs induced through ``array`` vs any other array.

    The union of the two results equals the full memory-based dependence
    relation of the pair (both sides enumerate the same access pairs the
    statement-level relations union over).
    """
    src_accs, tgt_accs = paired_accesses(src, tgt, kind)

    via = PointRelation.empty(tgt.depth, src.depth)
    others = PointRelation.empty(tgt.depth, src.depth)
    for sa in src_accs:
        for ta in tgt_accs:
            if sa.array != ta.array:
                continue
            rel = access_pair_relation(scop, src, sa, tgt, ta)
            if rel.is_empty():
                continue
            if sa.array == array:
                via = via.union(rel)
            else:
                others = others.union(rel)
    return via, others


def partition_pair(
    scop: Scop,
    src: ScopStatement,
    tgt: ScopStatement,
    kind: DepKind,
    specs: dict[str, ReductionSpec],
) -> DependencePartition:
    """Partition one statement pair's dependence relation."""
    full = dependence_relation(scop, src, tgt, kind)
    none = PointRelation.empty(full.n_in, full.n_out)
    sspec, tspec = specs.get(src.name), specs.get(tgt.name)
    if full.is_empty() or not compatible_specs(sspec, tspec):
        return DependencePartition(src.name, tgt.name, kind, full, none, full)
    via, others = induced_relations(scop, src, tgt, kind, sspec.array)
    carried = via.difference(others)
    return DependencePartition(
        src.name, tgt.name, kind, full, carried, full.difference(carried)
    )


def partition_dependences(
    scop: Scop, specs: dict[str, ReductionSpec]
) -> dict[PairKey, DependencePartition]:
    """All non-empty pairwise dependence partitions of the SCoP, one per
    relation :func:`~repro.scop.iter_dependences` walks."""
    return {
        (src.name, tgt.name, kind): partition_pair(scop, src, tgt, kind, specs)
        for src, tgt, kind, _full in iter_dependences(scop)
    }
