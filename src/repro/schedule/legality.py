"""Legality checking of pipelined task graphs.

A transformed schedule is legal when every instance-level dependence of the
original program is preserved: if instance ``a`` must execute before
instance ``b``, then ``a``'s task precedes ``b``'s task in the graph (or
they share a task, whose internal execution stays in lexicographic order).

:func:`check_legality` verifies this exhaustively against the memory-based
dependences of the SCoP — flow, anti and output — using the task graph's
transitive reachability.  It is the library form of the oracle used across
the test-suite, and what a cautious user should run after transforming a
kernel with custom options (coarsening, relaxed chains, extra dependence
classes).

The check is exact and runs over arrays: every dependence pair is a row
of the SCoP's dependence table (:func:`~repro.scop.deps.dependences`,
derived once per SCoP), each instance's task comes from one
``block_of_rows`` per statement, a verified proof's relaxed pairs go
with one ``isin``, and one gather of the graph's tasks × chains
reachability (:meth:`~repro.tasking.task.TaskGraph.chain_reach`) orders
every pair.  Its report equals the per-statement-pair check the tests
keep as ``tests/conftest.py::reference_check_legality``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING, Mapping

from ..pipeline import PipelineInfo
from ..presburger import PointRelation, joint_ranks
from ..scop import (
    DepKind,
    Scop,
    ScopStatement,
    dependence_relation,
    dependences,
)

if TYPE_CHECKING:  # avoid the schedule <-> tasking package cycle
    from ..analysis.portfolio.privatize import PrivatizationProof
    from ..tasking.task import TaskGraph

#: (source statement, target statement, dependence kind) — the key shape
#: of a relaxed-dependence map (``PrivatizationProof.relaxed_map()``)
RelaxedMap = Mapping[tuple[str, str, DepKind], PointRelation]


@dataclass(frozen=True)
class Violation:
    """One dependence pair the task graph fails to order."""

    kind: DepKind
    source: str
    source_instance: tuple[int, ...]
    target: str
    target_instance: tuple[int, ...]

    def __str__(self) -> str:
        return (
            f"{self.kind.value}: {self.source}{list(self.source_instance)} "
            f"must precede {self.target}{list(self.target_instance)}"
        )


@dataclass(frozen=True)
class LegalityReport:
    """Outcome of a legality check."""

    checked_pairs: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_illegal(self) -> None:
        if self.violations:
            raise IllegalScheduleError(
                f"{len(self.violations)} dependence(s) violated; first: "
                f"{self.violations[0]}"
            )

    def __str__(self) -> str:
        status = "legal" if self.ok else f"{len(self.violations)} violations"
        return f"LegalityReport({self.checked_pairs} pairs checked, {status})"


class IllegalScheduleError(RuntimeError):
    """The transformed schedule reorders a dependence."""


def check_legality(
    scop: Scop,
    info: PipelineInfo,
    graph: "TaskGraph",
    kinds: tuple[DepKind, ...] = tuple(DepKind),
    max_violations: int = 20,
    relaxed: RelaxedMap | None = None,
) -> LegalityReport:
    """Verify the task graph against every instance-level dependence.

    ``relaxed`` maps ``(source, target, kind)`` to instance pairs the
    schedule is allowed to reorder — the removed set of a *verified*
    privatization proof (:func:`verify_privatization`).  Those pairs are
    subtracted from each dependence relation before checking; everything
    else must still be preserved.  Violations come in
    :func:`~repro.scop.iter_dependences`' order, each relation's pairs in
    canonical order.
    """
    from ..obs.spans import span

    with span("schedule.legality"):
        chain, pos, reach = graph.chain_reach()
        table = dependences(scop)
        rows = table.rows_in_order(kinds)
        if relaxed:
            rows = rows[~_relaxed_rows(table, rows, kinds, relaxed)]
        src, tgt = table.source[rows], table.target[rows]
        task = _task_of_instance(table, info, graph, np.append(src, tgt))
        s_tids, t_tids = task[src], task[tgt]
        # reach is inclusive: a pair inside one task holds, since a
        # task runs its instances in lexicographic order
        ok = reach[t_tids, chain[s_tids]] >= pos[s_tids]
        violations = []
        for k in np.flatnonzero(~ok)[:max_violations].tolist():
            source, target, kind = table.key_of(int(rows[k]))
            violations.append(Violation(
                kind, source, table.instance(int(src[k])),
                target, table.instance(int(tgt[k])),
            ))
    return LegalityReport(len(rows), tuple(violations))


def _relaxed_rows(
    table, rows: np.ndarray, kinds, relaxed: RelaxedMap
) -> np.ndarray:
    """Per pair of ``rows``: is it one ``relaxed`` allows to reorder?
    Pairs are ``(entry, target instance, source instance)`` triples on
    both sides, so one ``isin`` answers every entry."""
    groups = np.searchsorted(table.bounds, rows, side="right") - 1
    cuts = [np.zeros((0, 3), dtype=np.int64)]
    for key, cut in relaxed.items():
        source, target, kind = key
        if kind not in kinds or cut.is_empty() or not (
            {source, target} <= table.ids.keys()
        ):
            continue
        triples = np.stack([
            np.full(len(cut), table.group(key)),
            table.instances(target, cut.in_part),
            table.instances(source, cut.out_part),
        ], axis=1)
        cuts.append(triples[np.all(triples >= 0, axis=1)])
    cut = np.concatenate(cuts)
    if not len(cut):
        return np.zeros(len(rows), dtype=bool)
    mine = np.stack([groups, table.target[rows], table.source[rows]], axis=1)
    mine, theirs = joint_ranks(mine, cut)
    return np.isin(mine, theirs)


def _task_of_instance(
    table, info: PipelineInfo, graph: "TaskGraph", instances: np.ndarray
) -> np.ndarray:
    """The task of every instance of each statement ``instances`` touch
    (-1 elsewhere): one ``block_of_rows`` per statement."""
    task_of_block = tasks_by_block(info, graph)
    out = np.full(len(table.owner), -1, dtype=np.int64)
    touched = np.bincount(
        table.owner[instances], minlength=len(table.statements)
    )
    for k in np.flatnonzero(touched).tolist():
        stmt = table.statements[k]
        lo, hi = table.offsets[k], table.offsets[k + 1]
        blocks = info.blockings[stmt.name].block_of_rows(
            table.points[lo:hi, : stmt.depth]
        )
        out[lo:hi] = task_of_block[stmt.name][blocks]
    return out


def tasks_by_block(info: PipelineInfo, graph: "TaskGraph") -> dict:
    """Per statement: the task id of each of its blocks, by block id
    (a block with no task is an :class:`IllegalScheduleError`)."""
    out = {
        name: np.full(blocking.num_blocks, -1, dtype=np.int64)
        for name, blocking in info.blockings.items()
    }
    for code, name in enumerate(graph.labels):
        if name in out:
            mine = np.flatnonzero(graph.statement_ids == code)
            out[name][graph.block_ids[mine]] = mine
    for name, ids in out.items():
        missing = np.flatnonzero(ids < 0)
        if len(missing):
            raise IllegalScheduleError(
                f"block {int(missing[0])} of statement {name!r} has no task"
            )
    return out


# ----------------------------------------------------------------------
# privatization proof checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProofFailure:
    """One claim of a privatization proof the checker could not confirm."""

    claim: str
    reason: str

    def __str__(self) -> str:
        return f"{self.claim}: {self.reason}"


@dataclass(frozen=True)
class PrivatizationCheck:
    """Outcome of independently re-verifying a privatization proof."""

    claims_checked: int
    relations_checked: int
    checked_instance_pairs: int
    failures: tuple[ProofFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "verified" if self.ok else f"{len(self.failures)} failures"
        return (
            f"PrivatizationCheck({self.claims_checked} claims, "
            f"{self.checked_instance_pairs} instance pairs, {status})"
        )


def verify_privatization(scop: Scop, proof) -> PrivatizationCheck:
    """Re-derive every claim of a privatization proof from the SCoP.

    This is the trust boundary of the pattern portfolio: a
    ``PrivatizationProof`` arrives as *alleged* evidence and nothing in
    it is taken at face value.  The checker shares only the AST-level
    reduction matcher with the detector and recomputes all relations
    from the SCoP's access functions:

    1. every claimed statement re-matches the reduction shape, with the
       claimed array, operator group and operator;
    2. every removed relation connects two claimed statements whose
       updates commute (same array, same group);
    3. the removed pairs are a subset of the recomputed memory-based
       dependence relation — the proof cannot smuggle in extra freedom;
    4. no removed pair is induced by an access pair on any array other
       than the privatized accumulator — relaxing it would reorder
       non-accumulator state.

    Under 1-4, executing the removed pairs in any order is safe: each
    relaxed pair orders only commuting updates of an array that
    privatization gives each task a private copy of.
    """
    # the one shared component: the syntactic reduction matcher
    from ..analysis.portfolio.reduction import reduction_update_spec

    failures: list[ProofFailure] = []
    pairs_checked = 0

    specs = {}
    for claim in proof.claims:
        try:
            stmt = scop.statement(claim.statement)
        except KeyError:
            failures.append(
                ProofFailure(claim.statement, "no such statement")
            )
            continue
        spec = reduction_update_spec(stmt.assign)
        if spec is None:
            failures.append(
                ProofFailure(
                    claim.statement,
                    "statement is not a recognizable associative "
                    "accumulation",
                )
            )
        elif (
            spec.array != claim.array
            or spec.group.value != claim.group
            or spec.operator != claim.operator
        ):
            failures.append(
                ProofFailure(
                    claim.statement,
                    f"claimed {claim.group} over {claim.array!r} "
                    f"({claim.operator}) but the statement is "
                    f"{spec.describe()}",
                )
            )
        else:
            specs[claim.statement] = spec

    for rem in proof.removed:
        name = f"{rem.kind.value} {rem.source} -> {rem.target}"
        sspec = specs.get(rem.source)
        tspec = specs.get(rem.target)
        if sspec is None or tspec is None:
            failures.append(
                ProofFailure(name, "an endpoint carries no verified claim")
            )
            continue
        if sspec.array != tspec.array or sspec.group is not tspec.group:
            failures.append(
                ProofFailure(
                    name,
                    f"endpoint updates do not commute: {sspec.describe()} "
                    f"vs {tspec.describe()}",
                )
            )
            continue
        src = scop.statement(rem.source)
        tgt = scop.statement(rem.target)
        if rem.pairs.n_in != tgt.depth or rem.pairs.n_out != src.depth:
            failures.append(
                ProofFailure(name, "removed relation has wrong dimensions")
            )
            continue
        full = dependence_relation(scop, src, tgt, rem.kind)
        if not rem.pairs.difference(full).is_empty():
            failures.append(
                ProofFailure(
                    name,
                    "removed pairs are not all actual dependence pairs",
                )
            )
            continue
        others = _induced_through_others(scop, src, tgt, rem.kind, sspec.array)
        if not rem.pairs.intersect(others).is_empty():
            failures.append(
                ProofFailure(
                    name,
                    "a removed pair is also induced by a non-accumulator "
                    "access pair; relaxing it would reorder other memory",
                )
            )
            continue
        pairs_checked += len(rem.pairs)

    return PrivatizationCheck(
        len(proof.claims), len(proof.removed), pairs_checked, tuple(failures)
    )


def _induced_through_others(
    scop: Scop,
    src: ScopStatement,
    tgt: ScopStatement,
    kind: DepKind,
    accumulator: str,
) -> PointRelation:
    """Dependence pairs induced by any array other than the accumulator.

    Recomputed here from the access functions — deliberately not the
    detector's partition — so the checker stands on its own.
    """
    from ..scop.deps import in_execution_order, paired_accesses

    src_accs, tgt_accs = paired_accesses(src, tgt, kind)

    out = PointRelation.empty(tgt.depth, src.depth)
    for sa in src_accs:
        for ta in tgt_accs:
            if sa.array != ta.array or sa.array == accumulator:
                continue
            array_id = scop.array_ids[sa.array]
            sr = sa.explicit_relation(
                src.points, src.space, array_id, scop.mem_rank
            )
            tr = ta.explicit_relation(
                tgt.points, tgt.space, array_id, scop.mem_rank
            )
            out = out.union(
                in_execution_order(sr.inverse().after(tr), src, tgt)
            )
    return out
