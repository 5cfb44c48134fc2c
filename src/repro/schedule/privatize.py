"""Privatization transformation stage: relax what a proof covers.

A machine-checked
:class:`~repro.analysis.portfolio.privatize.PrivatizationProof` shows
that dependences between commuting accumulations of one array may be
reordered once the accumulator is privatized.  This module *acts* on
such proofs, following Doerfert et al. ("Polly's Polyhedral Scheduling
in the Presence of Reductions") and Yang et al. ("Simplifying Dependent
Reductions in the Polyhedral Model"):

1. :func:`plan_privatization` derives a :class:`PrivatizationPlan` from
   the SCoP — one :class:`PrivatizedGroup` per accumulator array whose
   *every* incident dependence is provably reduction-carried, its proof
   checked once by :func:`~repro.schedule.legality.verify_privatization`;
   :func:`plan_from_proofs` replays stored proofs against the same
   derivation.  Detector output is never consumed unchecked.
2. :func:`privatize_info` rewrites the pipeline info: privatized
   statements are re-blocked into ``parts`` contiguous chunks (their
   original blocking is a full barrier — one block — exactly because of
   the dependences the proof removes) and the pipeline maps between
   privatized statements are dropped.
3. :func:`~repro.schedule.relax.relax` disables the self chain of the
   privatized statements in the task AST and adds one generated *join
   row* per group combining the private accumulators.
4. :func:`verify_privatized_graph` re-checks the join structure: the
   instance-level :func:`~repro.schedule.legality.check_legality` cannot
   see join tasks (they execute no statement instances), so a schedule
   that silently dropped the combine step would otherwise pass.  The
   structural check closes that hole: every member block must precede
   its group's join, and every non-member task touching the accumulator
   must follow it.

Execution-side semantics (allocation, identity initialization, the
deterministic combine order) live in :mod:`repro.interp.privexec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..pipeline import PipelineInfo
from ..pipeline.blocking import Blocking, blocking_from_ends
from ..pipeline.detect import derive_dependencies
from ..presburger import PointRelation, PointSet
from ..scop import DepKind, Scop

if TYPE_CHECKING:  # avoid the schedule <-> tasking / analysis cycles
    from ..analysis.portfolio.privatize import PrivatizationProof
    from ..tasking.task import TaskGraph
    from .astgen import TaskAst
    from .legality import PrivatizationCheck

#: Identity element per operator group: combining a private initialized
#: to the identity with the group operator is a no-op, so a task that
#: executed zero iterations contributes nothing at the join.
IDENTITIES: dict[str, float] = {
    "sum": 0.0,
    "product": 1.0,
    "min": math.inf,
    "max": -math.inf,
}


def join_label(array: str) -> str:
    """Statement label of the generated join/combine task of one group."""
    return f"join({array})"


class PrivatizationError(ValueError):
    """A privatization plan or proof was rejected before codegen."""


@dataclass(frozen=True)
class PrivatizedGroup:
    """One accumulator array the plan privatizes.

    ``identity`` is validated against the operator group at construction
    *and* again by :meth:`PrivatizationPlan.validate` before execution —
    a forged group with a wrong identity element (``sum`` privates
    initialized to 1.0, say) must never reach codegen.
    """

    array: str
    group: str  # ReductionGroup value ("sum", "product", "min", "max")
    identity: float
    statements: tuple[str, ...]
    proof: "PrivatizationProof"
    verification: "PrivatizationCheck"

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise unless the group is internally consistent and verified."""
        if self.group not in IDENTITIES:
            raise PrivatizationError(
                f"unknown operator group {self.group!r} for {self.array!r}"
            )
        expected = IDENTITIES[self.group]
        same = self.identity == expected or (
            math.isnan(expected) and math.isnan(self.identity)
        )
        if not same:
            raise PrivatizationError(
                f"wrong identity element for {self.group} over "
                f"{self.array!r}: got {self.identity!r}, the {self.group} "
                f"identity is {expected!r}"
            )
        if not self.statements:
            raise PrivatizationError(
                f"privatized group over {self.array!r} has no statements"
            )
        if not self.verification.ok:
            raise PrivatizationError(
                f"privatized group over {self.array!r} carries an "
                f"unverified proof: {self.verification.failures[0]}"
            )

    def describe(self) -> str:
        return (
            f"{self.group} over {self.array!r} "
            f"({', '.join(self.statements)}; identity {self.identity:g})"
        )


@dataclass(frozen=True)
class PrivatizationPlan:
    """Everything the transformation stage may act on.

    ``rejected`` records accumulator candidates the planner refused,
    with the reason — ``subswap``-style non-commuting updates land here,
    never in ``groups``.
    """

    groups: tuple[PrivatizedGroup, ...]
    rejected: tuple[tuple[str, str], ...] = ()

    @property
    def statements(self) -> frozenset[str]:
        return frozenset(s for g in self.groups for s in g.statements)

    @property
    def arrays(self) -> tuple[str, ...]:
        return tuple(g.array for g in self.groups)

    def relaxed(self) -> dict[tuple[str, str, DepKind], PointRelation]:
        """The merged relaxed-dependence map for ``check_legality``."""
        out: dict[tuple[str, str, DepKind], PointRelation] = {}
        for g in self.groups:
            out.update(g.proof.relaxed_map())
        return out

    def validate(self) -> None:
        """Re-check every group (tamper guard on the execution path)."""
        for g in self.groups:
            g.check()

    def describe(self) -> str:
        if not self.groups:
            return "privatization plan: no verified reduction groups"
        lines = [f"privatization plan: {len(self.groups)} group(s)"]
        for g in self.groups:
            lines.append(f"  privatize {g.describe()}")
        for array, reason in self.rejected:
            lines.append(f"  refused {array!r}: {reason}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def plan_privatization(
    scop: Scop,
    report: object = None,
    arrays: tuple[str, ...] | None = None,
) -> PrivatizationPlan:
    """Derive the privatization plan of one SCoP.

    A group forms around accumulator array ``T`` only when every
    statement updating ``T`` is an associative accumulation
    (:func:`~repro.analysis.portfolio.reduction.find_reduction_specs`)
    of one operator group, no other statement reads or writes ``T``, and
    the candidate proof — the members' claims plus every incident
    relation of :func:`~repro.scop.iter_dependences`, self and
    target-before-source pairs included, each removed in full — passes
    :func:`~repro.schedule.legality.verify_privatization`, run once.  A
    relation's true pairs are exactly those induced through other
    memory, so the check passes exactly when every incident relation is
    fully reduction-carried; a refused array lands in ``rejected``.

    ``arrays`` restricts planning to the named accumulators (used when
    replaying stored proofs); ``report`` is accepted and ignored.
    """
    from ..analysis.portfolio.privatize import (
        PrivatizationProof,
        ReductionClaim,
        RemovedDependence,
    )
    from ..analysis.portfolio.reduction import find_reduction_specs
    from ..obs.spans import span
    from ..scop import iter_dependences
    from .legality import verify_privatization

    with span("schedule.privatize.plan") as sp:
        specs = find_reduction_specs(s.assign for s in scop.statements)

        groups: list[PrivatizedGroup] = []
        rejected: list[tuple[str, str]] = []
        candidates = sorted({spec.array for spec in specs.values()})
        if arrays is not None:
            candidates = [a for a in candidates if a in arrays]

        for array in candidates:
            members = sorted(
                name for name, sp_ in specs.items() if sp_.array == array
            )
            ops = {specs[m].group for m in members}
            if len(ops) != 1:
                rejected.append(
                    (array, "updates mix operator groups "
                     + "/".join(sorted(g.value for g in ops)))
                )
                continue
            outside = sorted(
                st.name
                for st in scop.statements
                if st.name not in members
                and any(
                    a.array == array for a in (*st.reads, *st.writes)
                )
            )
            if outside:
                rejected.append(
                    (array, "accessed by non-reduction statement(s) "
                     + ", ".join(outside))
                )
                continue

            group_value = next(iter(ops)).value
            proof = PrivatizationProof(
                claims=tuple(
                    ReductionClaim.of(specs[m]) for m in members
                ),
                removed=tuple(
                    RemovedDependence(src.name, tgt.name, kind, rel)
                    for src, tgt, kind, rel in iter_dependences(scop)
                    if src.name in members or tgt.name in members
                ),
            )
            # Trust boundary: the plan only carries proofs the legality
            # layer re-derived from the SCoP itself.
            check = verify_privatization(scop, proof)
            if not check.ok:
                rejected.append((array, _refusal(proof, check)))
                continue
            groups.append(
                PrivatizedGroup(
                    array=array,
                    group=group_value,
                    identity=IDENTITIES[group_value],
                    statements=tuple(members),
                    proof=proof,
                    verification=check,
                )
            )
        sp.set(groups=len(groups), rejected=len(rejected))
        return PrivatizationPlan(tuple(groups), tuple(rejected))


def _refusal(proof, check: "PrivatizationCheck") -> str:
    """Why a derived proof failed: its first relation leaving the group
    keeps true pairs — all of them, as members write only the
    accumulator — else the verifier's first failure."""
    members = {c.statement for c in proof.claims}
    for rem in proof.removed:
        if not {rem.source, rem.target} <= members:
            return (
                f"{rem.kind.value} {rem.source} -> {rem.target} "
                f"keeps {len(rem.pairs)} true dependence pair(s)"
            )
    return f"proof re-verification failed: {check.failures[0]}"


def plan_from_proofs(
    scop: Scop, proofs: "tuple[PrivatizationProof, ...] | list"
) -> PrivatizationPlan:
    """Plan privatization from externally supplied (replayed) proofs.

    The plan is derived from the SCoP for the claimed arrays by
    :func:`plan_privatization` (one check per group), and every replayed
    proof must be contained in it: claims a subset of the derived ones,
    each removed relation a subset of the derived relation under the
    same key, endpoints among its own claims.  Only a proof that is not
    contained is verified on its own, to name the failure: a forged one
    (an operator claimed associative, an inflated removed set) raises
    :class:`PrivatizationError` before any schedule consumes it.  A
    partial proof (the portfolio's cross-nest pairs) is contained; the
    plan still relaxes the complete set, self pairs included.
    """
    from .legality import verify_privatization

    if not proofs:  # nothing claimed: the empty plan, nothing derived
        return PrivatizationPlan(())
    claimed = sorted({a for proof in proofs for a in proof.arrays})
    plan = plan_privatization(scop, arrays=tuple(claimed))
    claims = {c for g in plan.groups for c in g.proof.claims}
    relaxed = plan.relaxed()
    for proof in proofs:
        if _contained(proof, claims, relaxed):
            continue
        check = verify_privatization(scop, proof)
        if not check.ok:
            raise PrivatizationError(
                "replayed privatization proof rejected: "
                + "; ".join(str(f) for f in check.failures[:3])
            )
    missing = sorted(set(claimed) - set(plan.arrays))
    if missing:
        reasons = {a: r for a, r in plan.rejected}
        raise PrivatizationError(
            "replayed proof arrays cannot be privatized: "
            + "; ".join(
                f"{a!r} ({reasons.get(a, 'no reduction statements')})"
                for a in missing
            )
        )
    return plan


def _contained(proof, claims: set, relaxed: Mapping) -> bool:
    """``proof`` asks for no more than the derived claims and relations."""
    own = {c.statement for c in proof.claims}
    return claims.issuperset(proof.claims) and all(
        {r.source, r.target} <= own
        and r.key in relaxed
        and r.pairs.n_in == relaxed[r.key].n_in
        and r.pairs.n_out == relaxed[r.key].n_out
        and r.pairs.difference(relaxed[r.key]).is_empty()
        for r in proof.removed
    )


# ----------------------------------------------------------------------
# schedule rewriting
# ----------------------------------------------------------------------
def chunked_blocking(
    statement: str, domain: PointSet, parts: int
) -> Blocking:
    """Re-block one statement's domain into ``parts`` contiguous chunks.

    The privatized statements' detected blocking is a single full-domain
    block (the dependences the proof removes forced a barrier); chunking
    is what actually creates parallelism.  Chunks are contiguous in
    lexicographic order, so the in-block execution order every backend
    uses stays the sequential one.
    """
    if parts < 1:
        raise PrivatizationError("parts must be >= 1")
    n = len(domain)
    if n == 0:
        return blocking_from_ends(statement, domain, PointSet.empty(domain.ndim))
    parts = min(parts, n)
    bounds = np.unique((np.arange(1, parts + 1, dtype=np.int64) * n) // parts) - 1
    ends = PointSet(domain.points[bounds])
    return blocking_from_ends(statement, domain, ends)


def privatize_info(
    info: PipelineInfo, plan: PrivatizationPlan, parts: int = 4
) -> PipelineInfo:
    """Rewrite the pipeline info under a verified privatization plan.

    Pipeline maps between privatized statements are dropped (their
    dependences are exactly the proof's removed set) and each privatized
    statement is re-blocked into ``parts`` chunks; the ``Q_S``
    relations of the surviving maps are re-derived through the standard
    Algorithm-1 path.
    """
    members = plan.statements
    if not members:
        return info
    kept: dict = {}
    for (src, tgt), pmap in info.pipeline_maps.items():
        src_in, tgt_in = src in members, tgt in members
        if src_in and tgt_in:
            continue
        if src_in or tgt_in:
            # cannot happen for a gated plan: a dependence between a
            # member and a non-member would have left a residual
            raise PrivatizationError(
                f"pipeline map {src} -> {tgt} crosses the privatization "
                "boundary; the plan does not cover it"
            )
        kept[(src, tgt)] = pmap

    blockings = dict(info.blockings)
    for name in sorted(members):
        stmt = info.scop.statement(name)
        blockings[name] = chunked_blocking(name, stmt.points, parts)
    in_deps = derive_dependencies(info.scop, kept, blockings)
    return PipelineInfo(info.scop, kept, blockings, in_deps)


# ----------------------------------------------------------------------
# task-graph construction and the join-structure re-check
# ----------------------------------------------------------------------
def build_privatized_graph(
    ast: "TaskAst",
    plan: PrivatizationPlan,
    cost_of_block: Callable | None = None,
) -> "tuple[TaskGraph, dict[str, int]]":
    """Task graph of ``ast`` relaxed under ``plan``, and the join task of
    each accumulator.  Join tasks carry ``block=None`` — they execute no
    statement instances, only the combine — which is why
    :func:`verify_privatized_graph` exists alongside ``check_legality``.
    """
    from ..tasking.task import TaskGraph
    from .relax import relax

    graph = TaskGraph.from_task_ast(
        relax(None, None, ast, plan=plan), cost_of_block
    )
    first = len(graph) - len(plan.groups)
    joins = {g.array: first + k for k, g in enumerate(plan.groups)}
    return graph, joins


@dataclass(frozen=True)
class PrivatizedGraphCheck:
    """Outcome of the structural join-coverage re-check."""

    checked_groups: int
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_invalid(self) -> None:
        if self.issues:
            raise PrivatizationError(
                f"privatized task graph rejected: {self.issues[0]}"
            )

    def __str__(self) -> str:
        status = "ok" if self.ok else f"{len(self.issues)} issue(s)"
        return (
            f"PrivatizedGraphCheck({self.checked_groups} group(s), {status})"
        )


def verify_privatized_graph(
    scop: Scop, plan: PrivatizationPlan, graph: "TaskGraph"
) -> PrivatizedGraphCheck:
    """Re-check the join structure of a privatized task graph.

    ``check_legality`` only sees tasks that execute statement instances;
    a join task (``block=None``) is invisible to it, so a schedule that
    *omitted* the combine step would still look legal.  This check
    closes the gap: per group there must be exactly one join task, every
    member block must (transitively) precede it, and every non-member
    task whose statement touches the accumulator must follow it.
    """
    chain, pos, reach = graph.chain_reach()
    names = np.array(graph.labels, dtype=object)[graph.statement_ids]
    issues: list[str] = []
    for group in plan.groups:
        joins = np.flatnonzero(names == join_label(group.array))
        if len(joins) != 1:
            issues.append(
                f"group {group.array!r}: expected exactly one join task, "
                f"found {len(joins)}"
            )
            continue
        jid = int(joins[0])
        members = np.isin(names, list(group.statements))
        touching = np.isin(names, [
            s.name for s in scop.statements if s.name not in group.statements
            and any(a.array == group.array for a in (*s.reads, *s.writes))
        ])
        # members must precede the join, other accessors follow it
        before = members & (reach[jid, chain] < pos)
        after = touching & (reach[:, chain[jid]] < pos[jid])
        for tid in np.flatnonzero(before | after):
            task = graph.tasks[tid]
            issues.append(
                f"group {group.array!r}: member block {task} does not "
                "precede the join" if before[tid] else
                f"group {group.array!r}: task {task} accesses the "
                "accumulator but is not ordered after the join"
            )
    return PrivatizedGraphCheck(len(plan.groups), tuple(issues))
