"""Mutation battery: forged proofs and tampered plans must be refused.

Each test takes a *valid* privatization artifact, mutates exactly one
claim, and asserts the mutated artifact is rejected **before codegen** —
by proof re-verification (:func:`plan_from_proofs`), by the group
invariant (:class:`PrivatizedGroup`), by the execution-path tamper guard
(:meth:`PrivatizationPlan.validate` inside ``execute_privatized``), or
by the structural join re-check (:func:`verify_privatized_graph`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.portfolio.privatize import (
    PrivatizationProof,
    ReductionClaim,
    RemovedDependence,
)
from repro.interp import Interpreter, execute_privatized
from repro.pipeline.detect import detect_pipeline
from repro.presburger import PointRelation
from repro.schedule import (
    PrivatizationError,
    TaskAst,
    check_legality,
    generate_task_ast,
    plan_from_proofs,
    plan_privatization,
    privatize_info,
    relax,
    verify_privatized_graph,
)
from repro.scop import DepKind
from repro.tasking.task import TaskGraph

HISTOGRAM = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""

SUBSWAP = """
for(i=0; i<N; i++)
  S: T[i] = A[i] - T[i];
for(i=0; i<N; i++)
  R: T[N-1-i] = B[i] - T[N-1-i];
"""


@pytest.fixture
def hist_interp():
    return Interpreter.from_source(HISTOGRAM, {"N": 8})


@pytest.fixture
def hist_plan(hist_interp):
    plan = plan_privatization(hist_interp.scop)
    assert plan.groups, "fixture kernel must privatize"
    return plan


def test_forged_subswap_operator_proof_is_rejected(hist_plan):
    """A proof claiming subswap's non-commuting updates are a sum
    reduction must die in ``plan_from_proofs``, not reach codegen."""
    scop = Interpreter.from_source(SUBSWAP, {"N": 8}).scop
    real = hist_plan.groups[0].proof
    forged = PrivatizationProof(
        claims=tuple(
            ReductionClaim(c.statement, "T", "sum", "+=")
            for c in real.claims
        ),
        removed=real.removed,
    )
    with pytest.raises(PrivatizationError, match="rejected"):
        plan_from_proofs(scop, [forged])


def test_inflated_removed_set_is_rejected(hist_interp, hist_plan):
    """Smuggling an extra instance pair into the removed set — a pair
    that is *not* an actual reduction-carried dependence — must fail the
    verifier's subset re-derivation."""
    proof = hist_plan.groups[0].proof
    victim = proof.removed[0]
    # the real S->R pairing maps target (0,0) to source (N-1,N-1);
    # (0,0) -> (0,0) is not a dependence of the SCoP at all
    bogus_pairs = PointRelation.from_arrays(
        np.concatenate([victim.pairs.in_part, [[0, 0]]]),
        np.concatenate([victim.pairs.out_part, [[0, 0]]]),
    )
    inflated = PrivatizationProof(
        claims=proof.claims,
        removed=(
            dataclasses.replace(victim, pairs=bogus_pairs),
        ) + proof.removed[1:],
    )
    with pytest.raises(PrivatizationError, match="rejected"):
        plan_from_proofs(hist_interp.scop, [inflated])


def test_wrong_identity_is_rejected_at_construction(hist_plan):
    """sum privates initialized to 1.0 would silently corrupt results;
    the group invariant refuses the value at construction time."""
    good = hist_plan.groups[0]
    with pytest.raises(PrivatizationError, match="identity"):
        dataclasses.replace(good, identity=1.0)


def test_tampered_identity_is_caught_on_the_execution_path(
    hist_interp, hist_plan
):
    """Bypassing the constructor (``object.__setattr__`` on the frozen
    dataclass) must still be caught: ``execute_privatized`` re-validates
    the plan before allocating any private."""
    group = hist_plan.groups[0]
    object.__setattr__(group, "identity", 1.0)
    info = detect_pipeline(
        hist_interp.scop, kinds=tuple(DepKind), validate=False
    )
    pinfo = privatize_info(info, hist_plan, parts=4)
    with pytest.raises(PrivatizationError, match="identity"):
        execute_privatized(hist_interp, pinfo, hist_plan)


def test_unknown_group_is_rejected(hist_plan):
    good = hist_plan.groups[0]
    with pytest.raises(PrivatizationError, match="unknown operator group"):
        dataclasses.replace(good, group="xor")


def test_join_omitted_schedule_fails_the_structural_recheck(hist_interp):
    """The legality oracle cannot see join tasks, so a schedule that
    drops the combine step still passes ``check_legality`` under the
    relaxed map — only ``verify_privatized_graph`` catches it.  This is
    the test that justifies the re-check's existence."""
    scop = hist_interp.scop
    plan = plan_privatization(scop)
    info = detect_pipeline(scop, kinds=tuple(DepKind), validate=False)
    pinfo = privatize_info(info, plan, parts=4)
    ast = generate_task_ast(pinfo)
    # build the member tasks but "forget" the join
    relaxed = relax(None, None, ast, plan=plan).arrays
    joinless = TaskGraph.from_task_ast(
        TaskAst(dataclasses.replace(relaxed, joins=()))
    )
    report = check_legality(scop, pinfo, joinless, relaxed=plan.relaxed())
    assert report.ok, "instance-level legality is blind to the missing join"
    check = verify_privatized_graph(scop, plan, joinless)
    assert not check.ok
    assert "exactly one join task" in check.issues[0]
    with pytest.raises(PrivatizationError, match="rejected"):
        check.raise_if_invalid()


def test_duplicated_join_also_fails_the_recheck(hist_interp):
    from repro.schedule import build_privatized_graph, join_label

    scop = hist_interp.scop
    plan = plan_privatization(scop)
    info = detect_pipeline(scop, kinds=tuple(DepKind), validate=False)
    pinfo = privatize_info(info, plan, parts=4)
    ast = generate_task_ast(pinfo)
    graph, joins = build_privatized_graph(ast, plan)
    graph.add_task(join_label("H"), 0, cost=1.0)  # rogue second join
    check = verify_privatized_graph(scop, plan, graph)
    assert not check.ok and "found 2" in check.issues[0]


def test_proof_with_pairs_on_non_accumulator_memory_is_rejected(
    hist_interp, hist_plan
):
    """Relabeling the removed relation onto a different array's
    statements fails the claim re-match."""
    proof = hist_plan.groups[0].proof
    forged = PrivatizationProof(
        claims=tuple(
            ReductionClaim(c.statement, "A", c.group, c.operator)
            for c in proof.claims
        ),
        removed=proof.removed,
    )
    with pytest.raises(PrivatizationError, match="rejected"):
        plan_from_proofs(hist_interp.scop, [forged])
