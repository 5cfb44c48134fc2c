"""Planning facts of the privatization transformation stage.

What :func:`repro.schedule.plan_privatization` may and may not claim:
group membership, the empty-residual gate, the re-blocking arithmetic,
join-task wiring and the JSON replay round-trip feeding
``run --privatize``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.portfolio.privatize import PrivatizationProof
from repro.interp import Interpreter
from repro.pipeline.detect import detect_pipeline
from repro.schedule import (
    IDENTITIES,
    check_legality,
    build_privatized_graph,
    join_label,
    plan_from_proofs,
    plan_privatization,
    privatize_info,
    verify_privatized_graph,
)
from repro.schedule.privatize import chunked_blocking
from repro.scop import DepKind

from tests.conftest import dense_reach, iterations_by_block

HISTOGRAM = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""

DOTPROD = """
for(i=0; i<N; i++)
  S: s[0] += dot(a[i], b[i]);
"""

SUBSWAP = """
for(i=0; i<N; i++)
  S: T[i] = A[i] - T[i];
for(i=0; i<N; i++)
  R: T[N-1-i] = B[i] - T[N-1-i];
"""

MIXED_GROUPS = """
for(i=0; i<N; i++)
  S: T[i] += A[i];
for(i=0; i<N; i++)
  R: T[i] = min(T[i], B[i]);
"""

OUTSIDE_READER = """
for(i=0; i<N; i++)
  S: T[i] += A[i];
for(i=0; i<N; i++)
  R: C[i] = f(T[i]);
"""


def scop_of(source, n=8):
    return Interpreter.from_source(source, {"N": n}).scop


def test_histogram_plan_forms_one_sum_group():
    plan = plan_privatization(scop_of(HISTOGRAM))
    assert len(plan.groups) == 1
    g = plan.groups[0]
    assert g.array == "H"
    assert g.group == "sum"
    assert g.identity == IDENTITIES["sum"] == 0.0
    assert set(g.statements) == {"S", "R"}
    assert g.verification.ok
    # the proof covers self pairs too: S->S, S->R, R->R relations exist
    keys = {(r.source, r.target) for r in g.proof.removed}
    assert ("S", "R") in keys
    assert plan.statements == frozenset({"S", "R"})


def test_dotprod_single_nest_self_pairs_form_a_group():
    """The portfolio's pair proofs are cross-nest only; the plan must
    still privatize a single-nest reduction from its self pairs."""
    plan = plan_privatization(scop_of(DOTPROD))
    assert [g.array for g in plan.groups] == ["s"]
    assert plan.groups[0].statements == ("S",)
    keys = {(r.source, r.target) for r in plan.groups[0].proof.removed}
    assert keys == {("S", "S")}


def test_subswap_never_forms_a_group():
    plan = plan_privatization(scop_of(SUBSWAP))
    assert plan.groups == ()


def test_mixed_operator_groups_are_refused_with_reason():
    plan = plan_privatization(scop_of(MIXED_GROUPS))
    assert plan.groups == ()
    assert plan.rejected and plan.rejected[0][0] == "T"
    assert "operator groups" in plan.rejected[0][1]


def test_outside_reader_is_refused():
    """A non-reduction statement reading the accumulator keeps a true
    dependence into the join region — the array must not privatize."""
    plan = plan_privatization(scop_of(OUTSIDE_READER))
    assert plan.groups == ()
    assert plan.rejected
    array, reason = plan.rejected[0]
    assert array == "T"
    assert "R" in reason


def test_relaxed_map_covers_every_removed_relation():
    scop = scop_of(HISTOGRAM)
    plan = plan_privatization(scop)
    relaxed = plan.relaxed()
    assert relaxed
    for (src, tgt, kind), rel in relaxed.items():
        assert isinstance(kind, DepKind)
        assert len(rel) > 0


def test_chunked_blocking_partitions_the_domain():
    scop = scop_of(HISTOGRAM, n=8)
    domain = scop.statement("S").points
    for parts in (1, 3, 4, 7, 200):
        blocking = chunked_blocking("S", domain, parts)
        assert blocking.num_blocks == min(parts, len(domain))
        covered = np.concatenate(iterations_by_block(blocking))
        assert np.array_equal(covered, domain.points)


def test_privatize_info_drops_member_maps_and_reblocks():
    scop = scop_of(HISTOGRAM)
    plan = plan_privatization(scop)
    info = detect_pipeline(scop, kinds=tuple(DepKind), validate=False)
    assert info.pipeline_maps  # the barrier maps exist before
    pinfo = privatize_info(info, plan, parts=4)
    assert pinfo.pipeline_maps == {}
    assert pinfo.blockings["S"].num_blocks == 4
    assert pinfo.blockings["R"].num_blocks == 4


def test_privatized_graph_has_one_join_after_all_members():
    scop = scop_of(HISTOGRAM)
    plan = plan_privatization(scop)
    info = detect_pipeline(scop, kinds=tuple(DepKind), validate=False)
    pinfo = privatize_info(info, plan, parts=4)
    from repro.schedule import generate_task_ast

    ast = generate_task_ast(pinfo)
    graph, joins = build_privatized_graph(ast, plan)
    assert set(joins) == {"H"}
    join = graph.tasks[joins["H"]]
    assert join.statement == join_label("H")
    assert join.block is None
    # every member block directly precedes the join; members are unchained
    members = [t for t in graph.tasks if t.statement in ("S", "R")]
    assert len(members) == 8
    for t in members:
        assert joins["H"] in graph.succs[t.task_id]
    reach = dense_reach(graph)
    for a in members:
        for b in members:
            if a.task_id != b.task_id:
                assert not reach[a.task_id, b.task_id]
    assert verify_privatized_graph(scop, plan, graph).ok
    report = check_legality(scop, pinfo, graph, relaxed=plan.relaxed())
    assert report.ok


def test_proof_json_round_trip_replays_into_the_same_plan():
    """Satellite: portfolio artifacts are replayable ``--privatize``
    inputs — ``from_dict(to_dict())`` must verify and replan."""
    scop = scop_of(HISTOGRAM)
    plan = plan_privatization(scop)
    proof = plan.groups[0].proof
    doc = proof.to_dict()
    # the serialized form carries the full instance-pair mapping
    assert all(r["instance_pairs"] for r in doc["removed"])
    assert all(
        len(r["instance_pairs"]) == r["pairs"] for r in doc["removed"]
    )
    replayed = PrivatizationProof.from_dict(doc)
    assert replayed.removed_pairs == proof.removed_pairs
    assert replayed.relaxed_map().keys() == proof.relaxed_map().keys()
    replan = plan_from_proofs(scop, [replayed])
    assert replan.arrays == plan.arrays
    assert replan.statements == plan.statements


def test_portfolio_json_includes_replayable_proof_mapping():
    """``repro analyze --portfolio`` output embeds the proof →
    relaxed-dependence mapping (the from_dict input)."""
    from repro.analysis.portfolio import run_portfolio

    scop = scop_of(HISTOGRAM)
    report = run_portfolio(scop)
    doc = report.to_dict()
    proofs = [
        p["privatization_proof"]
        for p in doc["pairs"]
        if p.get("privatization_proof")
    ]
    assert proofs
    rebuilt = PrivatizationProof.from_dict(proofs[0])
    assert rebuilt.removed_pairs > 0


def test_empty_plan_is_inert():
    plan = plan_privatization(scop_of(SUBSWAP))
    assert plan.relaxed() == {}
    assert plan.statements == frozenset()
    plan.validate()  # nothing to reject
    info = detect_pipeline(scop_of(SUBSWAP), kinds=tuple(DepKind))
    assert privatize_info(info, plan, parts=4) is info
