"""The cache-aware compile tier: cold/warm equivalence and proof safety."""

from __future__ import annotations

import json

import pytest

from repro.driver import TransformOptions
from repro.interp import Interpreter, execute_measured
from repro.schedule.privatize import PrivatizationError, plan_from_proofs
from repro.service import cached_analysis, options_from_dict, options_to_dict
from repro.service.server import _checksums
from repro.store import ArtifactStore, artifact_key
from repro.store.artifact import pack_artifact, unpack_artifact
from repro.store.disk import session_counters

from ..conftest import LISTING3, TWO_NEST_COPY

DOTPROD = """
for(i=0; i<N; i++)
  S: s[0] += dot(a[i], b[i]);
"""

BACKENDS = ("serial", "threads", "processes")


def _options(**kw) -> TransformOptions:
    base = dict(check=False, verify=False, workers=2)
    base.update(kw)
    return TransformOptions(**base)


def _compile(source, params, options, store):
    interp = Interpreter.from_source(source, params, fuse=options.fuse)
    analysis, status = cached_analysis(
        interp, source, params, options, store
    )
    return interp, analysis, status


# ----------------------------------------------------------------------
# options <-> dict
# ----------------------------------------------------------------------
def test_options_round_trip_through_json():
    opts = _options(coarsen=3, fuse="off", privatize_parts=5)
    wire = json.loads(json.dumps(options_to_dict(opts)))
    assert options_from_dict(wire) == opts


def test_options_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown"):
        options_from_dict({"coarsen": 2, "turbo": True})
    # retired options are read-only properties or gone, not wire fields
    for retired in (
        "vectorize", "static_checks", "portfolio", "overhead", "cost_model"
    ):
        with pytest.raises(ValueError, match=retired):
            options_from_dict({retired: None})


def test_options_round_trip_preserves_the_cache_key():
    opts = _options(coarsen=2)
    wire = json.loads(json.dumps(options_to_dict(opts)))
    assert artifact_key(TWO_NEST_COPY, {"N": 8}, opts) == artifact_key(
        TWO_NEST_COPY, {"N": 8}, options_from_dict(wire)
    )


# ----------------------------------------------------------------------
# cold -> warm equivalence
# ----------------------------------------------------------------------
def test_cold_then_warm_and_results_bit_identical(tmp_path):
    """A store-served compile must execute to byte-identical arrays on
    every backend, from a fresh interpreter."""
    store = ArtifactStore(str(tmp_path))
    params = {"N": 8}
    opts = _options()

    interp, analysis, status = _compile(TWO_NEST_COPY, params, opts, store)
    assert status == "cold"
    cold_sums = {}
    for backend in BACKENDS:
        out, _ = execute_measured(
            interp, analysis.info, backend=backend, workers=2
        )
        cold_sums[backend] = _checksums(out)

    interp2, analysis2, status2 = _compile(TWO_NEST_COPY, params, opts, store)
    assert status2 == "warm"
    assert analysis2.cache_status == "warm"
    for backend in BACKENDS:
        out, _ = execute_measured(
            interp2, analysis2.info, backend=backend, workers=2
        )
        assert _checksums(out) == cold_sums[backend], backend
    # and both agree with sequential execution
    seq = interp2.run_sequential(interp2.new_store())
    assert _checksums(seq) == cold_sums["serial"]


def test_warm_analysis_matches_cold_structure(tmp_path):
    store = ArtifactStore(str(tmp_path))
    opts = _options(fuse="auto")
    _, cold, _ = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    _, warm, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "warm"
    assert len(warm.graph) == len(cold.graph)
    assert warm.info.pipelined_statements() == cold.info.pipelined_statements()
    assert warm.schedule is not None


def test_corrupted_artifact_recompiles_not_crashes(tmp_path):
    store = ArtifactStore(str(tmp_path))
    opts = _options()
    _, _, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "cold"
    path = store.path_for(artifact_key(TWO_NEST_COPY, {"N": 8}, opts))
    with open(path, "r+b") as fh:
        fh.truncate(25)
    _, analysis, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "cold"
    assert analysis.cache_status == "cold"
    # the recompile healed the store
    _, _, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "warm"


def test_task_ast_blob_without_magic_is_a_replay_failure(tmp_path):
    """Only the magic-prefixed v2 blob is read back; anything else in an
    otherwise intact artifact demotes to a recompile."""
    import dataclasses
    import io

    import numpy as np

    from repro.schedule import loads_task_ast

    store = ArtifactStore(str(tmp_path))
    opts = _options()
    _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    key = artifact_key(TWO_NEST_COPY, {"N": 8}, opts)
    zipped = io.BytesIO()
    np.savez(zipped, flat=np.arange(4))  # a whole .npz, as v1 stored it
    with pytest.raises(ValueError, match="magic"):
        loads_task_ast(zipped.getvalue())
    bad = dataclasses.replace(store.get(key), task_ast_blob=zipped.getvalue())
    store.put(key, bad)
    before = session_counters().get("replay_failures", 0)
    _, _, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "cold"
    assert session_counters().get("replay_failures", 0) == before + 1


def test_self_dependence_analysis_runs_once_cold_never_warm(
    tmp_path, monkeypatch
):
    """The Presburger recurrence check belongs to the compile: one call
    per statement when the fusion plan is built, none once a stored plan
    was adopted — not on the warm run path either."""
    from repro.interp import compile as interp_compile

    calls = []
    real = interp_compile.has_flow_self_dependence
    monkeypatch.setattr(
        interp_compile,
        "has_flow_self_dependence",
        lambda scop, stmt: calls.append(stmt.name) or real(scop, stmt),
    )
    store = ArtifactStore(str(tmp_path))
    opts = _options()
    interp, cold, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "cold"
    execute_measured(interp, cold.info)
    assert sorted(calls) == ["S", "T"]

    calls.clear()
    interp, warm, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "warm"
    execute_measured(interp, warm.info)
    assert calls == []


@pytest.mark.parametrize(
    "source,privatize",
    [
        pytest.param(TWO_NEST_COPY, False, id="standard"),
        pytest.param(DOTPROD, True, id="privatized"),
    ],
)
def test_transform_generates_and_lowers_the_task_ast_once(
    tmp_path, source, privatize
):
    """The run path lowers from the AST the analysis produced (cold) or
    the store deserialized (warm) — it never regenerates it, and the
    verification run and the measured run share one lowered plan."""
    from repro.driver import transform
    from repro.obs import spans as obs_spans

    opts = TransformOptions(
        exec_backend="serial", workers=2, privatize=privatize
    )

    def span_counts():
        with obs_spans.recording() as rec:
            result = transform(
                source, {"N": 8}, opts, cache_dir=str(tmp_path)
            )
        assert result.verified and result.execution is not None
        names = [s.name for s in rec.spans]
        return names.count("schedule.astgen"), names.count("exec.lower")

    assert span_counts() == (1, 1)  # cold
    assert span_counts() == (0, 1)  # warm


@pytest.mark.parametrize(
    "source,privatize",
    [
        pytest.param(TWO_NEST_COPY, False, id="standard"),
        pytest.param(DOTPROD, True, id="privatized"),
    ],
)
def test_a_verified_transform_builds_its_task_graph_once(
    tmp_path, monkeypatch, source, privatize
):
    """The replay lowers from the graph ``check_legality`` proved (cold)
    or the store's load rebuilt (warm): one build per transform."""
    from repro.driver import transform
    from repro.tasking import TaskGraph

    builds = []
    real = TaskGraph.from_task_ast
    monkeypatch.setattr(
        TaskGraph, "from_task_ast",
        staticmethod(lambda *a, **k: builds.append(1) or real(*a, **k)),
    )
    opts = TransformOptions(workers=2, privatize=privatize)
    for status in ("cold", "warm"):
        del builds[:]
        result = transform(source, {"N": 8}, opts, cache_dir=str(tmp_path))
        assert result.verified is True and result.cache_status == status
        assert len(builds) == 1, status


# ----------------------------------------------------------------------
# chain-fusion verdicts: decided at compile, carried in the fusion plan
# ----------------------------------------------------------------------
#: Every T instance reads A[1][0].  S and T get the identical blocking
#: whose first block is row 0 plus (1,0) — two rectangles — and every
#: token resolves at its own block index, so the chain S+T passes each
#: structural condition; a chain closure would run T over row 0 before
#: S writes A[1][0].  Only the ``fusion_legal_pair`` verdict stops it.
BACKWARD_IN_BLOCK = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: A[i][j] = f(A[i][j]);
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    T: B[i][j] = g(A[i][j], A[1][0]);
"""


def _forged_verdicts(artifact):
    """Flip every illegal chain-fusion verdict to legal."""
    import dataclasses

    table = artifact.fused["legal_pairs"]
    assert [v for *_, v in table].count(False) >= 1
    fused = dict(artifact.fused, legal_pairs=[[s, t, True] for s, t, _ in table])
    return dataclasses.replace(artifact, fused=fused)


@pytest.fixture
def fusion_verdict_calls(monkeypatch):
    """The ``(src, tgt)`` pairs ``fusion_legal_pair`` is asked about."""
    from repro.interp import fused

    calls = []
    real = fused.fusion_legal_pair
    monkeypatch.setattr(
        fused,
        "fusion_legal_pair",
        lambda scop, src, tgt: calls.append((src.name, tgt.name))
        or real(scop, src, tgt),
    )
    return calls


def test_warm_transform_derives_no_verdict_and_executes_once(
    tmp_path, monkeypatch, fusion_verdict_calls
):
    """Warm one-shot = parse + load + one oracle + one replay + compare:
    the Presburger question is answered from the stored table, while
    the structural chain conditions are still evaluated at lowering."""
    from repro.driver import transform
    from repro.interp import plan as plan_mod
    from repro.obs import spans as obs_spans

    oracle_runs, chain_plans = [], []
    real_seq = Interpreter.run_sequential
    monkeypatch.setattr(
        Interpreter,
        "run_sequential",
        lambda self, store: oracle_runs.append(1) or real_seq(self, store),
    )
    real_plan = plan_mod.plan_chain_groups
    monkeypatch.setattr(
        plan_mod,
        "plan_chain_groups",
        lambda *a: chain_plans.append(1) or real_plan(*a),
    )
    opts = TransformOptions(exec_backend="serial", workers=2)

    def one_shot():
        del fusion_verdict_calls[:], oracle_runs[:], chain_plans[:]
        with obs_spans.recording() as rec:
            result = transform(
                TWO_NEST_COPY, {"N": 8}, opts, cache_dir=str(tmp_path)
            )
        assert result.verified is True
        assert result.execution.fused_chains == (("S", "T"),)
        names = [s.name for s in rec.spans]
        return (
            list(fusion_verdict_calls),
            len(oracle_runs),
            names.count("exec.measured"),
            len(chain_plans),
        )

    assert one_shot() == ([("S", "T")], 1, 1, 1)  # cold: asked once
    assert one_shot() == ([], 1, 1, 1)  # warm: from the table


def test_warm_hybrid_load_asks_no_presburger_question(tmp_path, monkeypatch):
    """The relaxation travels in the stored AST (``chained`` and the
    self-tokens): a warm load plus replay re-derives no intra-statement
    dependence and runs exactly the Presburger operations the same load
    runs without ``hybrid`` (rebuilding the schedule tree)."""
    from repro.presburger import cache as presburger_cache
    from repro.service import load_analysis
    from repro.tasking import hybrid
    from repro.workloads import MatmulKernel

    source = MatmulKernel(2, "mm").source(6)
    store = ArtifactStore(str(tmp_path))
    calls = []
    real = hybrid.dependence_relation
    monkeypatch.setattr(
        hybrid,
        "dependence_relation",
        lambda *a, **k: calls.append(a) or real(*a, **k),
    )

    def warm_ops(opts):
        _, cold, status = _compile(source, {}, opts, store)
        assert status == "cold"
        del calls[:]
        interp = Interpreter.from_source(source, {}, fuse=opts.fuse)
        artifact = store.get(artifact_key(source, {}, opts))
        before = presburger_cache.op_call_counts()
        warm = load_analysis(interp, opts, artifact)
        out, _ = execute_measured(
            interp, warm.info, backend="threads", workers=2,
            task_ast=warm.task_ast,
        )
        after = presburger_cache.op_call_counts()
        assert interp.run_sequential(interp.new_store()).equal(out)
        assert warm.graph.preds == cold.graph.preds
        return warm, {
            op: n - before.get(op, 0)
            for op, n in after.items()
            if n != before.get(op, 0)
        }

    _, plain_ops = warm_ops(_options())
    warm, hybrid_ops = warm_ops(_options(hybrid=True))
    assert [n.chained for n in warm.task_ast.nests] == [False, False]
    assert calls == [] and hybrid_ops == plain_ops


def test_parent_schema_hybrid_artifact_is_a_miss(tmp_path, monkeypatch):
    """Schema 1 had no ``chained`` flag: a hybrid artifact written then
    must not load as a plain chain.  Its key is another key, and its
    payload is refused even at this one."""
    import dataclasses

    from repro.schedule import generate_task_ast
    from repro.schedule.serialize import dumps_task_ast
    from repro.store import keys
    from repro.workloads import MatmulKernel

    source = MatmulKernel(2, "mm").source(6)
    store = ArtifactStore(str(tmp_path))
    opts = _options(hybrid=True)
    key = artifact_key(source, {}, opts)
    _, cold, _ = _compile(source, {}, opts, store)
    with monkeypatch.context() as m:
        m.setattr(keys, "SCHEMA_VERSION", 1)
        assert artifact_key(source, {}, opts) != key
    stale = dataclasses.replace(
        store.get(key),
        schema_version=1,
        task_ast_blob=dumps_task_ast(generate_task_ast(cold.info)),
    )
    store.put(key, stale)
    assert store.get(key) is None
    _, again, status = _compile(source, {}, opts, store)
    assert status == "cold"
    assert not any(n.chained for n in again.task_ast.nests)


def test_verdict_table_round_trips_and_is_optional(
    tmp_path, fusion_verdict_calls
):
    import dataclasses

    from repro.interp.fused import FusedProgram

    store = ArtifactStore(str(tmp_path))
    opts = _options()
    key = artifact_key(TWO_NEST_COPY, {"N": 8}, opts)
    _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    artifact = store.get(key)
    assert artifact.fused["legal_pairs"] == [["S", "T", True]]
    wire = json.loads(json.dumps(artifact.fused))
    program = FusedProgram.from_dict(wire)
    assert program.legal_pairs == {("S", "T"): True}
    assert program.to_dict() == artifact.fused

    # the table is required: an artifact without it is a replay
    # failure, recompiled cold (asking the one question again), never a
    # crash
    legacy = {k: v for k, v in artifact.fused.items() if k != "legal_pairs"}
    store.put(key, dataclasses.replace(artifact, fused=legacy))
    del fusion_verdict_calls[:]
    before = session_counters().get("replay_failures", 0)
    interp, cold, status = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    assert status == "cold"
    assert session_counters().get("replay_failures", 0) == before + 1
    assert fusion_verdict_calls == [("S", "T")]
    assert store.get(key).fused["legal_pairs"] == [["S", "T", True]]
    _, stats = execute_measured(interp, cold.info, task_ast=cold.task_ast)
    assert stats.fused_chains == (("S", "T"),)


def test_forged_verdict_ends_in_verification_failure(tmp_path):
    """The stored table has the standing of the stored ClosureSpecs: it
    is trusted to plan, and what it planned is caught by the oracle
    compare — a forged "legal" never reaches a returned result.  A
    per-row replay (processes) runs the forged chain block by block; the
    serial elision, and a threaded replay that runs the chain as one
    claim, run it over its whole domain, which is program order, so the
    forgery cannot mislead them."""
    from repro.driver import VerificationFailedError, transform

    opts = TransformOptions(exec_backend="processes", workers=2)
    params = {"N": 4}
    honest = transform(
        BACKWARD_IN_BLOCK, params, opts, cache_dir=str(tmp_path)
    )
    assert honest.verified is True
    assert honest.execution.fused_chains == ()

    store = ArtifactStore(str(tmp_path))
    key = artifact_key(BACKWARD_IN_BLOCK, params, opts)
    artifact = store.get(key)
    assert artifact.fused["legal_pairs"] == [["S", "T", False]]
    store.put(key, _forged_verdicts(artifact))
    with pytest.raises(VerificationFailedError, match="processes plan replay"):
        transform(BACKWARD_IN_BLOCK, params, opts, cache_dir=str(tmp_path))

    interp, forged, status = _compile(BACKWARD_IN_BLOCK, params, opts, store)
    assert status == "warm"
    for backend in ("serial", "threads"):
        out, stats = execute_measured(
            interp, forged.info, backend=backend, workers=2,
            task_ast=forged.task_ast,
        )
        assert stats.fused_chains == (("S", "T"),)
        assert interp.oracle().equal(out), backend
    assert stats.scheduler["claims"] == 1 < stats.scheduler["tasks"]


# ----------------------------------------------------------------------
# privatization proofs: durable, never trusted
# ----------------------------------------------------------------------
def _wrong_operator(proof):
    """Flip the proved operator — claims an unproven reduction."""
    claims = [dict(c) for c in proof["claims"]]
    claims[0] = dict(claims[0], operator="-")
    return dict(proof, claims=claims)


def _extra_pair(proof):
    """Smuggle in S(0,0) -> R(0,0): distinct cells, no dependence."""
    removed = [dict(r) for r in proof["removed"]]
    extra = {"target": [0, 0], "source": [0, 0]}
    pairs = [*removed[0]["instance_pairs"], extra]
    removed[0] = dict(removed[0], instance_pairs=pairs)
    return dict(proof, removed=removed)


def _foreign_key(proof):
    """File the S -> R pairs under R -> S, which has no dependence."""
    removed = [dict(r) for r in proof["removed"]]
    first = removed[0]
    removed[0] = dict(first, source=first["target"], target=first["source"])
    return dict(proof, removed=removed)


def _tampered(artifact, tamper=_wrong_operator):
    import dataclasses

    proofs = list(artifact.proofs)
    assert proofs, "expected a privatized artifact with proofs"
    proofs[0] = tamper(proofs[0])
    return dataclasses.replace(artifact, proofs=proofs)


def test_privatized_cold_then_warm(tmp_path):
    store = ArtifactStore(str(tmp_path))
    opts = _options(privatize=True)
    _, cold, status = _compile(DOTPROD, {"N": 32}, opts, store)
    assert status == "cold"
    assert cold.privatized and cold.plan is not None
    _, warm, status = _compile(DOTPROD, {"N": 32}, opts, store)
    assert status == "warm"
    assert warm.privatized
    assert len(warm.plan.groups) == len(cold.plan.groups)
    assert len(warm.joins) == len(cold.joins)


@pytest.mark.parametrize(
    "option,value,field",
    [
        pytest.param("privatize", True, "privatization", id="privatize"),
        pytest.param("reduce_deps", True, "reduction", id="reduce_deps"),
        pytest.param("tune", True, "tuning", id="tune"),
    ],
)
def test_warm_transform_carries_what_a_cold_one_does(
    tmp_path, option, value, field
):
    """A warm result carries the record its option promises, equal to
    the cold one's.  (The legality report is the one line a warm report
    lacks: the store records its verdict, a warm load does not re-derive
    it.)"""
    from repro.driver import transform
    from tests.test_driver import HISTOGRAM

    def report(result):
        return [
            line for line in result.report().splitlines()
            if not line.startswith("LegalityReport")
        ]

    # the histogram needs its proofs (flow-only detection refuses it)
    source = HISTOGRAM if option == "privatize" else LISTING3
    opts = TransformOptions(**{option: value})
    cold = transform(source, {"N": 12}, opts, cache_dir=str(tmp_path))
    warm = transform(source, {"N": 12}, opts, cache_dir=str(tmp_path))
    assert (cold.cache_status, warm.cache_status) == ("cold", "warm")
    assert report(warm) == report(cold)
    got, want = getattr(warm, field), getattr(cold, field)
    assert got is not None and want is not None
    if field == "privatization":
        assert got.describe() == want.describe()
    else:
        assert got.as_dict() == want.as_dict()


@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(_extra_pair, id="extra-pair"),
        pytest.param(_wrong_operator, id="wrong-operator"),
        pytest.param(_foreign_key, id="foreign-key"),
    ],
)
def test_tampered_proof_is_refused_and_recompiled(tmp_path, tamper):
    """Each forgery asks for more than the derived proof holds, so the
    warm load verifies it on its own, names the failure and recompiles."""
    from tests.test_driver import HISTOGRAM

    store = ArtifactStore(str(tmp_path))
    opts = _options(privatize=True)
    params = {"N": 8}
    interp, _, status = _compile(HISTOGRAM, params, opts, store)
    assert status == "cold"
    key = artifact_key(HISTOGRAM, params, opts)
    artifact = store.get(key)
    assert artifact.proofs[0]["removed"][0]["source"] == "S"
    bad = _tampered(artifact, tamper)

    # 1. the replay itself must reject the forged proof outright
    from repro.analysis.portfolio.privatize import PrivatizationProof

    forged = [PrivatizationProof.from_dict(p) for p in bad.proofs]
    with pytest.raises(PrivatizationError, match="proof rejected"):
        plan_from_proofs(interp.scop, forged)

    # 2. the compile tier must demote the poisoned artifact to a
    #    recompile (replay failure), never serve or crash on it
    store.put(key, bad)
    before = session_counters().get("replay_failures", 0)
    _, analysis, status = _compile(HISTOGRAM, params, opts, store)
    assert status == "cold"
    assert analysis.privatized
    assert session_counters().get("replay_failures", 0) == before + 1
    # the recompile overwrote the forgery with a verifiable artifact
    _, warm, status = _compile(HISTOGRAM, params, opts, store)
    assert status == "warm"
    assert all(g.verification.ok for g in warm.plan.groups)


def test_tampered_bytes_fail_checksum_before_proof_level(tmp_path):
    """Bit-level tampering is caught by the artifact checksum, one layer
    below the proof verifier."""
    store = ArtifactStore(str(tmp_path))
    opts = _options(privatize=True)
    _compile(DOTPROD, {"N": 32}, opts, store)
    path = store.path_for(artifact_key(DOTPROD, {"N": 32}, opts))
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[-1] ^= 0xFF
        fh.seek(0)
        fh.write(data)
    assert store.get(artifact_key(DOTPROD, {"N": 32}, opts)) is None
    assert store.counters["corrupt"] == 1


def test_pack_round_trip_preserves_proofs(tmp_path):
    store = ArtifactStore(str(tmp_path))
    opts = _options(privatize=True)
    _compile(DOTPROD, {"N": 32}, opts, store)
    key = artifact_key(DOTPROD, {"N": 32}, opts)
    art = store.get(key)
    assert art.privatized and art.proofs
    assert unpack_artifact(pack_artifact(art)) == art
