"""The cache-aware compile tier: cold/warm equivalence and proof safety."""

from __future__ import annotations

import asyncio
import importlib
import json

import numpy as np
import pytest

from repro.driver import TransformOptions
from repro.interp import Interpreter, execute_measured
from repro.schedule.privatize import PrivatizationError, plan_from_proofs
from repro.service import cached_analysis, options_from_dict, options_to_dict
from repro.service.server import _checksums
from repro.store import ArtifactStore, artifact_key
from repro.store.artifact import pack_artifact, unpack_artifact
from repro.store.disk import session_counters

from ..conftest import TWO_NEST_COPY

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


def _block_0_edited(artifact, edit):
    """``artifact`` with block 0's iterations replaced by
    ``edit(iterations)``, shapes and offsets kept consistent with the
    new rows, so the blob itself loads."""
    import dataclasses

    from repro.schedule.astgen import TaskAst, block_offsets
    from repro.schedule.serialize import dumps_task_ast, loads_task_ast

    a = loads_task_ast(artifact.task_ast_blob).arrays
    rows = edit(a.iterations(0))
    shapes = a.shapes.copy()
    shapes[0, 0] = len(rows)
    flat = np.concatenate((rows.ravel(), a.flat[a.offsets[1] :]))
    arrays = dataclasses.replace(
        a, shapes=shapes, offsets=block_offsets(shapes), flat=flat
    )
    blob = dumps_task_ast(TaskAst(arrays))
    loads_task_ast(blob)  # the blob alone is well formed
    return dataclasses.replace(artifact, task_ast_blob=blob)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda rows: rows[1:], id="drops-an-iteration"),
        pytest.param(
            lambda rows: np.concatenate((rows[:1], rows)),
            id="repeats-an-iteration",
        ),
    ],
)
def test_an_ast_not_covering_each_point_once_is_a_replay_failure(
    tmp_path, edit
):
    """A checksummed artifact whose task AST drops or repeats an
    iteration of block 0 fails the warm load's coverage check (each
    statement's points, once each): one counted replay failure, then a
    cold recompile that verifies — not a plan that runs the wrong
    instances."""
    from repro.driver import transform
    from repro.workloads import TABLE9

    source = TABLE9["P5"].source(6)
    opts = TransformOptions(workers=2)
    assert transform(source, {}, opts, cache_dir=str(tmp_path)).verified
    store = ArtifactStore(str(tmp_path))
    key = artifact_key(source, {}, opts)
    store.put(key, _block_0_edited(store.get(key), edit))
    before = session_counters().get("replay_failures", 0)
    result = transform(source, {}, opts, cache_dir=str(tmp_path))
    assert (result.cache_status, result.verified) == ("cold", True)
    assert session_counters().get("replay_failures", 0) == before + 1
    again = transform(source, {}, opts, cache_dir=str(tmp_path))
    assert (again.cache_status, again.verified) == ("warm", True)


def test_an_ast_listing_a_nest_out_of_order_still_covers_it(tmp_path):
    """Coverage is each point once, in any order: a nest whose block 0
    lists its iterations backwards passes the warm load's check (the
    sorted comparison), and its blockings equal the cold ones."""
    from repro.service import load_analysis

    store = ArtifactStore(str(tmp_path))
    opts = _options(coarsen=4)
    _, cold, _ = _compile(TWO_NEST_COPY, {"N": 8}, opts, store)
    key = artifact_key(TWO_NEST_COPY, {"N": 8}, opts)
    backwards = _block_0_edited(store.get(key), lambda rows: rows[::-1])
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
    warm = load_analysis(interp, opts, backwards)
    block = warm.task_ast.arrays.iterations(0)
    assert len(block) > 1 and not np.array_equal(
        block, cold.task_ast.arrays.iterations(0)
    )
    assert warm.info.blockings == cold.info.blockings


def test_the_default_p5_artifact_stores_each_fact_once(tmp_path):
    """The stored info is the pipeline maps and ``Q_S``: the blockings
    are the task AST's iterations and ends, ``Q_S^O`` the identity on
    those ends.  The bytes are deterministic, so the bound is exact
    (222,544 B while both were stored)."""
    import os

    from repro.driver import transform
    from repro.workloads import TABLE9

    source = TABLE9["P5"].source(14)
    opts = TransformOptions()
    transform(source, {}, opts, cache_dir=str(tmp_path))
    store = ArtifactStore(str(tmp_path))
    key = artifact_key(source, {}, opts)
    assert os.path.getsize(store.path_for(key)) <= 175_000
    assert sorted(store.get(key).info) == ["in_deps", "pipeline_maps"]


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
    """A cold transform builds the one graph ``check_legality`` proves;
    a warm one builds none — lowering reads the edges of the AST's
    arrays, and the result's graph is built only when read."""
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
        assert len(builds) == (status == "cold"), status


def _report_lines(result):
    """``result.report()`` without the measured line (wall times) and
    the legality line (a warm load carries no legality report)."""
    return [
        line for line in result.report().splitlines()
        if not line.startswith("measured execution")
        and line != str(result.legality)
    ]


def _facts(info):
    return info.pipeline_maps, info.blockings, info.in_deps


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize(
    "source,privatize",
    [
        pytest.param(TWO_NEST_COPY, False, id="standard"),
        pytest.param(DOTPROD, True, id="privatized"),
    ],
)
def test_a_warm_one_shot_builds_no_info_and_no_schedule(
    tmp_path, monkeypatch, source, privatize, backend
):
    """Count-based: the replay reads the task AST alone, so a warm
    verified one-shot loads no ``PipelineInfo`` and builds no schedule
    tree.  Read afterwards, ``info``, ``schedule`` and ``report()`` are
    the cold result's."""
    import repro.driver as driver
    from repro.pipeline.detect import PipelineInfo
    from tests.conftest import Counter

    opts = TransformOptions(
        workers=2, exec_backend=backend, privatize=privatize
    )
    cold = driver.transform(source, {"N": 8}, opts, cache_dir=str(tmp_path))
    loads = Counter(monkeypatch, PipelineInfo, "from_dict")
    schedules = Counter(monkeypatch, driver, "build_schedule")
    warm = driver.transform(source, {"N": 8}, opts, cache_dir=str(tmp_path))
    assert (warm.cache_status, warm.verified) == ("warm", True)
    assert warm.execution is not None
    assert (loads.calls, schedules.calls) == (0, 0)
    assert _facts(warm.info) == _facts(cold.info)
    assert warm.info.summary() == cold.info.summary()
    assert str(warm.schedule) == str(cold.schedule)
    assert _report_lines(warm) == _report_lines(cold)
    assert (loads.calls, schedules.calls) == (1, 1)


@pytest.mark.parametrize(
    "info",
    [
        {},
        {"pipeline_maps": 7, "in_deps": {}},
        {"pipeline_maps": [{"source": "S"}], "in_deps": {}},
        {"pipeline_maps": [], "in_deps": {"T": [{"relation": None}]}},
    ],
    ids=["empty", "not-a-list", "map-without-relation", "bad-in-dep"],
)
@pytest.mark.parametrize(
    "source,privatize",
    [
        pytest.param(TWO_NEST_COPY, False, id="standard"),
        pytest.param(DOTPROD, True, id="privatized"),
    ],
)
def test_a_malformed_info_section_never_surfaces(
    tmp_path, source, privatize, info
):
    """A well-checksummed artifact whose ``info`` section does not load
    still replays warm and verifies; reading ``info``, ``schedule`` or
    ``report()`` derives the info again, as a cold compile would (one
    counted replay failure), instead of raising."""
    import dataclasses

    from repro.driver import transform

    opts = TransformOptions(workers=2, privatize=privatize)
    cold = transform(source, {"N": 8}, opts, cache_dir=str(tmp_path))
    store = ArtifactStore(str(tmp_path))
    key = artifact_key(source, {"N": 8}, opts)
    store.put(key, dataclasses.replace(store.get(key), info=info))
    before = session_counters().get("replay_failures", 0)
    warm = transform(source, {"N": 8}, opts, cache_dir=str(tmp_path))
    assert (warm.cache_status, warm.verified) == ("warm", True)
    assert session_counters().get("replay_failures", 0) == before
    assert _report_lines(warm) == _report_lines(cold)
    assert str(warm.schedule) == str(cold.schedule)
    assert _facts(warm.info) == _facts(cold.info)
    assert session_counters().get("replay_failures", 0) == before + 1


def test_artifact_bytes_do_not_depend_on_wall_time():
    """Two artifacts of one analysis pack to identical bytes whatever
    the compile took: a wall time in the header would change a file's
    size with the float's repr."""
    from repro.driver import analyze
    from repro.service import build_artifact

    opts = TransformOptions(workers=2)
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
    analysis = analyze(interp, opts)
    packed = {
        pack_artifact(build_artifact(
            interp, TWO_NEST_COPY, {"N": 8}, opts, analysis,
            timings={"analyze_s": wall},
        ))
        for wall in (0.1, 0.123456789, 12.5, 1e-7)
    }
    assert len(packed) == 1


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
    from repro.workloads import MatmulKernel

    # the module, not the function ``repro.schedule.relax`` it exports
    relax = importlib.import_module("repro.schedule.relax")
    source = MatmulKernel(2, "mm").source(6)
    store = ArtifactStore(str(tmp_path))
    calls = []
    real = relax.dependence_relation
    monkeypatch.setattr(
        relax,
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


def test_schema_4_loop_only_reversed_artifact_is_a_miss(
    tmp_path, monkeypatch
):
    """Schema 4 stored a reversed statement as loop-only (``slice_form:
    false``, RPA063): its key is another key, its payload is refused
    even at this one, and the recompile gives the slice form."""
    import copy
    import dataclasses
    from pathlib import Path

    from repro.store import keys

    source = (
        Path(__file__).parents[2] / "examples" / "kernels" / "histogram.c"
    ).read_text()
    store = ArtifactStore(str(tmp_path))
    opts = _options(privatize=True)
    key = artifact_key(source, {"N": 8}, opts)
    _compile(source, {"N": 8}, opts, store)
    with monkeypatch.context() as m:
        m.setattr(keys, "SCHEMA_VERSION", 4)
        assert artifact_key(source, {"N": 8}, opts) != key
    artifact = store.get(key)
    fused = copy.deepcopy(artifact.fused)
    assert "slice_form" not in fused["entries"]["R"]["spec"]
    fused["entries"]["R"]["spec"]["slice_form"] = False
    fused["entries"]["R"].update(code="RPA063", reason="reversed access")
    store.put(key, dataclasses.replace(
        artifact, schema_version=4, fused=fused
    ))
    assert store.get(key) is None
    interp, _, status = _compile(source, {"N": 8}, opts, store)
    assert status == "cold"
    assert interp.fused_program.spec("R").slice_form
    assert interp.fused_program.fallbacks() == {}


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
    per-row replay (one that collects events) runs the forged chain
    block by block; the serial elision, and a threads or processes
    replay that runs the chain as one claim, run it over its whole
    domain, which is program order, so the forgery cannot mislead
    them."""
    from repro.driver import VerificationFailedError, transform

    opts = TransformOptions(
        exec_backend="threads", workers=2, collect_events=True
    )
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
    with pytest.raises(VerificationFailedError, match="threads plan replay"):
        transform(BACKWARD_IN_BLOCK, params, opts, cache_dir=str(tmp_path))

    interp, forged, status = _compile(BACKWARD_IN_BLOCK, params, opts, store)
    assert status == "warm"
    for backend in ("serial", "threads", "processes"):
        out, stats = execute_measured(
            interp, forged.info, backend=backend, workers=2,
            task_ast=forged.task_ast,
        )
        assert stats.fused_chains == (("S", "T"),)
        assert interp.oracle().equal(out), backend
        if backend != "serial":
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
    import numpy as np

    removed = [dict(r) for r in proof["removed"]]
    relation = removed[0]["relation"]
    pairs = np.concatenate([relation["pairs"], [[0, 0, 0, 0]]])
    removed[0] = dict(removed[0], relation=dict(relation, pairs=pairs))
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
    opts = TransformOptions(**{option: value})
    cold = transform(HISTOGRAM, {"N": 12}, opts, cache_dir=str(tmp_path))
    warm = transform(HISTOGRAM, {"N": 12}, opts, cache_dir=str(tmp_path))
    assert (cold.cache_status, warm.cache_status) == ("cold", "warm")
    assert report(warm) == report(cold)
    got, want = getattr(warm, field), getattr(cold, field)
    assert got is not None and want is not None
    assert got.describe() == want.describe()


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


# ----------------------------------------------------------------------
# a warm one-shot builds only what it replays
# ----------------------------------------------------------------------
def test_a_warm_transform_builds_no_graph_simulates_nothing_unpickles_nothing(
    tmp_path, monkeypatch
):
    """Warm, verified, serial: no ``TaskGraph`` is constructed, no
    simulation runs and nothing is unpickled — until the result's graph
    or simulation is read."""
    import pickle

    from repro import driver
    from repro.driver import transform
    from repro.tasking.task import TaskGraph

    counts = {"graphs": 0, "simulate": 0, "pickle.loads": 0}

    def counting(name, real):
        def wrapper(*a, **k):
            counts[name] += 1
            return real(*a, **k)
        return wrapper

    real_init = TaskGraph.__init__
    monkeypatch.setattr(
        TaskGraph, "__init__", counting("graphs", real_init)
    )
    monkeypatch.setattr(
        driver, "simulate", counting("simulate", driver.simulate)
    )
    monkeypatch.setattr(
        pickle, "loads", counting("pickle.loads", pickle.loads)
    )
    opts = TransformOptions(exec_backend="serial", workers=2)
    for status in ("cold", "warm"):
        counts.update(dict.fromkeys(counts, 0))
        result = transform(
            TWO_NEST_COPY, {"N": 8}, opts, cache_dir=str(tmp_path)
        )
        assert (result.cache_status, result.verified) == (status, True)
    assert counts == {"graphs": 0, "simulate": 0, "pickle.loads": 0}
    assert result.num_tasks == len(result.graph) and result.speedup > 0
    assert counts == {"graphs": 1, "simulate": 1, "pickle.loads": 0}


def _warm_cases():
    from pathlib import Path

    from repro.workloads import MatmulKernel, TABLE9
    from tests.test_driver import HISTOGRAM

    kernels = Path(__file__).parents[2] / "examples" / "kernels"

    cases = [
        pytest.param(
            TABLE9[p].source(n), {}, {"coarsen": coarsen, "hybrid": hybrid},
            id=p + (n != 6) * f"@{n}" + (coarsen != 1) * f"-c{coarsen}"
            + hybrid * "-hybrid",
        )
        for p in sorted(TABLE9, key=lambda p: int(p[1:]))
        for n in (6, 10)
        for coarsen in (1, 3)
        for hybrid in (False, True)
    ]
    cases.append(pytest.param(
        HISTOGRAM, {"N": 6}, {"privatize": True}, id="privatized-histogram"
    ))
    cases.append(pytest.param(
        (kernels / "sumstencil.c").read_text(), {"N": 8}, {"privatize": True},
        id="privatized-sumstencil",
    ))
    cases.append(pytest.param(
        MatmulKernel(2, "mm").source(6), {}, {"hybrid": True},
        id="hybrid-2mm",
    ))
    return cases


@pytest.mark.parametrize("source,params,extra", _warm_cases())
def test_warm_results_and_plans_equal_cold_ones(
    tmp_path, source, params, extra
):
    """A warm result's info, lazily built graph, simulation, speed-up
    and report equal the cold result's (the legality line aside: a warm
    load does not re-derive it), a served compile of the stored
    artifact reports the same info, and the warm lowered plan has the
    cold plan's rows, schedule and runs."""
    from repro.driver import analyze, transform
    from repro.pipeline import out_dependency
    from repro.schedule.tree import MarkNode

    from .test_serve import _request, _with_server

    opts = TransformOptions(workers=2, **extra)
    cold = transform(source, params, opts, cache_dir=str(tmp_path))
    warm = transform(source, params, opts, cache_dir=str(tmp_path))
    assert (cold.cache_status, warm.cache_status) == ("cold", "warm")
    assert warm.verified is True
    # the blockings come back from the task AST, Q_S^O from a blocking
    assert warm.info.blockings == cold.info.blockings
    assert warm.info.in_deps == cold.info.in_deps
    assert warm.info.summary() == cold.info.summary()
    marks = [
        n.payload for n in warm.schedule.walk() if isinstance(n, MarkNode)
    ]
    assert [m.statement for m in marks] == list(cold.info.blockings)
    for m in marks:
        assert m.out_dep == out_dependency(cold.info.blockings[m.statement])

    async def served(host, port, server):
        return await _request(host, port, {
            "op": "compile", "source": source, "params": params,
            "options": options_to_dict(opts),
        })

    reply = asyncio.run(_with_server(str(tmp_path), served))
    assert (reply["status"], reply["summary"]) == ("warm", cold.info.summary())
    assert warm.num_tasks == cold.num_tasks == len(cold.graph)
    assert warm.graph.preds == cold.graph.preds
    assert [
        (t.statement, t.block_id, t.cost) for t in warm.graph.tasks
    ] == [(t.statement, t.block_id, t.cost) for t in cold.graph.tasks]
    assert warm.simulation.makespan == cold.simulation.makespan
    assert np.array_equal(warm.simulation.finish, cold.simulation.finish)
    assert warm.speedup == cold.speedup

    def report(result):
        return [
            line for line in result.report().splitlines()
            if not line.startswith("LegalityReport")
        ]

    assert report(warm) == report(cold)

    def lowered(analysis, interp):
        return interp.exec_plan(analysis.info, analysis.task_ast)

    interp = Interpreter.from_source(source, params, fuse=opts.fuse)
    want = lowered(analyze(interp, opts), interp)
    interp, warm_a, status = _compile(
        source, params, opts, ArtifactStore(str(tmp_path))
    )
    assert status == "warm"
    got = lowered(warm_a, interp)
    assert [r.stream for r in got.rows] == [r.stream for r in want.rows]
    for a, b in zip(got.rows, want.rows):
        assert a.payload.keys() == b.payload.keys()
        if "iters" in a.payload:
            assert np.array_equal(a.payload["iters"], b.payload["iters"])
            assert a.payload["rects"] == b.payload["rects"]
        assert a.payload.get("remap") == b.payload.get("remap")
        assert a.payload.get("combine") == b.payload.get("combine")
    assert got.schedule == want.schedule
    assert [(r.rows, r.rects) for r in got.runs] == [
        (r.rows, r.rects) for r in want.runs
    ]
    assert [r.kernel and r.kernel.spec for r in got.runs] == [
        r.kernel and r.kernel.spec for r in want.runs
    ]
    assert got.stats == want.stats
