"""The cached execution plan: lower once, replay many.

Count-based (no wall-clock) checks that lowering work happens for
exactly one run per ``(interpreter, info)``, that the cache invalidates
on the events that change the lowered program and stays bounded, that a
replay makes a known number of kernel calls and instrumentation hits
(the Tier-1 guards of dispatch cost: the walls are the ledger's), and a
replay battery: every run of one plan — on every backend, and from two
threads at once — is bit-identical to the sequential oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.interp.plan as plan_mod
import repro.schedule
from repro.interp import (
    Interpreter,
    execute_measured,
    execute_privatized,
    privatized_matches,
)
from repro.interp.interp import EXEC_PLAN_CACHE_SIZE
from repro.interp.privexec import privatized_ast
from repro.pipeline import detect_pipeline
from repro.scop import Scop
from repro.tasking.dispatch import latest_first, transitive_reduction
from repro.workloads import TABLE9
from tests.conftest import (
    LISTING1,
    TWO_NEST_COPY,
    Counter,
    assert_all_configs_match_sequential,
    compile_for_exec,
    reference_schedule,
)
from tests.interp.test_privatized_exec import KERNELS as REDUCTIONS
from tests.interp.test_privatized_exec import privatized_setup

PKERNELS = sorted(TABLE9, key=lambda k: int(k[1:]))
EXAMPLES = Path(__file__).parents[2] / "examples" / "kernels"
BACKENDS = ("serial", "threads", "processes")


# ----------------------------------------------------------------------
# counting: lowering happens for exactly one run
# ----------------------------------------------------------------------
@pytest.fixture
def lowering_calls(monkeypatch):
    return {
        "astgen": Counter(monkeypatch, repro.schedule, "generate_task_ast"),
        "chains": Counter(monkeypatch, plan_mod, "plan_chain_groups"),
        "rectangles": Counter(monkeypatch, plan_mod, "rectangles"),
        "lower": Counter(monkeypatch, plan_mod, "lower_exec_plan"),
    }


def snapshot(counters):
    return {name: c.calls for name, c in counters.items()}


def test_ten_measured_runs_lower_once(lowering_calls):
    interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
    _, first = execute_measured(interp, info)
    after_one = snapshot(lowering_calls)
    assert after_one["astgen"] == after_one["chains"] == 1
    assert after_one["lower"] == 1
    # the serial elision decomposes the merged S+T stream's union only;
    # the first replay that dispatches rows adds one decomposition per
    # fused task, once per plan
    assert first.fused_chains == (("S", "T"),)
    assert after_one["rectangles"] == 1
    for backend in 3 * BACKENDS:
        _, stats = execute_measured(interp, info, backend=backend, workers=2)
        assert stats.task_members == first.task_members
    assert snapshot(lowering_calls) == {
        **after_one, "rectangles": len(first.task_members) + 1,
    }
    # without a task AST, execute_privatized relaxes info's once per
    # (info, plan) and replays one plan: what the ledger's runs time
    interp, plan, pinfo = privatized_setup(REDUCTIONS["histogram"], 8, 3)
    before = snapshot(lowering_calls)
    for backend in ("serial",) + 3 * BACKENDS:
        out, stats = execute_privatized(
            interp, pinfo, plan, backend=backend, workers=2
        )
        assert stats.privatization["privates"] == 6
        assert not any(a.startswith("__priv_") for a in out.arrays)
    after = snapshot(lowering_calls)
    assert after["astgen"] - before["astgen"] == 1
    assert after["lower"] - before["lower"] == 1


def test_task_ast_from_the_analysis_is_not_regenerated(lowering_calls):
    from repro.schedule import generate_task_ast

    interp, info = compile_for_exec(LISTING1, "auto", {"N": 12}, 8)
    ast = generate_task_ast(info)
    before = lowering_calls["astgen"].calls
    execute_measured(interp, info, task_ast=ast)
    assert lowering_calls["astgen"].calls == before
    assert lowering_calls["lower"].calls == 1


def test_raw_and_relaxed_ast_of_one_info_get_their_own_plans(lowering_calls):
    """The plan cache is keyed on the AST that is lowered: one ``info``
    handed a raw and then a relaxed AST must not replay the first one's
    schedule under the second one's name."""
    from repro.schedule import generate_task_ast
    from repro.schedule import relax
    from repro.workloads import MatmulKernel

    interp, info = compile_for_exec(
        MatmulKernel(2, "mm").source(6), "auto", coarsen=1
    )
    raw = generate_task_ast(info)
    relaxed = relax(interp.scop, info, raw, hybrid=True)
    seq = interp.run_sequential(interp.new_store())
    counts = {}
    for name, ast in (("raw", raw), ("relaxed", relaxed), ("raw again", raw)):
        out, _ = execute_measured(interp, info, task_ast=ast)
        assert seq.equal(out), name
        counts[name] = interp.exec_plan(info, ast).schedule.counts
    assert counts["raw"] != counts["relaxed"]
    assert counts["raw again"] == counts["raw"]
    assert lowering_calls["lower"].calls == 2


def test_privatized_run_validates_the_plan_every_time(monkeypatch):
    interp, plan, pinfo = privatized_setup(REDUCTIONS["dotprod"], 8, 2)
    validations = Counter(monkeypatch, type(plan), "validate")
    for _ in range(3):
        execute_privatized(interp, pinfo, plan)
    assert validations.calls == 3


def test_private_name_collision_is_refused_per_run():
    """The refusal looks at the *caller's* store, so it must survive the
    name table moving into the (cached) plan."""
    from repro.interp import ArrayView

    interp, plan, pinfo = privatized_setup(REDUCTIONS["dotprod"], 8, 2)
    execute_privatized(interp, pinfo, plan)  # plan now cached
    store = interp.new_store()
    store.arrays["__priv_s_1"] = ArrayView("__priv_s_1", np.zeros(1), (0,))
    with pytest.raises(ValueError, match="collides with a program array"):
        execute_privatized(interp, pinfo, plan, store=store)
    # privates injected before the refusal are gone, the caller's array stays
    assert sorted(a for a in store.arrays if a.startswith("__priv_")) == [
        "__priv_s_1"
    ]


def test_array_extents_are_computed_once_per_scop(monkeypatch):
    """One pass over the SCoP gives every array's extent."""
    extents = Counter(monkeypatch, Scop, "_array_extents")
    interp = Interpreter.from_source(LISTING1, {"N": 12})
    for _ in range(3):
        interp.new_store()
    interp.fused_program  # closure lowering asks for every offset again
    assert extents.calls == 1


def test_second_info_adopt_fused_and_fuse_off_each_lower_once(lowering_calls):
    from repro.interp import fuse_scop

    interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
    lower = lowering_calls["lower"]

    def runs_lowering_once():
        before = lower.calls
        outs = [execute_measured(interp, info)[0] for _ in range(3)]
        assert outs[0].equal(outs[1]) and outs[0].equal(outs[2])
        return lower.calls - before

    assert runs_lowering_once() == 1
    assert runs_lowering_once() == 0

    other = detect_pipeline(interp.scop, coarsen=2)
    before = lower.calls
    execute_measured(interp, other)
    execute_measured(interp, other)
    assert lower.calls - before == 1
    assert runs_lowering_once() == 0  # the first info is still cached

    interp.adopt_fused(fuse_scop(interp.scop, interp.funcs))
    assert runs_lowering_once() == 1

    # fuse is fixed at construction: a fuse="off" interpreter (loop
    # forms only, no chains) lowers once per info as well
    off, off_info = compile_for_exec(TWO_NEST_COPY, "off", {"N": 8}, 4)
    before = lower.calls
    for _ in range(3):
        _, stats = execute_measured(off, off_info)
    assert lower.calls - before == 1
    assert stats.fuse == "off" and stats.fused_chains == ()
    assert runs_lowering_once() == 0  # the fused plan was kept


def test_plan_cache_stays_bounded_across_a_search_scan(monkeypatch):
    src = (
        "for(i=0; i<600; i++) S: A[i] = f(A[i]);\n"
        "for(i=0; i<600; i++) R: B[i] = g(A[i], B[i]);"
    )
    interp = Interpreter.from_source(src, {})
    sizes = []
    real = plan_mod.lower_exec_plan

    def recording(*args, **kwargs):
        sizes.append(len(interp._exec_plans))
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_mod, "lower_exec_plan", recording)
    factors = [2 ** k for k in range(EXEC_PLAN_CACHE_SIZE + 2)]
    for coarsen in factors:
        info = detect_pipeline(interp.scop, coarsen=coarsen)
        for _ in range(2):
            execute_measured(interp, info, backend="serial", workers=2)
    assert len(factors) > EXEC_PLAN_CACHE_SIZE  # the scan overflows it
    assert len(sizes) == len(factors)  # one lowering per candidate
    assert max(sizes) <= EXEC_PLAN_CACHE_SIZE
    assert len(interp._exec_plans) == EXEC_PLAN_CACHE_SIZE


def test_lower_span_is_emitted_only_on_a_miss():
    from repro.obs import spans as obs_spans

    interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
    with obs_spans.recording() as rec:
        for _ in range(3):
            _, stats = execute_measured(
                interp, info, backend="threads", collect_events=True
            )
    lowers = [s for s in rec.spans if s.name == "exec.lower"]
    assert len(lowers) == 1
    assert lowers[0].attrs == {"tasks": len(stats.task_members), "chains": 1}
    # the rows are built once, by the first replay that dispatches them
    # (one collecting events walks the rows):
    # 16 four-point row segments, one rectangle per task, all above
    # LOOP_FORM_POINTS — counts that repeat exactly
    (rows,) = [s for s in rec.spans if s.name == "exec.rows"]
    assert rows.attrs == {
        "tasks": len(stats.task_members), "rects": 16, "loop_rects": 0,
    }
    assert sum(s.name == "exec.measured" for s in rec.spans) == 3


def unbuilt(plan):
    """A copy of a lowered plan with nothing built on it: no rows,
    schedule or claims, and no parallel replay recorded."""
    import dataclasses

    return dataclasses.replace(plan, claims={}, replayed=set())


@pytest.mark.parametrize("name, sliced", [("P5", 1), ("P10", 2)])
def test_a_warm_serial_one_shot_builds_only_what_it_runs(
    name, sliced, monkeypatch, tmp_path
):
    """A warm verified serial ``transform`` compiles the slice form of
    the kernels its stream runs call and no other, and builds no row and
    no schedule.  A later row-dispatching ``threads`` replay of the plan
    builds each once; a ``processes`` replay of a copy whose rows were
    never built verifies too."""
    from repro.driver import TransformOptions, transform
    from repro.interp import fused as fused_mod
    from repro.tasking import Schedule

    source, options = TABLE9[name].source(14), TransformOptions(
        exec_backend="serial"
    )
    cold = transform(source, {}, options, cache_dir=str(tmp_path))
    assert cold.cache_status == "cold" and cold.verified
    lowered = []
    real_lower = plan_mod.lower_exec_plan

    def lower(interp, *args):
        lowered.append((interp, real_lower(interp, *args)))
        return lowered[-1][1]

    monkeypatch.setattr(plan_mod, "lower_exec_plan", lower)
    slices = Counter(monkeypatch, fused_mod, "closure_source")
    rows = Counter(monkeypatch, plan_mod, "TaskRow")
    schedules = Counter(monkeypatch, Schedule, "from_preds")
    warm = transform(source, {}, options, cache_dir=str(tmp_path))
    assert warm.cache_status == "warm" and warm.verified
    assert (slices.calls, rows.calls, schedules.calls) == (sliced, 0, 0)

    (interp, plan), = lowered
    oracle = interp.run_sequential(interp.new_store())
    fresh = unbuilt(plan)
    for _ in range(2):
        store, _ = plan_mod.run_plan(
            interp, plan, "threads", workers=2, collect_events=True
        )
        assert oracle.equal(store)
        assert rows.calls == plan.stats["tasks"] and schedules.calls == 1
    store, _ = plan_mod.run_plan(interp, fresh, "processes", workers=2)
    assert oracle.equal(store)


def test_two_first_replays_of_a_fresh_plan_at_once():
    """Two threads make the first ``threads`` replay of one plan at the
    same time, each building its rows, schedule and claims if it gets
    there first: both are the oracle."""
    interp, info = compile_for_exec(
        TABLE9["P10"].source(9), "auto", coarsen=1
    )
    lowered = interp.exec_plan(info)
    oracle = interp.run_sequential(interp.new_store())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the first builds
    try:
        for _ in range(5):
            plan = unbuilt(lowered)
            start = threading.Barrier(2)
            stores = []

            def replay():
                start.wait()
                stores.append(
                    plan_mod.run_plan(interp, plan, "threads", workers=2)[0]
                )

            threads = [threading.Thread(target=replay) for _ in range(2)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
            assert len(stores) == 2 and all(map(oracle.equal, stores))
    finally:
        sys.setswitchinterval(interval)


def test_interpreter_is_freed_without_the_cycle_collector():
    """A plan must not point back at the interpreter that caches it."""
    import gc
    import weakref

    interp, info = compile_for_exec(LISTING1, "auto", {"N": 12}, 8)
    execute_measured(interp, info)
    ref = weakref.ref(interp)
    gc.disable()
    try:
        del interp
        assert ref() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the compiled schedule: the transitive reduction of the quotient of the
# analysis' task graph over the plan rows, pinned by goldens (the
# 52-plan battery below)
# ----------------------------------------------------------------------
SCHEDULE_GOLDEN = Path(__file__).parent / "golden" / "schedules.json"
FUSE_MODES = ("auto", "off")


def pkernel_plan(name, n, fuse):
    interp, info = compile_for_exec(TABLE9[name].source(n), fuse, coarsen=2)
    return interp.exec_plan(info)


def example_plan(name, fuse):
    source = (EXAMPLES / f"{name}.c").read_text()
    interp, info = compile_for_exec(source, fuse, {"N": 12}, coarsen=4)
    return interp.exec_plan(info)


def replayed_plan(interp, info, plan):
    """The lowered plan ``execute_privatized(interp, info, plan)``
    replays (``execute_measured``'s without a ``plan``)."""
    if plan is None:
        return interp.exec_plan(info)
    return interp.exec_plan(info, privatized_ast(interp, info, plan))


def privatized_plan(name):
    interp, plan, pinfo = privatized_setup(REDUCTIONS[name], 8, parts=3)
    return replayed_plan(interp, pinfo, plan)


def relaxed_setup(name):
    """``(interp, plan)`` of the hybrid-relaxed task AST of ``name``."""
    from repro.schedule import generate_task_ast
    from repro.schedule import relax
    from repro.workloads import figure11_kernels

    kernels = {k.name: k for k in figure11_kernels()} | TABLE9
    interp, info = compile_for_exec(
        kernels[name].source(6), "auto", coarsen=1
    )
    relaxed = relax(interp.scop, info, generate_task_ast(info), hybrid=True)
    return interp, interp.exec_plan(info, relaxed)


def relaxed_plan(name):
    return relaxed_setup(name)[1]


#: golden key -> (plan factory, its arguments): P1–P10 × N ∈ {6, 9},
#: the example kernels, each under both fuse modes; two privatized and
#: four relaxed (hybrid) plans
SCHEDULE_BATTERY = {
    **{
        f"{name}-N{n}-{fuse}": (pkernel_plan, (name, n, fuse))
        for name in PKERNELS for n in (6, 9) for fuse in FUSE_MODES
    },
    **{
        f"{name}-{fuse}": (example_plan, (name, fuse))
        for name in ("listing1", "listing3", "reversed")
        for fuse in FUSE_MODES
    },
    **{
        f"privatized-{name}": (privatized_plan, (name,))
        for name in ("histogram", "sumstencil")
    },
    **{
        f"relaxed-{name}": (relaxed_plan, (name,))
        for name in ("2mm", "3gmm", "P1", "P7")
    },
}


def schedule_digest(sched) -> dict:
    blob = json.dumps([sched.counts, sched.succs, sched.roots]).encode()
    return {"rows": len(sched), "sha256": hashlib.sha256(blob).hexdigest()}


def graph_quotient(plan):
    """Per row, the rows it waits on — from the analysis' own graph of
    the plan's AST, by definition: the rows holding its members'
    predecessors, where a chained stream's earlier rows are its
    previous row."""
    from repro.tasking import TaskGraph

    graph = TaskGraph.from_task_ast(plan.ast)
    members = plan.members
    assert sorted(t for ts in members for t in ts) == list(range(len(graph)))
    row_of = {t: row for row, ts in enumerate(members) for t in ts}
    chained = {n.statement for n in plan.ast.nests if n.chained}
    preds = []
    for row, ts in enumerate(members):
        stream = plan.rows[row].stream
        own_chain = all(s in chained for s in stream.split("+"))
        ps = {row_of[p] for t in ts for p in graph.preds[t]} - {row}
        if own_chain:
            ps = {
                row - 1 if plan.rows[r].stream == stream else r for r in ps
            }
        preds.append(ps)
    return preds


def ancestors(preds) -> list[int]:
    """Per task, the bitset of every task that precedes it."""
    reach: list[int] = []
    for ps in preds:
        bits = 0
        for p in ps:
            bits |= reach[p] | 1 << p
        reach.append(bits)
    return reach


def assert_reduced_with_the_same_order(preds, full):
    """``preds`` orders exactly what ``full`` orders, with no edge some
    other path already implies."""
    reach = ancestors(preds)
    assert reach == ancestors(full)
    for ps in preds:
        for p in ps:
            assert not any(reach[q] >> p & 1 for q in ps - {p}), (p, ps)


def assert_schedule_is_the_graph_quotient(plan, key=None):
    sched = plan.schedule
    preds = sched.preds()
    assert len(sched) == len(plan.rows) > 0
    assert sched.counts == tuple(len(p) for p in preds)
    assert sched.roots == tuple(t for t, p in enumerate(preds) if not p)
    assert all(p < t for t, ps in enumerate(preds) for p in ps)
    quotient = graph_quotient(plan)
    assert preds == transitive_reduction(latest_first(quotient))
    assert_reduced_with_the_same_order(preds, quotient)
    if key is not None:
        golden = json.loads(SCHEDULE_GOLDEN.read_text(encoding="utf-8"))
        assert schedule_digest(sched) == golden[key], key


def test_schedules_match_the_golden(pytestconfig):
    assert len(SCHEDULE_BATTERY) == 52
    doc = {
        key: schedule_digest(factory(*args).schedule)
        for key, (factory, args) in SCHEDULE_BATTERY.items()
    }
    if pytestconfig.getoption("--update-goldens"):
        SCHEDULE_GOLDEN.write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"updated {SCHEDULE_GOLDEN.name}")
    assert doc == json.loads(SCHEDULE_GOLDEN.read_text(encoding="utf-8")), (
        "plan schedules differ from schedules.json; if the change is "
        "intended, rerun with --update-goldens"
    )


@pytest.mark.parametrize("n", [6, 9])
@pytest.mark.parametrize("name", PKERNELS)
def test_schedule_equals_create_task_on_pkernels(name, n):
    for fuse in FUSE_MODES:
        key = f"{name}-N{n}-{fuse}"
        assert_schedule_is_the_graph_quotient(pkernel_plan(name, n, fuse), key)


@pytest.mark.parametrize("name", ["listing1", "listing3", "reversed"])
def test_schedule_equals_create_task_on_examples(name):
    for fuse in FUSE_MODES:
        plan = example_plan(name, fuse)
        assert_schedule_is_the_graph_quotient(plan, f"{name}-{fuse}")


@pytest.mark.parametrize("name", ["histogram", "sumstencil"])
def test_schedule_equals_create_task_on_privatized_plans(name):
    lowered = privatized_plan(name)
    joins = [r for r in lowered.rows if "combine" in r.payload]
    members = [r for r in lowered.rows if "remap" in r.payload]
    assert joins and members
    # the join waits on every member row, the members on no other member
    join = lowered.rows.index(joins[0])
    member_rows = {t for t, r in enumerate(lowered.rows) if "remap" in r.payload}
    assert member_rows <= lowered.schedule.preds()[join]
    assert_schedule_is_the_graph_quotient(lowered, f"privatized-{name}")


@pytest.mark.parametrize("name", ["2mm", "3gmm", "P1", "P7"])
def test_schedule_equals_create_task_on_relaxed_plans(name):
    """Self-tokens are graph edges like every other token, and an
    unchained nest's rows are ordered by nothing else."""
    from repro.tasking import TaskGraph

    lowered = relaxed_plan(name)
    assert_schedule_is_the_graph_quotient(lowered, f"relaxed-{name}")
    if not lowered.stats["fused_chains"]:
        assert lowered.schedule.preds() == transitive_reduction(
            latest_first(TaskGraph.from_task_ast(lowered.ast).preds)
        )


def test_a_merged_stream_waits_on_its_previous_row_only():
    """U reads S four blocks back: the graph edge from that S block
    collapses into the merged ``S+T+U`` stream's own chain, so every row
    waits on the row before it and on nothing else."""
    source = (
        "for(i=0; i<12; i++) S: A[i] = f(A[i]);\n"
        "for(i=0; i<12; i++) T: B[i] = g(A[i], B[i]);\n"
        "for(i=0; i<12; i++) U: C[i] = h(A[i-4], B[i], C[i]);"
    )
    interp, info = compile_for_exec(source, "auto", coarsen=1)
    plan = interp.exec_plan(info)
    assert plan.stats["fused_chains"] == (("S", "T", "U"),)
    s_ends = [blk.end for blk in plan.ast.nest("S").blocks]
    assert any(  # tokens on S blocks before the previous row
        s_ends.index(end) < blk.block_id - 1
        for blk in plan.ast.nest("U").blocks
        for src, end in blk.in_tokens
        if src == "S"
    )
    assert plan.schedule.preds() == [set()] + [
        {t - 1} for t in range(1, len(plan.rows))
    ]
    assert_schedule_is_the_graph_quotient(plan)
    seq = interp.run_sequential(interp.new_store())
    for backend in BACKENDS:
        out, _ = execute_measured(interp, info, backend=backend, workers=2)
        assert seq.equal(out), backend


def test_schedule_equals_create_task_on_a_fuzz_batch():
    from tests.fuzz.generator import generate_samples

    for sample in generate_samples(seed=1807, count=8, n_min=6, n_max=9):
        interp, info = compile_for_exec(sample.source, "auto", coarsen=3)
        assert_schedule_is_the_graph_quotient(interp.exec_plan(info))


@pytest.mark.parametrize("name", PKERNELS)
def test_bulk_quotient_is_the_edge_by_edge_one_on_pkernels(name):
    """One sort of packed row-edge keys gives the schedule one ``set``
    entry per edge gave, plain and hybrid, at two blockings."""
    from repro.schedule import generate_task_ast
    from repro.schedule import relax
    from repro.schedule.astgen import task_edges

    for coarsen in (1, 3):
        interp, info = compile_for_exec(
            TABLE9[name].source(8), "auto", coarsen=coarsen
        )
        raw = generate_task_ast(info)
        for ast in (raw, relax(interp.scop, info, raw, hybrid=True)):
            plan = interp.exec_plan(info, ast)
            assert plan.schedule == reference_schedule(
                task_edges(ast), plan.members, plan.floors
            ), (coarsen, ast is raw)


@pytest.mark.parametrize("name", ["histogram", "sumstencil"])
def test_bulk_quotient_is_the_edge_by_edge_one_privatized(name):
    from repro.schedule.astgen import task_edges

    source = (EXAMPLES / f"{name}.c").read_text()
    interp, priv, pinfo = privatized_setup(source, 8, parts=3)
    plan = replayed_plan(interp, pinfo, priv)
    assert plan.schedule == reference_schedule(
        task_edges(plan.ast), plan.members, plan.floors
    )


def test_replays_resolve_no_slot_and_create_no_task(monkeypatch):
    from repro import tasking

    interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
    graphs = Counter(monkeypatch, tasking.TaskGraph, "from_task_ast")
    created = Counter(monkeypatch, tasking.OmpTaskSystem, "create_task")
    slots = Counter(monkeypatch, tasking.OmpTaskSystem, "slot")
    plan = interp.exec_plan(info)
    # lowering reads the AST's arrays: it builds no graph object
    assert graphs.calls == 0 and len(plan.rows) > 0
    seq = interp.run_sequential(interp.new_store())
    for backend in 10 * ("threads", "processes") + ("serial",):
        out, stats = execute_measured(interp, info, backend=backend, workers=2)
        assert seq.equal(out)
        if backend != "serial":  # both count rows, and dispatch claims
            assert stats.scheduler["tasks"] == len(plan.rows)
            dispatched = plan.claims.get(2, plan.exact)  # first: exact
            assert stats.scheduler["claims"] == len(dispatched.runs)
    assert graphs.calls == 0
    assert created.calls == slots.calls == 0


def test_width_one_plan_runs_on_the_calling_thread(monkeypatch):
    """P5's four nests fuse into one chain stream: every task waits on
    its predecessor only, so ``threads`` never starts a helper."""
    interp, info = compile_for_exec(TABLE9["P5"].source(8), "auto", coarsen=1)
    plan = interp.exec_plan(info)
    assert len(plan.streams) == 1 and max(plan.schedule.counts) == 1
    started = Counter(monkeypatch, threading.Thread, "start")
    out, stats = execute_measured(
        interp, info, backend="threads", workers=2, collect_events=True
    )
    assert started.calls == 0
    assert stats.scheduler["helpers"] == stats.scheduler["steals"] == 0
    assert {e.worker for e in stats.events.events} == {0}
    assert len(stats.events.events) == len(plan.rows)
    assert interp.run_sequential(interp.new_store()).equal(out)


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_failed_replay_leaves_the_shared_plan_reusable(monkeypatch, backend):
    """A block that raises mid-plan is re-raised, its dependents never
    run, no thread outlives the call — and the next replay of the same
    plan is bit-identical to the oracle: per-run counters never leak
    into the plan.  The failing replay collects events, so it runs row
    by row (an untraced one runs each stream, or claim, as one call)."""
    from repro.interp.fused import FusedKernel

    interp, info = compile_for_exec(TABLE9["P10"].source(8), "off", coarsen=2)
    plan = interp.exec_plan(info)
    tid_of = {id(row.payload["rects"]): t for t, row in enumerate(plan.rows)}
    victim = len(plan.rows) // 3
    descendants, frontier = set(), [victim]
    while frontier:
        for s in plan.schedule.succs[frontier.pop()]:
            if s not in descendants:
                descendants.add(s)
                frontier.append(s)
    assert descendants
    ran = []
    run_rects = FusedKernel.run_rects

    def failing_run_rects(kernel, store, funcs, rects):
        tid = tid_of[id(rects)]
        if tid == victim:
            raise RuntimeError("stage failed")
        run_rects(kernel, store, funcs, rects)
        ran.append(tid)

    before = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(FusedKernel, "run_rects", failing_run_rects)
        with pytest.raises(RuntimeError, match="stage failed"):
            execute_measured(
                interp, info, backend=backend, workers=2,
                collect_events=True,
            )
    assert threading.active_count() == before
    assert ran and victim not in ran and not descendants & set(ran)

    assert interp.exec_plan(info) is plan
    out, _ = execute_measured(interp, info, backend=backend, workers=2)
    assert interp.run_sequential(interp.new_store()).equal(out)


# ----------------------------------------------------------------------
# the serial elision: one kernel call per fused stream
# ----------------------------------------------------------------------
#: S and T fuse into one chain over a triangular domain: the union of
#: the stream's rows decomposes into one rectangle per ``i``
TRIANGULAR_CHAIN = """
for(i=0; i<N; i++)
  for(j=0; j<=i; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1]);
for(i=0; i<N; i++)
  for(j=0; j<=i; j++)
    T: B[i][j] = g(A[i][j], B[i][j]);
"""


@pytest.mark.parametrize(
    "name,rows,streams", [("P5", 196, 1), ("P10", 308, 2)]
)
def test_serial_replay_calls_each_fused_stream_once(
    monkeypatch, name, rows, streams
):
    """The ledger's ``fine_p`` shapes: one-point blocks, one
    ``run_rects`` call per fused stream instead of one per row."""
    from repro.interp.fused import FusedKernel

    interp, info = compile_for_exec(TABLE9[name].source(14), "auto", coarsen=1)
    plan = interp.exec_plan(info)
    assert len(plan.rows) == rows
    assert sum(run.kernel is not None for run in plan.runs) == streams
    calls = Counter(monkeypatch, FusedKernel, "run_rects")
    out, stats = execute_measured(interp, info, backend="serial")
    assert calls.calls == streams
    assert stats.scheduler == {"policy": "stream-runs", "runs": streams}
    assert interp.oracle().equal(out)


#: ``(coarsen, fuse)`` -> rows of P5@24's plan: fused, one ``S1+S2+S3+S4``
#: chain row per S1 block; with the loop forms alone, one row per block
P5_24_ROWS = {
    (1, "auto"): 576, (48, "auto"): 12, (1, "off"): 2304, (48, "off"): 48,
}


def p5_24_plans():
    """``(coarsen, fuse, rows, interp, info)`` per blocking of P5@24,
    lowered (so a counted replay does no lowering)."""
    for (coarsen, fuse), rows in P5_24_ROWS.items():
        interp, info = compile_for_exec(
            TABLE9["P5"].source(24), fuse, coarsen=coarsen
        )
        assert len(interp.exec_plan(info).rows) == rows
        yield coarsen, fuse, rows, interp, info


def counted_replay(counters, interp, info, backend):
    """The calls one untraced replay makes, per counter."""
    for counter in counters.values():
        counter.calls = 0
    out, _ = execute_measured(interp, info, backend=backend, workers=2)
    counts = snapshot(counters)
    assert interp.oracle().equal(out)
    return counts


def test_p5_dispatch_counts_at_fine_and_coarse_blocking(monkeypatch):
    """Dispatch counted, not timed: fused P5 is one ``S1+S2+S3+S4``
    chain, so a threaded replay runs it as one claim — one kernel call,
    like the serial elision (whose fine case is
    ``test_serial_replay_calls_each_fused_stream_once[P5]``).  With the
    loop forms alone (``fuse="off"``) the serial elision is one
    ``run_rects`` per statement stream — 4, where it was 2304 / 48
    ``run_block`` calls (coarsen 1 / 48) while fuse off ran compiled
    loops — and a threaded replay with no stream claimed whole one per
    row: every S1 row also releases an S2 row, so nothing contracts.
    No replay calls ``run_block``.  The fine and coarse blockings elide
    to the same rectangles, so they are one program.  The verdict is
    pinned to "no stream whole" (the whole-stream leg is
    ``test_p5_whole_streams_dispatch_like_the_serial_elision``)."""
    from repro.interp.fused import FusedKernel

    pin_verdict(monkeypatch, "none")
    counters = {
        "run_rects": Counter(monkeypatch, FusedKernel, "run_rects"),
        "run_block": Counter(monkeypatch, Interpreter, "run_block"),
    }
    union = {}
    for coarsen, fuse, rows, interp, info in p5_24_plans():
        fused = fuse == "auto"
        if fused:
            union[coarsen] = interp.exec_plan(info).runs[0].rects
        calls = {"serial": 1, "threads": 1} if fused else {
            "serial": 4, "threads": rows,
        }
        for backend in ("serial", "threads"):
            if (backend, fused, coarsen) == ("serial", True, 1):
                continue  # the serial-elision test's P5 case
            got = counted_replay(counters, interp, info, backend)
            assert got == {"run_rects": calls[backend], "run_block": 0}, (
                coarsen, fuse, backend,
            )
        assert len(interp.exec_plan(info).exact.runs) == calls["threads"]
    assert union[1] == union[48]


def test_p5_whole_streams_dispatch_like_the_serial_elision(monkeypatch):
    """The whole-stream leg: with every candidate claimed whole,
    fuse-off P5@24 on threads makes the serial elision's 4 ``run_rects``
    calls — one per statement stream — at either blocking, from the
    second replay on (the first dispatches the exact claims, one per
    row)."""
    from repro.interp.fused import FusedKernel

    pin_verdict(monkeypatch, "all")
    counters = {"run_rects": Counter(monkeypatch, FusedKernel, "run_rects")}
    for coarsen, fuse, rows, interp, info in p5_24_plans():
        if fuse != "off":
            continue
        plan = interp.exec_plan(info)
        assert candidate_streams(plan) == set(range(4))
        calls = [
            counted_replay(counters, interp, info, "threads")["run_rects"]
            for _ in range(3)
        ]
        assert calls == [rows, 4, 4], coarsen
        assert plan.claims[2].runs == plan.runs


@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_untraced_replay_enters_one_span_and_one_collector_lookup(
    monkeypatch, backend
):
    """Disabled instrumentation counted, not timed: whatever the row
    count, an untraced replay enters one (no-op) span and looks up the
    runtime collector once — nothing per row."""
    from repro.obs import runtime as obs_runtime
    from repro.obs import spans as obs_spans

    counters = {
        # every disabled span() returns this one shared no-op manager,
        # whichever module bound the name
        "span": Counter(monkeypatch, obs_spans._NullSpan, "__enter__"),
        "current": Counter(monkeypatch, obs_runtime, "current"),
    }
    for coarsen, fuse, _, interp, info in p5_24_plans():
        assert counted_replay(counters, interp, info, backend) == {
            "span": 1, "current": 1,
        }, (coarsen, fuse)


def assert_serial_is_the_oracle(interp, info):
    plan = interp.exec_plan(info)
    # every row belongs to exactly one stream run, in creation order
    assert [t for run in plan.runs for t in run.rows] == list(
        range(len(plan.rows))
    )
    out, stats = execute_measured(interp, info, backend="serial")
    assert stats.scheduler == {"policy": "stream-runs", "runs": len(plan.runs)}
    assert interp.oracle().equal(out)


@pytest.mark.parametrize("coarsen", [1, 3])
@pytest.mark.parametrize("name", PKERNELS)
def test_serial_elision_is_the_oracle_on_pkernels(name, coarsen):
    for fuse in FUSE_MODES:
        assert_serial_is_the_oracle(
            *compile_for_exec(TABLE9[name].source(9), fuse, coarsen=coarsen)
        )


@pytest.mark.parametrize("name", ["listing1", "listing3", "reversed"])
def test_serial_elision_is_the_oracle_on_examples(name):
    source = (EXAMPLES / f"{name}.c").read_text()
    for fuse in FUSE_MODES:
        for coarsen in (1, 4):
            assert_serial_is_the_oracle(
                *compile_for_exec(source, fuse, {"N": 12}, coarsen)
            )


@pytest.mark.parametrize("name", ["histogram", "sumstencil", "dotprod"])
def test_serial_elision_keeps_privatized_rows(name):
    """Members and joins have no kernel: they run row by row inside the
    elided replay, and the result is the per-row replay's bit for bit."""
    source = (EXAMPLES / f"{name}.c").read_text()
    interp, plan, pinfo = privatized_setup(source, 12, parts=3)
    lowered = replayed_plan(interp, pinfo, plan)
    per_row = {
        t for run in lowered.runs if run.kernel is None for t in run.rows
    }
    assert {
        t for t, r in enumerate(lowered.rows)
        if "remap" in r.payload or "combine" in r.payload
    } <= per_row
    out, stats = execute_privatized(interp, pinfo, plan, backend="serial")
    assert stats.scheduler["policy"] == "stream-runs"
    ref, _ = execute_privatized(
        interp, pinfo, plan, backend="threads", workers=1
    )
    assert ref.equal(out)
    assert privatized_matches(plan, interp.oracle(), out)[0]


@pytest.mark.parametrize("coarsen", [1, 3, 8])
def test_serial_elision_runs_a_non_dense_chain_union(coarsen):
    interp, info = compile_for_exec(
        TRIANGULAR_CHAIN, "auto", {"N": 9}, coarsen
    )
    plan = interp.exec_plan(info)
    assert plan.stats["fused_chains"] == (("S", "T"),)
    (run,) = plan.runs
    assert len(run.rects) == 9 and len(run.rows) == len(plan.rows) > 1
    assert_serial_is_the_oracle(interp, info)


def test_a_collecting_serial_replay_records_one_event_per_row():
    from repro.obs import runtime as obs_runtime

    interp, info = compile_for_exec(TABLE9["P5"].source(9), "auto", coarsen=1)
    plan = interp.exec_plan(info)
    out, stats = execute_measured(
        interp, info, backend="serial", collect_events=True
    )
    assert sorted(e.tid for e in stats.events.events) == list(
        range(len(plan.rows))
    )
    assert stats.scheduler is None
    assert interp.oracle().equal(out)
    # a collector active around the replay keeps it per row as well
    with obs_runtime.collecting("serial", 1) as outer:
        execute_measured(interp, info, backend="serial")
    assert len(outer.trace().events) == len(plan.rows)


# ----------------------------------------------------------------------
# claims: a threaded replay runs each schedule chain as one unit
# ----------------------------------------------------------------------
def candidate_streams(plan):
    """Streams of more than one exact claim, privatized members
    included: what the per-stream rule may claim whole (indices into
    ``plan.runs``)."""
    stream_of = {t: k for k, run in enumerate(plan.runs) for t in run.rows}
    split = [0] * len(plan.runs)
    for run in plan_mod.contract_claims(plan).runs:
        split[stream_of[run.rows.start]] += 1
    return {k for k in range(len(plan.runs)) if split[k] > 1}


def every_stream(plan):
    """The per-plan verdict: every stream whole, chained."""
    return set(range(len(plan.runs)))


#: ``pin_verdict``'s picks: no stream whole, every candidate, the chain
VERDICTS = {
    "none": lambda plan: set(),
    "all": candidate_streams,
    "chain": every_stream,
}


def pin_verdict(monkeypatch, verdict):
    """Pin ``whole_streams`` to one of :data:`VERDICTS`."""
    monkeypatch.setattr(
        plan_mod, "whole_streams",
        lambda plan, funcs, store, workers: frozenset(
            VERDICTS[verdict](plan)
        ),
    )


def set_usable_cpus(monkeypatch, cpus=1):
    """The verdict sees ``cpus`` CPUs in this process' affinity set."""
    import os

    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


def assert_claims_are_exact(interp, plan, reference):
    """The first two untraced threaded replays at two workers are
    ``reference`` bit for bit, and the claims each dispatches — the
    exact ones, then those of the measured verdict — contract
    ``plan.schedule``."""
    for replay in range(2):
        out, stats = plan_mod.run_plan(interp, plan, "threads", workers=2)
        assert reference.equal(out)
        claims = plan.claims[2] if replay else plan.exact
        assert stats.scheduler["tasks"] == len(plan.rows)
        assert stats.scheduler["claims"] == len(claims.runs)
        assert stats.scheduler["whole"] == len(claims.whole)
        assert_claims_contract(plan, claims)
    assert not plan.exact.whole


def assert_claims_contract(plan, claims):
    """A partition of the rows into consecutive runs of one stream, each
    an exact chain or a candidate stream claimed whole (its own
    serial-elision run), with an acyclic quotient."""
    from repro.interp.fused import rectangles

    if claims.whole == every_stream(plan):
        # the per-plan verdict: the serial elision, one claim per stream,
        # each waiting on the one before it (creation order is
        # topological, so the chain orders every row edge)
        assert claims.runs == plan.runs
        assert claims.schedule == plan_mod.chain_schedule(len(plan.runs))
        return
    sched = plan.schedule
    assert claims.whole <= candidate_streams(plan)
    stream_of = {t: k for k, run in enumerate(plan.runs) for t in run.rows}
    # every row covered once, in order
    assert [t for run in claims.runs for t in run.rows] == list(
        range(len(plan.rows))
    )
    claim_of = {t: c for c, run in enumerate(claims.runs) for t in run.rows}
    for run in claims.runs:
        k = stream_of[run.rows[0]]
        assert {stream_of[t] for t in run.rows} == {k}
        if k in claims.whole:
            assert run is plan.runs[k]
            continue
        assert run.kernel is plan.runs[k].kernel
        if run.kernel is None:
            assert run.rects == ()
        else:
            union = np.concatenate(
                [plan.rows[t].payload["iters"] for t in run.rows]
            )
            assert list(run.rects) == rectangles(union)
    # outside whole streams, every internal edge is its source's only
    # successor and its target's only predecessor; at every boundary
    # inside a stream, not
    for t in range(len(plan.rows) - 1):
        same_stream = stream_of[t] == stream_of[t + 1]
        if stream_of[t] in claims.whole:
            chained = True
        else:
            chained = sched.succs[t] == (t + 1,) and sched.counts[t + 1] == 1
        assert (claim_of[t] == claim_of[t + 1]) == (chained and same_stream)
    # the quotient's edges are the images of the row edges across
    # claims, and all run forward: it is acyclic
    images = {
        (claim_of[t], claim_of[s])
        for t, ss in enumerate(sched.succs)
        for s in ss
        if claim_of[t] != claim_of[s]
    }
    assert images == {
        (c, s) for c, ss in enumerate(claims.schedule.succs) for s in ss
    }
    assert all(c < s for c, s in images)


@pytest.mark.parametrize("coarsen", [1, 8])
@pytest.mark.parametrize("name", PKERNELS)
def test_claims_are_exact_on_pkernels(name, coarsen):
    for fuse in FUSE_MODES:
        interp, info = compile_for_exec(
            TABLE9[name].source(9), fuse, coarsen=coarsen
        )
        plan = interp.exec_plan(info)
        assert_claims_are_exact(interp, plan, interp.oracle())


@pytest.mark.parametrize("name", ["2mm", "P7"])
def test_claims_are_exact_on_a_relaxed_plan(name):
    interp, lowered = relaxed_setup(name)
    assert_claims_are_exact(interp, lowered, interp.oracle())


@pytest.mark.parametrize("name", ["histogram", "sumstencil"])
def test_claims_are_exact_on_a_privatized_plan(name):
    """Members are unchained and have no kernel: each exact claim is
    one member row, and each member stream is a candidate.  The verdict
    claims a member stream row by row or whole — its serial-elision
    run, one ``call(tid)`` per row against the row's own private."""
    interp, plan, pinfo = privatized_setup(REDUCTIONS[name], 8, parts=3)
    lowered = replayed_plan(interp, pinfo, plan)
    per_row, _ = plan_mod.run_plan(
        interp, lowered, "threads", workers=1, collect_events=True
    )
    assert_claims_are_exact(interp, lowered, per_row)

    def members(claims):
        return [
            run for run in claims.runs
            if "remap" in lowered.rows[run.rows[0]].payload
        ]

    assert members(lowered.exact)
    assert all(len(run.rows) == 1 for run in members(lowered.exact))
    streams = members(lowered)  # the member streams' own runs
    assert {lowered.runs.index(s) for s in streams} <= candidate_streams(
        lowered
    )
    assert all(
        len(run.rows) == 1 or run in streams
        for run in members(lowered.claims[2])
    )


#: (kernel, N, coarsen, fuse) -> (edges, exact claims) of the unreduced
#: quotient, then of the plan's reduced schedule
REDUCTION_CUTS = {
    ("P5", 14, 1, "off"): ((1956, 784), (1368, 784)),
    ("P7", 20, 1, "auto"): ((747, 401), (622, 326)),
    ("P9", 20, 3, "auto"): ((328, 182), (279, 168)),
}


def test_the_reduction_cuts_edges_and_claims():
    """Fewer edges, and rows left with one predecessor and one successor
    contract into fewer claims: the cuts on the Table 9 shapes the
    pair-level reduction was measured on."""
    import dataclasses

    from repro.tasking import Schedule

    def shape(plan):
        claims = plan_mod.contract_claims(plan)
        return sum(plan.schedule.counts), len(claims.runs)

    for (name, n, coarsen, fuse), cuts in REDUCTION_CUTS.items():
        interp, info = compile_for_exec(
            TABLE9[name].source(n), fuse, coarsen=coarsen
        )
        plan = interp.exec_plan(info)
        full = dataclasses.replace(plan)  # its schedule: the unreduced one
        full.__dict__["schedule"] = Schedule.from_preds(graph_quotient(plan))
        assert (shape(full), shape(plan)) == cuts, name


def test_claims_are_built_on_the_first_untraced_threads_replay(monkeypatch):
    """Serial and collecting replays never contract; the first untraced
    replay on threads — or on processes, which walks the same claims —
    builds the exact claims, and the second at a worker count measures
    the verdict, once: a one-shot never pays for it."""
    pin_verdict(monkeypatch, "none")
    verdicts = Counter(monkeypatch, plan_mod, "whole_streams")
    for parallel in ("threads", "processes"):
        verdicts.calls = 0
        interp, info = compile_for_exec(
            TABLE9["P5"].source(9), "auto", coarsen=1
        )
        plan = interp.exec_plan(info)
        execute_measured(interp, info, backend="serial", workers=2)
        for backend in ("threads", "processes"):
            execute_measured(
                interp, info, backend=backend, workers=2,
                collect_events=True,
            )
        assert "exact" not in vars(plan) and plan.claims == {}
        _, stats = execute_measured(interp, info, backend=parallel, workers=2)
        assert "exact" in vars(plan) and len(plan.exact.runs) == 1
        assert plan.claims == {} and verdicts.calls == 0
        assert stats.scheduler["claims"] == 1 < stats.scheduler["tasks"]
        for _ in range(2):
            _, stats = execute_measured(
                interp, info, backend=parallel, workers=2
            )
        assert list(plan.claims) == [2] and len(plan.claims[2].runs) == 1
        assert stats.scheduler["claims"] == 1 < stats.scheduler["tasks"]
        assert stats.scheduler["whole"] == 0 and verdicts.calls == 1
        for _ in range(2):
            execute_measured(interp, info, backend=parallel, workers=1)
        assert sorted(plan.claims) == [1, 2] and verdicts.calls == 2


# ----------------------------------------------------------------------
# the whole-stream verdict
# ----------------------------------------------------------------------
def is_a_verdict(plan, whole):
    """``whole`` is what one of the two rules can answer: candidates
    only, or every stream (the chain)."""
    return whole <= candidate_streams(plan) or whole == every_stream(plan)


def cpu_bound(*walls):
    """Claims that run on a CPU all the time they take."""
    return [plan_mod.Cost(w, w) for w in walls]


def test_the_verdict_rule_on_injected_costs(monkeypatch):
    """With as many usable CPUs as workers the per-stream rule is the
    wall one — whole exactly where even ``workers``-way overlap of the
    claims could not beat the union call, ties included — and the
    longest claim bounds it too."""
    set_usable_cpus(monkeypatch, cpus=4)
    costs = {
        0: (cpu_bound(0.7, 0.7, 0.7), 1.0),  # 2.1 over 2 workers: 1.05
        1: (cpu_bound(0.5, 0.5, 0.5, 0.5), 1.0),  # 1.0: a tie is whole
        2: (cpu_bound(0.6, 0.5), 1.0),
        3: (cpu_bound(5.0), 0.0),
        4: (cpu_bound(1.5, 0.1), 1.4),  # the longest claim alone: 1.5
    }
    assert plan_mod.claimed_whole(costs, 2) == {0, 1, 3, 4}
    assert plan_mod.claimed_whole(costs, 1) == {0, 1, 2, 3, 4}
    assert plan_mod.claimed_whole(costs, 4) == {3, 4}
    assert plan_mod.claimed_whole({}, 2) == frozenset()


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_verdict_counts_usable_cpus_and_sees_blocking(monkeypatch, cpus):
    """A claim's CPU share overlaps on the usable CPUs only, its blocked
    share on every worker: at 2 workers, CPU-bound claims go whole on
    one CPU and overlap on two, while blocked claims overlap on either.
    The per-plan rule bounds the same costs by the critical path of
    their schedule and compares them with the serial elision."""
    from repro.tasking import Schedule

    set_usable_cpus(monkeypatch, cpus)
    assert plan_mod.usable_cpus(2) == cpus
    assert plan_mod.usable_cpus(1) == 1
    busy = cpu_bound(1.0, 1.0)
    blocked = [plan_mod.Cost(1.0, 0.1), plan_mod.Cost(1.0, 0.1)]
    costs = {0: (busy, 1.5), 1: (blocked, 1.5)}
    assert plan_mod.claimed_whole(costs, 2) == ({0} if cpus == 1 else set())

    # two independent claims, or the same two chained
    wide = Schedule.from_preds([set(), set()])
    chain = plan_mod.chain_schedule(2)
    assert plan_mod.serial_wins(busy, wide, 1.5, 2) == (cpus == 1)
    assert not plan_mod.serial_wins(blocked, wide, 1.5, 2)
    assert plan_mod.serial_wins(blocked, chain, 1.5, 2)  # path: 2.0
    assert plan_mod.serial_wins(busy, wide, 1.0, 2)


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert plan_mod.usable_cpus(2) == 2
    assert plan_mod.usable_cpus(8) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert plan_mod.usable_cpus(8) == 1


def test_the_measurement_leaves_the_callers_store_untouched():
    """``whole_streams`` runs the plan on a scratch copy: the store it
    is handed keeps its arrays, bit for bit, and its verdict only names
    candidates."""
    interp, info = compile_for_exec(TABLE9["P10"].source(8), "off", coarsen=1)
    plan = interp.exec_plan(info)
    store = interp.new_store()
    before = {name: view.data for name, view in store.arrays.items()}
    fresh = interp.new_store()
    whole = plan_mod.whole_streams(plan, interp.funcs, store, 2)
    assert candidate_streams(plan) and is_a_verdict(plan, whole)
    assert {n: v.data for n, v in store.arrays.items()} == before
    assert fresh.equal(store)


def test_a_blocking_stage_keeps_its_per_row_claims(monkeypatch):
    """Stages that sleep 1 ms per call cost as much per claim as in one
    union call, and a sleep overlaps on every worker: ``T``'s block
    ``i`` with ``S``'s block ``i+1``.  So ``T`` is never claimed whole,
    and no more is the plan — on one usable CPU as on two: the replay
    keeps its pipelining, and starts its helper.  (With ``S`` free the
    chained ``T`` blocks would be the critical path, as long as the
    serial elision, and the plan would rightly go whole.)"""
    import time

    def stage(*args: float) -> float:
        time.sleep(1e-3)
        return sum(args)

    source = (
        "for(i=0; i<8; i++) S: A[i] = f(A[i]);\n"
        "for(i=0; i<8; i++) T: B[i] = g(A[i], B[i]);"
    )
    for cpus in (1, 2):
        set_usable_cpus(monkeypatch, cpus)
        interp, info = compile_for_exec(
            source, "off", coarsen=1, funcs={"f": stage, "g": stage}
        )
        plan = interp.exec_plan(info)
        blocking = next(
            k for k, run in enumerate(plan.runs)
            if plan.rows[run.rows.start].stream == "T"
        )
        assert blocking in candidate_streams(plan)
        for _ in range(3):  # the second measures the verdict
            out, stats = execute_measured(
                interp, info, backend="threads", workers=2
            )
            assert interp.oracle().equal(out)
        assert blocking not in plan.claims[2].whole, cpus
        assert stats.scheduler["claims"] > len(plan.runs)
        assert stats.scheduler["helpers"] == 1


@pytest.mark.parametrize("name", ["histogram", "sumstencil"])
def test_a_cpu_bound_privatized_replay_on_one_cpu_starts_no_helper(
    monkeypatch, name
):
    """Privatized members that compute on one usable CPU cannot overlap:
    the verdict chains the whole plan, so every replay after it runs on
    the calling thread, and the accumulators stay the per-row replay's
    bit for bit."""
    set_usable_cpus(monkeypatch)
    interp, plan, pinfo = privatized_setup(REDUCTIONS[name], 24, parts=2)
    lowered = replayed_plan(interp, pinfo, plan)
    reference, _ = plan_mod.run_plan(
        interp, lowered, "threads", workers=1, collect_events=True
    )
    for _ in range(2):  # the exact claims, then the measured verdict
        execute_privatized(interp, pinfo, plan, backend="threads", workers=2)
    assert candidate_streams(lowered)
    assert lowered.claims[2].whole == every_stream(lowered)
    started = Counter(monkeypatch, threading.Thread, "start")
    for _ in range(3):
        out, stats = execute_privatized(
            interp, pinfo, plan, backend="threads", workers=2
        )
        assert reference.equal(out)
        assert stats.scheduler["helpers"] == 0
        assert stats.scheduler["claims"] == len(lowered.runs)
    assert started.calls == 0


def test_the_verdict_measures_a_plan_ending_in_an_empty_stream():
    """An empty nest lowers to a stream of no rows: the measurement
    charges it nothing and the replays stay the oracle."""
    source = (
        "for(i=0; i<8; i++) S: A[i] = f(A[i]);\n"
        "for(i=0; i<8; i++) T: B[i] = g(A[i], B[i]);\n"
        "for(i=0; i<0; i++) U: C[i] = h(B[i], C[i]);"
    )
    interp, info = compile_for_exec(source, "off", coarsen=1)
    plan = interp.exec_plan(info)
    assert not plan.runs[-1].rows and candidate_streams(plan)
    for _ in range(3):
        out, _ = execute_measured(interp, info, backend="threads", workers=2)
        assert interp.oracle().equal(out)
    assert is_a_verdict(plan, plan.claims[2].whole)


def test_the_measured_span_reports_claims_and_whole(monkeypatch):
    """``exec.measured`` carries what ``stats.scheduler`` reports: the
    units dispatched and the streams claimed whole."""
    from repro.obs import spans as obs_spans

    pin_verdict(monkeypatch, "all")
    interp, info = compile_for_exec(TABLE9["P10"].source(8), "off", coarsen=1)
    execute_measured(interp, info, backend="threads", workers=2)
    with obs_spans.recording() as rec:  # the second: the measured claims
        _, stats = execute_measured(interp, info, backend="threads", workers=2)
    (measured,) = [s for s in rec.spans if s.name == "exec.measured"]
    whole = len(candidate_streams(interp.exec_plan(info)))
    assert stats.scheduler["whole"] == measured.attrs["whole"] == whole > 0
    assert stats.scheduler["claims"] == measured.attrs["claims"]


@pytest.mark.parametrize("verdict", ["none", "all", "chain"])
@pytest.mark.parametrize("coarsen", [1, 3])
@pytest.mark.parametrize("name", PKERNELS)
def test_forced_verdicts_are_the_oracle_on_pkernels(
    monkeypatch, name, coarsen, verdict
):
    """Both per-stream extremes and the per-plan chain replay
    bit-identically on threads and processes, with or without the slice
    forms."""
    pin_verdict(monkeypatch, verdict)
    for fuse in FUSE_MODES:
        interp, info = compile_for_exec(
            TABLE9[name].source(8), fuse, coarsen=coarsen
        )
        plan = interp.exec_plan(info)
        assert_claims_are_exact(interp, plan, interp.oracle())
        out, stats = execute_measured(
            interp, info, backend="processes", workers=2
        )
        assert interp.oracle().equal(out), fuse
        forced = VERDICTS[verdict](plan)
        assert plan.claims[2].whole == forced
        assert stats.scheduler["whole"] == len(forced)
        if verdict == "chain":  # one claim per stream, one at a time
            assert stats.scheduler["claims"] == len(plan.runs)
            _, stats = execute_measured(
                interp, info, backend="threads", workers=2
            )
            assert stats.scheduler["helpers"] == 0


@pytest.mark.parametrize("verdict", ["none", "all", "chain"])
@pytest.mark.parametrize("name", ["histogram", "sumstencil", "dotprod"])
def test_forced_verdicts_are_the_oracle_on_privatized_plans(
    monkeypatch, name, verdict
):
    """Member streams claimed row by row, whole, or the whole plan
    chained: the accumulators are the per-row replay's bit for bit on
    threads and processes, and a whole member stream waits for nothing
    and is its join's predecessor."""
    pin_verdict(monkeypatch, verdict)
    source = (EXAMPLES / f"{name}.c").read_text()
    interp, plan, pinfo = privatized_setup(source, 12, parts=3)
    lowered = replayed_plan(interp, pinfo, plan)
    reference, _ = plan_mod.run_plan(
        interp, lowered, "threads", workers=1, collect_events=True
    )
    assert privatized_matches(plan, interp.oracle(), reference)[0]
    assert_claims_are_exact(interp, lowered, reference)
    out, stats = execute_privatized(
        interp, pinfo, plan, backend="processes", workers=2
    )
    assert reference.equal(out)
    claims = lowered.claims[2]
    assert claims.whole == VERDICTS[verdict](lowered)
    assert stats.scheduler["whole"] == len(claims.whole)
    if verdict == "all":
        join = len(claims.runs) - 1
        for c, run in enumerate(claims.runs[:-1]):
            assert run in lowered.runs and run.kernel is None
            assert claims.schedule.succs[c] == (join,)
            assert claims.schedule.counts[c] == 0


# ----------------------------------------------------------------------
# replay battery
# ----------------------------------------------------------------------
def opaque_g(a: float, b: float) -> float:
    """A scalar function not marked elementwise (module level, so the
    process pool can pickle it): its callers keep the loop form."""
    return (a * 31.0 + 2.0 * b) % 65521.0


#: One input per shape the slice-form gate refuses: a nest ``S`` before
#: a consumer ``T`` whose kernel has the loop form only.
REFUSED_SHAPES = {
    "RPA062": (  # coupled subscript
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: B[i+j][j] = g(A[i][j], B[i+j][j]);"
    ),
    "RPA064": (  # diagonal access
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: B[i][j] = g(A[i][i], B[i][j]);"
    ),
    "RPA065": (  # non-injective write: a sum reduction with S
        "for(i=0; i<N; i++) S: B[i] += f(C[i]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++) T: B[i] += g(A[i][j], j);"
    ),
    "RPA066": (  # recurrence
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=1; j<N; j++)"
        " T: B[i][j] = g(A[i][j], B[i][j-1]);"
    ),
    "RPA067": (  # non-elementwise call (``g`` is opaque_g)
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: B[i][j] = g(A[i][j], B[i][j]);"
    ),
}


def refused_shape_oracle(code):
    funcs = {"g": opaque_g} if code == "RPA067" else None
    source = REFUSED_SHAPES[code]
    return Interpreter.from_source(source, {"N": 8}, funcs).oracle()


def refused_shape_setup(code, fuse):
    """``(interp, info, privatization plan or None)`` of a refused shape
    at N=8, coarsen 3.  A non-injective write is no pipeline (RPA013)
    but a reduction: it replays privatized, on integer-valued sums,
    exact in any order."""
    from repro.schedule import plan_privatization, privatize_info
    from repro.scop import DepKind

    funcs = {"g": opaque_g} if code == "RPA067" else None
    interp = Interpreter.from_source(
        REFUSED_SHAPES[code], {"N": 8}, funcs, fuse
    )
    if code != "RPA065":
        return interp, detect_pipeline(interp.scop, coarsen=3), None
    plan = plan_privatization(interp.scop)
    assert plan.groups
    info = privatize_info(detect_pipeline(
        interp.scop, kinds=tuple(DepKind), validate=False, coarsen=3,
    ), plan, parts=3)
    return interp, info, plan


def refused_shape_replay(interp, info, plan, backend):
    if plan is not None:
        return execute_privatized(
            interp, info, plan, backend=backend, workers=2
        )
    return execute_measured(interp, info, backend=backend, workers=2)


class TestReplayBitIdentity:
    @pytest.mark.parametrize("name", PKERNELS)
    def test_pkernel_three_runs_all_configs(self, name):
        assert_all_configs_match_sequential(
            TABLE9[name].source(8), replays=3
        )

    @pytest.mark.parametrize("name", ["listing1", "listing3", "reversed"])
    def test_example_three_runs_all_configs(self, name):
        source = (EXAMPLES / f"{name}.c").read_text()
        assert_all_configs_match_sequential(
            source, {"N": 12}, coarsen=8, replays=3
        )

    @pytest.mark.parametrize("code", sorted(REFUSED_SHAPES))
    def test_refused_shape_all_backends_both_modes(self, code):
        """Loop-only kernels replay like any other: bit-identical to the
        oracle on every backend, with the gate (``auto``, ``T`` refused
        with ``code``) and without it (``off``)."""
        oracle = refused_shape_oracle(code)
        for fuse in ("auto", "off"):
            interp, info, plan = refused_shape_setup(code, fuse)
            fallbacks = interp.fused_program.fallbacks()
            assert {s: f["code"] for s, f in fallbacks.items()} == (
                {"T": code} if fuse == "auto" else {}
            )
            for backend in BACKENDS:
                out, stats = refused_shape_replay(interp, info, plan, backend)
                assert stats.dispatch_modes["T"] == "interp"
                assert oracle.equal(out), (fuse, backend)

    @pytest.mark.parametrize("verdict", ["none", "all", "chain"])
    @pytest.mark.parametrize("code", sorted(REFUSED_SHAPES))
    def test_refused_shape_under_forced_verdicts(
        self, monkeypatch, code, verdict
    ):
        """Both per-stream extremes and the per-plan chain replay
        loop-only kernels bit-identically on threads and processes, in
        both fuse modes."""
        pin_verdict(monkeypatch, verdict)
        oracle = refused_shape_oracle(code)
        for fuse in ("auto", "off"):
            interp, info, plan = refused_shape_setup(code, fuse)
            for backend in ("threads", "processes"):
                out, stats = refused_shape_replay(interp, info, plan, backend)
                assert oracle.equal(out), (fuse, backend)
            lowered = replayed_plan(interp, info, plan)
            forced = VERDICTS[verdict](lowered)
            assert lowered.claims[2].whole == forced
            assert stats.scheduler["whole"] == len(forced)

    @pytest.mark.parametrize("name", ["histogram", "sumstencil", "dotprod"])
    def test_reduction_example_three_runs_all_backends(self, name):
        source = (EXAMPLES / f"{name}.c").read_text()
        interp, plan, pinfo = privatized_setup(source, 12, parts=3)
        seq = interp.run_sequential(interp.new_store())
        first = None
        for backend in BACKENDS:
            for k in range(3):
                out, _ = execute_privatized(
                    interp, pinfo, plan, backend=backend, workers=2
                )
                ok, detail = privatized_matches(plan, seq, out)
                assert ok, f"{backend} run {k + 1}: {detail}"
                first = first or out
                assert first.equal(out), f"{backend} run {k + 1} drifted"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_event_collection_on_a_replayed_plan(self, backend):
        interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
        _, first = execute_measured(
            interp, info, backend=backend, workers=2, collect_events=True
        )
        execute_measured(interp, info, backend=backend, workers=2)
        _, again = execute_measured(
            interp, info, backend=backend, workers=2, collect_events=True
        )
        assert first.task_members == again.task_members != ()
        assert len(first.events.events) == len(again.events.events) > 0

    def test_two_threads_replay_one_plan_concurrently(self, monkeypatch):
        """The server's shape: one (interp, analysis), several in-flight
        runs on executor threads — the first of them lowering."""
        import sys

        source = TABLE9["P5"].source(8)
        interp, info = compile_for_exec(source, "auto", coarsen=2)
        seq = interp.run_sequential(interp.new_store())
        lowered = Counter(monkeypatch, plan_mod, "lower_exec_plan")
        outs, errors = [], []
        start = threading.Barrier(4)

        def client(backend):
            try:
                start.wait(timeout=30)
                for _ in range(5):
                    out, _ = execute_measured(
                        interp, info, backend=backend, workers=2
                    )
                    outs.append(out)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(backend,))
            for backend in ("serial", "threads", "serial", "threads")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors, errors
        assert len(outs) == 20 and all(seq.equal(out) for out in outs)
        assert lowered.calls == 1
        assert list(interp.exec_plan(info).claims) == [2]  # set once


# ----------------------------------------------------------------------
# array extents: the direct min/max equals the relation-based one
# ----------------------------------------------------------------------
def relation_extent(scop, name):
    """The pre-memo implementation: tabulate every access relation of
    ``name`` and take the bounds of its image."""
    rank = scop.arrays[name]
    cells = [
        acc.explicit_relation(stmt.points, stmt.space, 0, rank).out_part[
            :, 1 : 1 + rank
        ]
        for stmt in scop.statements
        for acc in stmt.accesses
        if acc.array == name
    ]
    cells = np.concatenate([c for c in cells if c.shape[0]] or [None])
    return tuple(
        (int(lo), int(hi)) for lo, hi in zip(cells.min(0), cells.max(0))
    )


@pytest.mark.parametrize("name", PKERNELS)
def test_extent_equals_relation_bounds_on_pkernels(name):
    scop = Interpreter.from_source(TABLE9[name].source(8), {}).scop
    for array in scop.arrays:
        assert scop.array_extent(array) == relation_extent(scop, array)


def test_extent_of_strided_and_negative_offset_accesses():
    src = (
        "for(i=0; i<6; i++) for(j=1; j<5; j++)"
        " S: A[2*i-3][7-j] = f(B[i-4][3*j+1], A[2*i-3][7-j]);\n"
        "for(i=0; i<4; i++) R: B[5-2*i][0] = g(A[i][i]);"
    )
    scop = Interpreter.from_source(src, {}).scop
    assert scop.array_extent("A") == ((-3, 7), (0, 6))
    assert scop.array_extent("B") == ((-4, 5), (0, 13))
    for array in scop.arrays:
        assert scop.array_extent(array) == relation_extent(scop, array)
