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
from repro.pipeline import detect_pipeline
from repro.scop import Scop
from repro.workloads import TABLE9
from tests.conftest import (
    LISTING1,
    TWO_NEST_COPY,
    Counter,
    assert_all_configs_match_sequential,
    compile_for_exec,
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
    # one decomposition per fused task of the merged S+T stream, plus
    # one of the stream's union for the serial elision
    assert first.fused_chains == (("S", "T"),)
    assert after_one["rectangles"] == len(first.task_members) + 1 > 1
    for backend in 3 * BACKENDS:
        _, stats = execute_measured(interp, info, backend=backend, workers=2)
        assert stats.task_members == first.task_members
    assert snapshot(lowering_calls) == after_one


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
    from repro.tasking import relax_self_chains
    from repro.workloads import MatmulKernel

    interp, info = compile_for_exec(
        MatmulKernel(2, "mm").source(6), "auto", coarsen=1
    )
    raw = generate_task_ast(info)
    relaxed = relax_self_chains(interp.scop, info, raw)
    seq = interp.run_sequential(interp.new_store())
    counts = {}
    for name, ast in (("raw", raw), ("relaxed", relaxed), ("raw again", raw)):
        out, _ = execute_measured(interp, info, task_ast=ast)
        assert seq.equal(out), name
        counts[name] = interp.exec_plan(info, ast).schedule.counts
    assert counts["raw"] != counts["relaxed"]
    assert counts["raw again"] == counts["raw"]
    assert lowering_calls["lower"].calls == 2


def test_ten_privatized_runs_lower_once(lowering_calls):
    interp, plan, pinfo = privatized_setup(REDUCTIONS["histogram"], 8, 3)
    execute_privatized(interp, pinfo, plan)
    after_one = snapshot(lowering_calls)
    assert after_one["astgen"] == after_one["lower"] == 1
    for backend in 3 * BACKENDS:
        out, stats = execute_privatized(
            interp, pinfo, plan, backend=backend, workers=2
        )
        assert stats.privatization["privates"] == 6
        assert not any(a.startswith("__priv_") for a in out.arrays)
    assert snapshot(lowering_calls) == after_one


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
    extents = Counter(monkeypatch, Scop, "_access_extent")
    interp = Interpreter.from_source(LISTING1, {"N": 12})
    for _ in range(3):
        interp.new_store()
    interp.fused_program  # closure lowering asks for every offset again
    assert extents.calls == len(interp.scop.arrays)


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
    from repro.tuning import auto_tune

    src = (
        "for(i=0; i<600; i++) S: A[i] = f(A[i]);\n"
        "for(i=0; i<600; i++) R: B[i] = g(A[i], B[i]);"
    )
    interp = Interpreter.from_source(src, {})
    info = detect_pipeline(interp.scop)
    sizes = []
    real = plan_mod.lower_exec_plan

    def recording(*args, **kwargs):
        sizes.append(len(interp._exec_plans))
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_mod, "lower_exec_plan", recording)
    tuned = auto_tune(interp, info, "serial", 2, repeats=2)
    assert len(tuned.scores) > EXEC_PLAN_CACHE_SIZE  # the scan overflows it
    assert len(sizes) == len(tuned.scores)  # one lowering per candidate
    assert max(sizes) <= EXEC_PLAN_CACHE_SIZE
    assert len(interp._exec_plans) == EXEC_PLAN_CACHE_SIZE


def test_lower_span_is_emitted_only_on_a_miss():
    from repro.obs import spans as obs_spans

    interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
    with obs_spans.recording() as rec:
        for _ in range(3):
            _, stats = execute_measured(interp, info)
    lowers = [s for s in rec.spans if s.name == "exec.lower"]
    assert len(lowers) == 1
    # 16 four-point row segments: one rectangle per task, all above
    # LOOP_FORM_POINTS — counts that repeat exactly
    assert lowers[0].attrs == {
        "tasks": len(stats.task_members), "chains": 1,
        "rects": 16, "loop_rects": 0,
    }
    assert sum(s.name == "exec.measured" for s in rec.spans) == 3


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
# the compiled schedule: the quotient of the analysis' task graph over
# the plan rows, pinned by goldens written while plans still resolved
# dependArr slots (the 52-plan battery below)
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


def privatized_plan(name):
    interp, plan, pinfo = privatized_setup(REDUCTIONS[name], 8, parts=3)
    return interp.exec_plan(pinfo, None, plan)


def relaxed_setup(name):
    """``(interp, plan)`` of the hybrid-relaxed task AST of ``name``."""
    from repro.schedule import generate_task_ast
    from repro.tasking import relax_self_chains
    from repro.workloads import figure11_kernels

    kernels = {k.name: k for k in figure11_kernels()} | TABLE9
    interp, info = compile_for_exec(
        kernels[name].source(6), "auto", coarsen=1
    )
    relaxed = relax_self_chains(interp.scop, info, generate_task_ast(info))
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
    from repro.schedule import build_privatized_graph
    from repro.tasking import TaskGraph

    if plan.privatization is not None:
        graph, _ = build_privatized_graph(plan.ast, plan.privatization)
    else:
        graph = TaskGraph.from_task_ast(plan.ast)
    members = plan.stats["task_members"] or tuple(
        (t,) for t in range(len(graph))
    )
    assert sorted(t for ts in members for t in ts) == list(range(len(graph)))
    row_of = {t: row for row, ts in enumerate(members) for t in ts}
    unchained = getattr(plan.privatization, "statements", set())
    chained = {
        n.statement for n in plan.ast.nests
        if n.chained and n.statement not in unchained
    }
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


def assert_schedule_is_the_graph_quotient(plan, key=None):
    sched = plan.schedule
    preds = sched.preds()
    assert len(sched) == len(plan.rows) > 0
    assert sched.counts == tuple(len(p) for p in preds)
    assert sched.roots == tuple(t for t, p in enumerate(preds) if not p)
    assert all(p < t for t, ps in enumerate(preds) for p in ps)
    assert preds == graph_quotient(plan)
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
        assert (
            lowered.schedule.preds()
            == TaskGraph.from_task_ast(lowered.ast).preds
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


def test_replays_resolve_no_slot_and_create_no_task(monkeypatch):
    from repro import tasking

    interp, info = compile_for_exec(TWO_NEST_COPY, "auto", {"N": 8}, 4)
    graphs = Counter(monkeypatch, tasking.TaskGraph, "from_task_ast")
    created = Counter(monkeypatch, tasking.OmpTaskSystem, "create_task")
    slots = Counter(monkeypatch, tasking.OmpTaskSystem, "slot")
    plan = interp.exec_plan(info)
    assert graphs.calls == 1 and len(plan.rows) > 0  # once, at lowering
    seq = interp.run_sequential(interp.new_store())
    for backend in 10 * ("threads", "processes") + ("serial",):
        out, stats = execute_measured(interp, info, backend=backend, workers=2)
        assert seq.equal(out)
        if backend != "serial":
            assert stats.scheduler["tasks"] == len(plan.rows)
    assert graphs.calls == 1
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
    loops — and a threaded replay one per row: every S1 row also
    releases an S2 row, so nothing contracts.  No replay calls
    ``run_block``.  The fine and coarse blockings elide to the same
    rectangles, so they are one program."""
    from repro.interp.fused import FusedKernel

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
        assert len(interp.exec_plan(info).claims.runs) == calls["threads"]
    assert union[1] == union[48]


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
    lowered = interp.exec_plan(pinfo, None, plan)
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
def assert_claims_are_exact(interp, plan, reference):
    """``plan.claims`` is the exact contraction of ``plan.schedule``, and
    its threaded replay at two workers is ``reference`` bit for bit."""
    from repro.interp.fused import rectangles

    sched, claims = plan.schedule, plan.claims
    stream_of = {t: k for k, run in enumerate(plan.runs) for t in run.rows}
    # a partition of the rows into consecutive runs of one stream each
    assert [t for run in claims.runs for t in run.rows] == list(
        range(len(plan.rows))
    )
    claim_of = {t: c for c, run in enumerate(claims.runs) for t in run.rows}
    for run in claims.runs:
        assert len({stream_of[t] for t in run.rows}) == 1
        assert run.kernel is plan.runs[stream_of[run.rows[0]]].kernel
        if run.kernel is None:
            assert run.rects == ()
        else:
            union = np.concatenate(
                [plan.rows[t].payload["iters"] for t in run.rows]
            )
            assert list(run.rects) == rectangles(union)
    # every internal edge is its source's only successor and its
    # target's only predecessor; at every boundary inside a stream, not
    for t in range(len(plan.rows) - 1):
        chained = sched.succs[t] == (t + 1,) and sched.counts[t + 1] == 1
        same_stream = stream_of[t] == stream_of[t + 1]
        assert (claim_of[t] == claim_of[t + 1]) == (chained and same_stream)
    # the quotient's edges are the images of the row edges across claims
    images = {
        (claim_of[t], claim_of[s])
        for t, ss in enumerate(sched.succs)
        for s in ss
        if claim_of[t] != claim_of[s]
    }
    assert images == {
        (c, s) for c, ss in enumerate(claims.schedule.succs) for s in ss
    }
    out, stats = plan_mod.run_plan(interp, plan, "threads", workers=2)
    assert stats.scheduler["tasks"] == len(plan.rows)
    assert stats.scheduler["claims"] == len(claims.runs)
    assert reference.equal(out)


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
    """Members are unchained and have no kernel: each is a claim of its
    own."""
    interp, plan, pinfo = privatized_setup(REDUCTIONS[name], 8, parts=3)
    lowered = interp.exec_plan(pinfo, None, plan)
    per_row, _ = plan_mod.run_plan(
        interp, lowered, "threads", workers=1, collect_events=True
    )
    assert_claims_are_exact(interp, lowered, per_row)
    members = [
        run for run in lowered.claims.runs
        if "remap" in lowered.rows[run.rows[0]].payload
    ]
    assert members and all(len(run.rows) == 1 for run in members)


def test_claims_are_built_on_the_first_untraced_threads_replay():
    """Serial, processes and collecting replays never contract."""
    interp, info = compile_for_exec(TABLE9["P5"].source(9), "auto", coarsen=1)
    plan = interp.exec_plan(info)
    for backend in ("serial", "processes"):
        execute_measured(interp, info, backend=backend, workers=2)
    execute_measured(
        interp, info, backend="threads", workers=2, collect_events=True
    )
    assert "claims" not in vars(plan)
    _, stats = execute_measured(interp, info, backend="threads", workers=2)
    assert "claims" in vars(plan) and len(plan.claims.runs) == 1
    assert stats.scheduler["claims"] == 1 < stats.scheduler["tasks"]


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
    "RPA063": (  # reversed access
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: B[N-1-i][j] = g(A[i][j], B[N-1-i][j]);"
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
        with ``code``) and without it (``off``).  A non-injective write
        is no pipeline (RPA013) but a reduction: it replays privatized,
        on integer-valued sums, exact in any order."""
        from repro.interp import execute_privatized
        from repro.schedule import plan_privatization, privatize_info
        from repro.scop import DepKind

        source = REFUSED_SHAPES[code]
        funcs = {"g": opaque_g} if code == "RPA067" else None
        oracle = Interpreter.from_source(source, {"N": 8}, funcs).oracle()
        for fuse in ("auto", "off"):
            interp = Interpreter.from_source(source, {"N": 8}, funcs, fuse)
            fallbacks = interp.fused_program.fallbacks()
            assert {s: f["code"] for s, f in fallbacks.items()} == (
                {"T": code} if fuse == "auto" else {}
            )
            if code == "RPA065":
                plan = plan_privatization(interp.scop)
                assert plan.groups
                info = privatize_info(detect_pipeline(
                    interp.scop, kinds=tuple(DepKind), validate=False,
                    coarsen=3,
                ), plan, parts=3)
            else:
                plan = None
                info = detect_pipeline(interp.scop, coarsen=3)
            for backend in BACKENDS:
                if plan is not None:
                    out, stats = execute_privatized(
                        interp, info, plan, backend=backend, workers=2
                    )
                else:
                    out, stats = execute_measured(
                        interp, info, backend=backend, workers=2
                    )
                assert stats.dispatch_modes["T"] == "interp"
                assert oracle.equal(out), (fuse, backend)

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
