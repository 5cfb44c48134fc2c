"""The traced pass: per-layer metrics, measured from outside.

The harness replays the chain ``repro.driver.transform`` runs -- link by
link, each public call inside an in-memory span (name, start, end,
parent, kernel id) -- and takes its counts at the same boundaries.  The
end-to-end numbers are never read from this pass: it costs what tracing
costs, and ``obs.trace_overhead_pct`` says how much.

Times are at nominal host speed like the end-to-end ones (see
``harness``), but scaled by phase, not by slice: every span carries its
wall and its CPU time, and a phase's spans share the median of the
probes taken during that phase.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
import tempfile
import threading
import time

import reference
import stats
from harness import BURST_PROBES, Gauge, busy_share, nominal, speed_of
from workloads import STAGE_SECONDS, WORKERS

#: layer metric -> (unit, how per-kernel values become the workload's
#: number).  Times are geometric means over kernels, counts are sums,
#: shares and ratios (and differences that may be negative) are means.
LAYERS: dict[str, tuple[str, str]] = {
    "lang.parse_ms": ("ms", "geomean"),
    "scop.extract_ms": ("ms", "geomean"),
    "scop.points": ("count", "sum"),
    "interp.compile_stmts_ms": ("ms", "geomean"),
    "presburger.ops": ("count", "sum"),
    "presburger.hit_rate": ("share", "mean"),
    "presburger.evictions": ("count", "sum"),
    "pipeline.detect_ms": ("ms", "geomean"),
    "pipeline.maps": ("count", "sum"),
    "pipeline.blocks": ("count", "sum"),
    "schedule.build_ms": ("ms", "geomean"),
    "schedule.astgen_ms": ("ms", "geomean"),
    "schedule.legality_ms": ("ms", "geomean"),
    "analysis.portfolio_ms": ("ms", "geomean"),
    "schedule.privatize_plan_ms": ("ms", "geomean"),
    "schedule.proof_verify_ms": ("ms", "geomean"),
    "interp.lower_fused_ms": ("ms", "geomean"),
    "interp.fused_iter_share": ("share", "mean"),
    "schedule.serialize_ms": ("ms", "geomean"),
    "schedule.deserialize_ms": ("ms", "geomean"),
    "schedule.ast_bytes": ("B", "sum"),
    "service.build_artifact_ms": ("ms", "geomean"),
    "service.load_analysis_ms": ("ms", "geomean"),
    "store.key_ms": ("ms", "geomean"),
    "store.put_ms": ("ms", "geomean"),
    "store.get_ms": ("ms", "geomean"),
    "store.artifact_bytes": ("B", "sum"),
    "tasking.graph_ms": ("ms", "geomean"),
    "tasking.tasks": ("count", "sum"),
    "tasking.depend_slots": ("count", "sum"),
    "tasking.simulate_ms": ("ms", "geomean"),
    "interp.oracle_seq_ms": ("ms", "geomean"),
    "tasking.verify_exec_ms": ("ms", "geomean"),
    "interp.kernel_ms": ("ms", "geomean"),
    "interp.exec_prep_ms": ("ms", "geomean"),
    "tasking.per_task_us": ("us", "mean"),
    "tasking.steals": ("count", "mean"),
    "tasking.threads_speedup": ("ratio", "mean"),
    "tasking.worker_utilization": ("share", "mean"),
    "service.cold_ms": ("ms", "geomean"),
    "service.compile_p50_ms": ("ms", "whole"),
    "service.run_p50_ms": ("ms", "whole"),
    "service.queue_wait_p50_ms": ("ms", "whole"),
    "service.overhead_p50_ms": ("ms", "whole"),
    "service.inflight_share": ("share", "whole"),
    "service.peak_rss_mb": ("MB", "whole"),
    "baseline.numpy_seq_ms": ("ms", "geomean"),
    "baseline.interp_seq_ms": ("ms", "geomean"),
    "baseline.run_vs_numpy": ("ratio", "mean"),
    "ledger.unattributed_ms": ("ms", "mean"),
    "ledger.unattributed_share": ("share", "mean"),
    "ledger.failed_share": ("share", "whole"),
    "obs.trace_overhead_pct": ("%", "mean"),
}

#: layer metric -> (chain, span name) for the metrics that are one span
SPAN_METRICS = {
    "lang.parse_ms": ("cold", "lang.parse"),
    "scop.extract_ms": ("cold", "scop.extract"),
    "interp.compile_stmts_ms": ("cold", "interp.compile_stmts"),
    "pipeline.detect_ms": ("cold", "pipeline.detect"),
    "schedule.build_ms": ("cold", "schedule.build"),
    "schedule.astgen_ms": ("cold", "schedule.astgen"),
    "schedule.legality_ms": ("cold", "schedule.legality"),
    "analysis.portfolio_ms": ("cold", "analysis.portfolio"),
    "schedule.privatize_plan_ms": ("cold", "schedule.privatize_plan"),
    "interp.lower_fused_ms": ("cold", "interp.lower_fused"),
    "service.build_artifact_ms": ("cold", "service.build_artifact"),
    "store.key_ms": ("cold", "store.key"),
    "store.put_ms": ("cold", "store.put"),
    "tasking.graph_ms": ("cold", "tasking.graph"),
    "tasking.simulate_ms": ("cold", "tasking.simulate"),
    "interp.oracle_seq_ms": ("cold", "interp.oracle_seq"),
    "tasking.verify_exec_ms": ("cold", "tasking.verify_exec"),
    "store.get_ms": ("warm", "store.get"),
    "service.load_analysis_ms": ("warm", "service.load_analysis"),
    "schedule.proof_verify_ms": ("side", "schedule.proof_verify"),
    "schedule.serialize_ms": ("side", "schedule.serialize"),
    "schedule.deserialize_ms": ("side", "schedule.deserialize"),
    "interp.kernel_ms": ("side", "interp.kernel"),
    "baseline.numpy_seq_ms": ("side", "baseline.numpy_seq"),
    "baseline.interp_seq_ms": ("side", "baseline.interp_seq"),
}

#: replays of the chain per kernel, and untraced one-shot cold samples
#: per kernel the replay is held against.  The pass runs at its floors:
#: it explains the end-to-end numbers, it does not gate anything.
CHAIN_REPLAYS, UNTRACED_SAMPLES = 3, 3
#: timed runs between two probes
RUN_GROUP = 4
#: server ring holds 64 entries; two clients fetch it every 20 replies
RING_EVERY = 20


class Tracer:
    """Spans kept in memory; written with the results."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, kernel: str, chain: str, rep: int = 0):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        cpu, start = time.process_time_ns(), time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            cpu = time.process_time_ns() - cpu
            stack.pop()
            self.emit(name, start, end, kernel, chain, rep, parent, sid, cpu)

    def emit(self, name, start_ns, end_ns, kernel, chain, rep=0, parent=0,
             sid=None, cpu_ns=None):
        """``cpu_ns`` None means CPU-bound throughout (a served request:
        the CPU is burnt in the server)."""
        wall = end_ns - start_ns
        record = {
            "id": sid if sid is not None else next(self._ids),
            "parent": parent,
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "busy": 1.0 if cpu_ns is None else busy_share(wall, cpu_ns),
            "speed": 1.0,
            "kernel": kernel,
            "chain": chain,
            "rep": rep,
        }
        with self._lock:
            self.spans.append(record)

    def set_speed(self, chains: tuple, gauges: list) -> None:
        """Give every span of ``chains`` the median speed of ``gauges``."""
        speed = speed_of(gauges)
        for s in self.spans:
            if s["chain"] in chains:
                s["speed"] = speed

    @staticmethod
    def ms(span: dict) -> float:
        """A span's duration at nominal host speed."""
        wall = (span["end_ns"] - span["start_ns"]) / 1e6
        return nominal(wall, span["speed"], span["busy"])

    def durations_ms(self, kernel: str, chain: str, name: str) -> list[float]:
        return [
            self.ms(s)
            for s in self.spans
            if s["kernel"] == kernel and s["chain"] == chain and s["name"] == name
        ]

    def chain_sums_ms(self, kernel: str, chain: str, root: str):
        """Per replay: (root duration, sum of the root's direct children)."""
        out = []
        for r in self.spans:
            if r["kernel"] == kernel and r["chain"] == chain and r["name"] == root:
                children = sum(
                    self.ms(s) for s in self.spans if s["parent"] == r["id"]
                )
                out.append((self.ms(r), children))
        return out


# ----------------------------------------------------------------------
# the chain, link by link
# ----------------------------------------------------------------------
def _front(tr, prep, kid, chain, rep):
    """parse -> SCoP -> compiled statements, as ``Interpreter.from_source``."""
    from repro.interp import Interpreter
    from repro.lang import parse
    from repro.scop import extract_scop

    case, opts = prep.case, prep.options
    with tr.span("lang.parse", kid, chain, rep):
        program = parse(case.source)
    with tr.span("scop.extract", kid, chain, rep):
        scop = extract_scop(program, dict(case.params))
    with tr.span("interp.compile_stmts", kid, chain, rep):
        interp = Interpreter(
            program, scop, prep.funcs, vectorize=opts.vectorize, fuse=opts.fuse
        )
    return interp


def _analyze(tr, prep, interp, kid, rep):
    """``repro.driver.analyze`` unrolled into its public calls (both the
    standard and the privatized spine)."""
    from repro.driver import Analysis
    from repro.pipeline import detect_pipeline
    from repro.schedule import build_schedule, check_legality, generate_task_ast
    from repro.tasking import TaskGraph

    opts, scop = prep.options, interp.scop
    cost = opts.cost_model.block_cost
    span = lambda name: tr.span(name, kid, "cold", rep)  # noqa: E731
    plan = report = None
    if opts.privatize:
        from repro.analysis.portfolio import run_portfolio
        from repro.schedule import plan_privatization

        with span("analysis.portfolio"):
            report = run_portfolio(scop)
        with span("schedule.privatize_plan"):
            plan = plan_privatization(scop, report)
    privatized = plan is not None and bool(plan.groups)
    if privatized:
        from repro.schedule import (
            build_privatized_graph,
            privatize_info,
            verify_privatized_graph,
        )
        from repro.scop import DepKind
        from repro.scop.validate import validate_scop

        with span("scop.validate"):
            validate_scop(
                scop, reduction_waivers=plan.statements
            ).raise_if_invalid()
        with span("pipeline.detect"):
            base = detect_pipeline(
                scop, kinds=tuple(DepKind), validate=False, coarsen=opts.coarsen
            )
        with span("schedule.privatize_info"):
            info = privatize_info(
                base, plan, parts=opts.privatize_parts or max(2, opts.workers)
            )
    else:
        with span("pipeline.detect"):
            info = detect_pipeline(scop, kinds=opts.kinds, coarsen=opts.coarsen)
    with span("schedule.build"):
        schedule = build_schedule(info)
    with span("schedule.astgen"):
        ast = generate_task_ast(info, schedule)
    joins = ()
    with span("tasking.graph"):
        if privatized:
            graph, joins = build_privatized_graph(ast, plan, cost_of_block=cost)
        else:
            graph = TaskGraph.from_task_ast(ast, cost_of_block=cost)
    with span("schedule.legality"):
        legality = check_legality(
            scop, info, graph, relaxed=plan.relaxed() if privatized else None
        )
        legality.raise_if_illegal()
        if privatized:
            verify_privatized_graph(scop, plan, graph).raise_if_invalid()
    return Analysis(
        info=info, schedule=schedule, task_ast=ast, graph=graph,
        legality=legality, portfolio=report, plan=plan,
        joins=tuple(joins), privatized=privatized,
    )


def _finish(tr, run, prep, interp, analysis, kid, chain, rep) -> bool:
    """Oracle, verification run, measured run, simulation -- the part of
    ``transform`` after the compile; True when every output agrees."""
    from repro.interp import (
        execute_measured,
        execute_privatized,
        privatized_matches,
    )
    from repro.tasking import bind_interpreter_actions, execute, simulate

    opts = prep.options
    span = lambda name: tr.span(name, kid, chain, rep)  # noqa: E731
    with span("interp.oracle_seq"):
        seq = interp.run_sequential(interp.new_store())
    if analysis.privatized:
        with span("tasking.verify_exec"):
            out, _ = execute_privatized(
                interp, analysis.info, analysis.plan, backend="serial",
                workers=opts.workers,
            )
            ok, _ = privatized_matches(analysis.plan, seq, out)
        with span("interp.execute"):
            store, _ = execute_privatized(
                interp, analysis.info, analysis.plan, backend="serial",
                workers=opts.workers,
                cost_of_block=opts.cost_model.block_cost,
            )
            ok = ok and privatized_matches(analysis.plan, seq, store)[0]
    else:
        with span("tasking.verify_exec"):
            par = interp.new_store()
            bind_interpreter_actions(analysis.graph, interp, par)
            execute(analysis.graph, workers=opts.workers)
            ok = seq.equal(par)
        with span("interp.execute"):
            store, _ = execute_measured(
                interp, analysis.info, backend="serial", workers=opts.workers,
                cost_of_block=opts.cost_model.block_cost,
            )
            ok = ok and seq.equal(store)
    with span("tasking.simulate"):
        simulate(analysis.graph, workers=opts.workers, overhead=opts.overhead)
    return bool(ok) and run.outputs_match(prep, store)


def replay_cold(tr, run, prep, rep: int):
    """One traced cold one-shot:
    ``(ok, (counts, interp, analysis, artifact))``."""
    from repro.presburger import cache as presburger_cache
    from repro.service import build_artifact
    from repro.store import ArtifactStore, artifact_key

    case, opts, kid = prep.case, prep.options, prep.case.id
    span = lambda name: tr.span(name, kid, "cold", rep)  # noqa: E731
    cache_dir = tempfile.mkdtemp(prefix="chain-", dir=run.work)
    try:
        presburger_cache.cache_clear()
        with span("oneshot.cold"):
            interp = _front(tr, prep, kid, "cold", rep)
            with span("store.key"):
                key = artifact_key(case.source, case.params, opts)
            store = ArtifactStore(cache_dir)
            with span("store.get"):
                missed = store.get(key) is None
            t0 = time.perf_counter()
            analysis = _analyze(tr, prep, interp, kid, rep)
            elapsed = time.perf_counter() - t0
            with span("interp.lower_fused"):
                interp.fused_program  # build_artifact forces this plan
            with span("service.build_artifact"):
                artifact = build_artifact(
                    interp, case.source, case.params, opts, analysis,
                    timings={"analyze_s": elapsed},
                )
            with span("store.put"):
                path = store.put(key, artifact)
            pstats = presburger_cache.stats()
            ok = _finish(tr, run, prep, interp, analysis, kid, "cold", rep)
        counts = {
            "scop.points": sum(len(s.points) for s in interp.scop.statements),
            "presburger.ops": pstats.calls,
            "presburger.hit_rate": pstats.hit_rate,
            "presburger.evictions": pstats.evictions,
            "pipeline.maps": len(analysis.info.pipeline_maps),
            "pipeline.blocks": analysis.info.num_tasks(),
            "tasking.tasks": len(analysis.graph),
            "tasking.depend_slots": sum(
                len(b.in_tokens) for b in analysis.task_ast.all_blocks()
            ),
            "store.artifact_bytes": os.path.getsize(path),
        }
        return ok and missed, (counts, interp, analysis, artifact)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def replay_warm(tr, run, prep, rep: int):
    """One traced warm one-shot against the populated store."""
    from repro.presburger import cache as presburger_cache
    from repro.service import load_analysis
    from repro.store import ArtifactStore, artifact_key

    case, opts, kid = prep.case, prep.options, prep.case.id
    span = lambda name: tr.span(name, kid, "warm", rep)  # noqa: E731
    presburger_cache.cache_clear()
    with span("oneshot.warm"):
        interp = _front(tr, prep, kid, "warm", rep)
        with span("store.key"):
            key = artifact_key(case.source, case.params, opts)
        with span("store.get"):
            artifact = ArtifactStore(prep.warm_dir).get(key)
        if artifact is None:
            return False, None
        with span("service.load_analysis"):
            analysis = load_analysis(interp, opts, artifact)
        ok = _finish(tr, run, prep, interp, analysis, kid, "warm", rep)
    return ok, None


def side_measures(tr, run, prep, interp, analysis, artifact, rep: int):
    """Links that sit inside another public call (serialization inside
    ``build_artifact``, proof re-verification inside ``load_analysis``)
    and the baselines, each timed on its own."""
    from repro.schedule import generate_task_ast
    from repro.schedule.serialize import dumps_task_ast, loads_task_ast

    kid = prep.case.id
    span = lambda name: tr.span(name, kid, "side", rep)  # noqa: E731
    with span("schedule.serialize"):
        blob = dumps_task_ast(analysis.task_ast)
    with span("schedule.deserialize"):
        loads_task_ast(blob)
    if artifact.privatized:
        from repro.analysis.portfolio.privatize import PrivatizationProof
        from repro.schedule.privatize import plan_from_proofs

        proofs = [PrivatizationProof.from_dict(p) for p in artifact.proofs]
        with span("schedule.proof_verify"):
            plan_from_proofs(interp.scop, proofs)
    ast = generate_task_ast(analysis.info)
    store = interp.new_store()
    with span("interp.kernel"):
        for nest in ast.nests:
            for block in nest.blocks:
                interp.run_block(store, block.statement, block.iterations)
    ok = run.outputs_match(prep, store)
    with span("baseline.interp_seq"):
        seq = interp.run_sequential(interp.new_store())
    ok = ok and run.outputs_match(prep, seq)
    stage = (
        reference.blocking_stage(STAGE_SECONDS) if prep.case.opaque else None
    )
    with span("baseline.numpy_seq"):
        # on opaque_stage the plain rendering must call the stage too
        reference.run(prep.case.nests, prep.inputs, stage=stage)
    return ok, len(blob)


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
def _untraced_cold(run, gauges: list) -> dict[str, list]:
    """Plain ``transform`` samples, tracing off: what the replay is held
    against, and the populated stores the warm replay reads.  Per kernel,
    ``[(raw ms, CPU-busy share), ...]``."""
    samples: dict[str, list] = {p.case.id: [] for p in run.prepared}
    for _ in range(1 if run.tiny else UNTRACED_SAMPLES):
        for prep in run.prepared:
            got = run.oneshot_sample(prep, warm=False)
            if got is not None:
                samples[prep.case.id].append(got[:2])
                gauges.append(got[2])
    return samples


def _chains(tr, run, counts, gauges: list) -> None:
    replays = 1 if run.tiny else CHAIN_REPLAYS
    for rep in range(replays):
        for prep in run.prepared:
            with Gauge() as gauge:
                got = run.attempt(
                    f"traced cold chain {prep.case.id}",
                    lambda: replay_cold(tr, run, prep, rep),
                )
            gauges.append(gauge)
            if got is None:
                continue
            kcounts, interp, analysis, artifact = got
            with Gauge() as gauge:
                if prep.warm_dir is not None:
                    run.attempt(
                        f"traced warm chain {prep.case.id}",
                        lambda: replay_warm(tr, run, prep, rep),
                    )
                nbytes = run.attempt(
                    f"side measures {prep.case.id}",
                    lambda: side_measures(
                        tr, run, prep, interp, analysis, artifact, rep
                    ),
                )
            gauges.append(gauge)
            kcounts["schedule.ast_bytes"] = nbytes or 0
            counts.setdefault(prep.case.id, kcounts)
    run.samples["chain_replays"] = f"{replays} per kernel"


def _run_layers(tr, run, per_kernel, counts) -> None:
    """Run-side layers: dispatch cost, prep cost, threads against serial."""
    compiled = run.compile_all()
    run.warm_up_runs(compiled)
    taken = []
    for backend in ("serial", "threads"):
        for k, prep in enumerate(run.prepared):
            for _ in range(-(-run.run_floor // RUN_GROUP)):  # a probe pair per group
                taken += [
                    (backend, k, *sample)
                    for sample in run.run_samples(
                        prep, compiled[k], backend, RUN_GROUP
                    )
                ]
    speed = speed_of(g for *_, g, _ in taken)
    seen: dict[str, list] = {"serial": [], "threads": []}
    for backend, k, ms, busy, _, st in taken:
        # outside wall and the backend's own inner wall, same scale
        scale = nominal(1.0, speed, busy)
        seen[backend].append((k, ms * scale, st.wall_time * 1e3 * scale, st))
    for k, prep in enumerate(run.prepared):
        kid = prep.case.id
        row = per_kernel.setdefault(kid, {})
        serial = [row_[1:] for row_ in seen["serial"] if row_[0] == k]
        threads = [row_[1:] for row_ in seen["threads"] if row_[0] == k]
        if not serial or not threads:
            continue
        outside = stats.median([ms for ms, _, _ in serial])
        inner = stats.median([inner_ms for _, inner_ms, _ in serial])
        kernel_ms = stats.median(tr.durations_ms(kid, "side", "interp.kernel") or [0.0])
        tasks = counts.get(kid, {}).get("tasking.tasks", 0)
        row["interp.exec_prep_ms"] = stats.median(
            [ms - inner_ms for ms, inner_ms, _ in serial]
        )
        row["tasking.per_task_us"] = (
            (inner - kernel_ms) * 1e3 / tasks if tasks else 0.0
        )
        row["interp.fused_iter_share"] = serial[0][2].fused_iteration_coverage
        row["tasking.steals"] = sum(
            (st.scheduler or {}).get("steals", 0) for _, _, st in threads
        ) / len(threads)
        t_outside = stats.median([ms for ms, _, _ in threads])
        row["tasking.threads_speedup"] = outside / t_outside
        numpy_ms = stats.median(
            tr.durations_ms(kid, "side", "baseline.numpy_seq") or [0.0]
        )
        row["baseline.run_vs_numpy"] = outside / numpy_ms if numpy_ms else 0.0
        if compiled[k] is not None:
            got = run.attempt(
                f"event-collecting run {kid}",
                lambda: run.run_once(
                    prep, *compiled[k], "threads", collect_events=True
                ),
            )
            if got is not None and got[2].events is not None:
                row["tasking.worker_utilization"] = (
                    got[2].events.worker_utilization()
                )


def _served_layers(tr, run) -> dict:
    """The closed loop again, with the server's own account of each
    request fetched through its ``requests`` verb."""
    server_rows: dict[str, dict] = {}
    client_rows: list[tuple[str, str, float]] = []
    lock = threading.Lock()
    replies = [0] * WORKERS

    def fetch_ring() -> None:
        try:
            ring = run.server.request({"op": "requests", "n": 64})
        except (OSError, ValueError):
            return
        with lock:
            for entry in ring.get("requests", ()):
                server_rows[entry["rid"]] = entry

    def on_reply(client, verb, ci, start_ns, end_ns, reply):
        kid = run.prepared[ci].case.id
        tr.emit(f"service.request.{verb}", start_ns, end_ns, kid, "served")
        with lock:
            client_rows.append((reply.get("rid"), verb, (end_ns - start_ns) / 1e6))
        replies[client] += 1
        if replies[client] % RING_EVERY == 0:
            fetch_ring()

    with Gauge(BURST_PROBES) as cold_gauge:
        cold_ms = run.served_cold()
    gauges = [cold_gauge]
    slices, burst = run.floors["slices"], run.burst_size()
    sequences = run.client_sequences(burst * slices)
    for s in range(slices):
        _, gauge = run.served_burst(sequences, s * burst, burst, on_reply)
        gauges.append(gauge)
    fetch_ring()
    tr.set_speed(("served",), gauges)
    speed = speed_of(gauges)
    matched = [
        (verb, ms, server_rows[rid])
        for rid, verb, ms in client_rows
        if rid in server_rows and server_rows[rid].get("ok")
    ]
    run.samples["service.requests_matched"] = str(len(matched))

    def p50(values):
        """Median at nominal speed (everything here is server CPU)."""
        return stats.median(values) / speed if values else 0.0

    return {
        "service.cold_ms": stats.geomean(cold_ms) / speed,
        "service.compile_p50_ms": p50(
            [row["wall_ms"] for verb, _, row in matched if verb == "compile"]
        ),
        "service.run_p50_ms": p50(
            [row["wall_ms"] for verb, _, row in matched if verb == "run"]
        ),
        "service.queue_wait_p50_ms": p50(
            [row["queue_wait_ms"] for _, _, row in matched if "queue_wait_ms" in row]
        ),
        "service.overhead_p50_ms": p50(
            [ms - row["wall_ms"] for _, ms, row in matched]
        ),
        "service.inflight_share": (
            sum(row.get("status") == "inflight" for _, _, row in matched)
            / len(matched) if matched else 0.0
        ),
        "service.peak_rss_mb": run.server.peak_rss_mb(),
    }


def _aggregate(name: str, values: list[float]) -> float:
    how = LAYERS[name][1]
    if not values:
        return 0.0
    if how == "sum":
        return float(sum(values))
    if how == "mean":
        return sum(values) / len(values)
    return stats.geomean(values)


def traced_pass(run, import_s: float, import_gauge):
    """Every per-layer metric of one workload: ``(metrics, units, extra)``."""
    tr = Tracer()
    run.setup(import_s, import_gauge)
    gauges: list = []
    with run.phase("untraced_cold"):
        untraced_raw = _untraced_cold(run, gauges)
    counts: dict[str, dict] = {}
    with run.phase("chains"):
        _chains(tr, run, counts, gauges)
    # the untraced samples and the replays they are held against are
    # neighbours in time and share one speed
    tr.set_speed(("cold", "warm", "side"), gauges)
    speed = speed_of(gauges)
    untraced = {
        kid: {
            "median": stats.median([nominal(ms, speed, busy) for ms, busy in v]),
            "n": len(v),
        }
        for kid, v in untraced_raw.items() if v
    }
    per_kernel: dict[str, dict] = {}
    with run.phase("run_layers"):
        _run_layers(tr, run, per_kernel, counts)

    derived = {}
    for prep in run.prepared:
        kid = prep.case.id
        row = per_kernel.setdefault(kid, {})
        row.update(counts.get(kid, {}))
        for name, (chain, span_name) in SPAN_METRICS.items():
            values = tr.durations_ms(kid, chain, span_name)
            row[name] = stats.median(values) if values else 0.0
        base = untraced.get(kid)
        sums = tr.chain_sums_ms(kid, "cold", "oneshot.cold")
        if base and sums:
            total = stats.median([t for t, _ in sums])
            attributed = stats.median([c for _, c in sums])
            row["ledger.unattributed_ms"] = base["median"] - attributed
            row["ledger.unattributed_share"] = (
                row["ledger.unattributed_ms"] / base["median"]
            )
            row["obs.trace_overhead_pct"] = (
                100.0 * (total - base["median"]) / base["median"]
            )
            derived[kid] = {
                "untraced_oneshot_cold_ms": base["median"],
                "untraced_n": base["n"],
                "traced_chain_ms": total,
                "attributed_ms": attributed,
                "replays": len(sums),
            }

    metrics = {
        name: _aggregate(
            name,
            [per_kernel[p.case.id][name] for p in run.prepared
             if name in per_kernel[p.case.id]],
        )
        for name, (_, how) in LAYERS.items()
        if how != "whole"
    }
    with run.phase("served"):
        metrics.update(_served_layers(tr, run))
    metrics["ledger.failed_share"] = run.tally.failed / max(1, run.tally.attempted)
    metrics = {name: float(metrics[name]) for name in LAYERS}
    units = {name: unit for name, (unit, _) in LAYERS.items()}
    extra = {
        "trace_overhead_derived_from": derived,
        "layer_kernels": per_kernel,
        "spans": tr.spans,
    }
    return metrics, units, extra
