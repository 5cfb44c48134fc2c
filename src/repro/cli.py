"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze <kernel.c> --param N=32 [--format text|json|sarif] [--portfolio]``
    Run the full static analysis (diagnostics, nest-pair classification,
    task-graph checks), then Algorithm 1, the pipeline summary and the
    Figure-6 style task AST.  ``--portfolio`` adds the pattern portfolio:
    reduction / do-all / geometric-decomposition detection with
    machine-checked privatization proofs (rule codes RPA05x).
``lint <kernel.c> [--deep] [--format text|json|sarif]``
    Run the AST-level lint rules (``--deep`` adds SCoP validation and the
    pipelinability/task-graph checks); exit 1 on error diagnostics.
``run <kernel.c> --param N=32 [--workers 4] [--exec-backend serial|threads|processes] [--fuse auto|on|off] [--trace PATH] [--metrics PATH]``
    ``repro.driver.transform`` from the command line: compile, then
    execute the kernel sequentially and replay the lowered task program
    once — on ``--exec-backend`` (a *measured* wall-clock run, reported
    with its statistics), else on the threaded runtime — and report
    whether the replayed arrays match, plus the simulated speed-up;
    ``--fuse`` controls the block kernels (one kernel per statement,
    one call per task: NumPy slices where the gate admits them, with
    chain fusion of proven-legal statement sequences; ``off`` runs
    every kernel's loop form); ``--privatize`` executes the pattern
    portfolio's verified privatization proofs (parallel reduction chunks
    over private accumulators, joined by a generated combine task;
    ``--privatize-parts`` picks the chunk count); ``--trace`` writes one
    Chrome/Perfetto document merging compile-phase spans, the simulated
    schedule and live runtime task events; ``--metrics`` writes the
    metrics-registry JSON export.
``profile <kernel.c> --param N=32 [--backend threads] [--workers 4]``
    The same ``transform`` with event collection on ``--backend``; prints
    the critical-path profile of that one (verified) replay: measured
    critical path, per-statement self time, simulated-vs-measured
    makespan divergence and top slack blocks.
``codegen <kernel.c> --param N=32``
    Emit the generated task program source to stdout.
``deps <kernel.c> --param N=32``
    Print the statement-level dependence graph (flow/anti/output) and the
    value-based dataflow summary.
``serve [--host H] [--port P] [--cache-dir DIR] [--no-cache] [--workers K]``
    Long-lived asyncio compile(+run) server over a local TCP socket:
    repeated compiles answered from the content-addressed artifact
    store, identical in-flight compiles deduplicated through per-key
    futures (see ``docs/serving.md``).  Telemetry is on by default:
    ``--request-log PATH`` (rotating JSONL), ``--trace-dir DIR``
    (one Perfetto trace per request), ``--no-telemetry`` to disable.
``top --port P [--host H] [--interval S] [--once]``
    Terminal live monitor for a running serve instance: request/error
    rates, latency p50/p95/p99 per verb and cache status, cache mix,
    the last N requests.
``store stats|gc|clear [--cache-dir DIR] [--max-bytes B] [--max-entries K]``
    Inspect or garbage-collect the artifact store.  ``run``, ``analyze``
    and ``profile`` accept ``--cache-dir DIR`` / ``--no-cache`` (and
    honour ``$REPRO_CACHE_DIR``) to answer their compile phase from the
    same store.
``table9`` / ``figure10`` / ``figure11``
    Regenerate the paper's evaluation artifacts (simulated schedules;
    ``figure10/11 --measured`` time real replays instead: best serial
    replay over pipelined threads replay of one lowered plan).
``report --out DIR``
    Write every artifact (Table 9, Figures 2/10/11, overhead sensitivity)
    into a directory.
"""

from __future__ import annotations

import argparse
import sys


class BadParamError(ValueError):
    """A ``--param`` value that is not ``NAME=INT``."""


def _parse_params(items: list[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for item in items or []:
        name, _, value = item.partition("=")
        try:
            params[name] = int(value)
        except ValueError:
            raise BadParamError(
                f"bad --param {item!r}; expected NAME=INT"
            ) from None
    return params


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, params: dict[str, int]):
    from .interp import Interpreter

    return Interpreter.from_source(_read_source(path), params)


def _cache_dir_of(args) -> str | None:
    """Resolve the artifact-store root: --cache-dir, then
    $REPRO_CACHE_DIR; --no-cache wins over both.  None = caching off."""
    import os

    if getattr(args, "no_cache", False):
        return None
    explicit = getattr(args, "cache_dir", None)
    return explicit or os.environ.get("REPRO_CACHE_DIR") or None


#: Flags that set the ``TransformOptions`` field of the same name.
_OPTION_FLAGS = (
    "coarsen", "workers", "hybrid", "fuse", "privatize",
    "privatize_parts",
)


def _transform(args, source: str, **run_with):
    """``repro.driver.transform`` for ``run``, ``profile`` and ``analyze
    --stats``: the one place flags become ``TransformOptions``
    (``run_with`` adds what is not a flag of the same name).  Detection
    is flow-first with the all-kinds fallback, the compile goes through
    the artifact store when one is configured (its cold/warm verdict is
    printed), an option value no field takes exits with the driver's
    reason and a failed verification with its verdict and status 1."""
    import dataclasses

    from .driver import (
        TransformOptions,
        VerificationFailedError,
        transform,
        validate_options,
    )
    from .pipeline import flow_then_all_kinds

    options = TransformOptions(
        **{f: getattr(args, f) for f in _OPTION_FLAGS if hasattr(args, f)},
        **run_with,
    )
    try:
        validate_options(options)
    except ValueError as exc:
        raise SystemExit(str(exc))
    params, cache_dir = _parse_params(args.param), _cache_dir_of(args)
    try:
        result, _ = flow_then_all_kinds(
            lambda kinds: transform(
                source,
                params,
                dataclasses.replace(options, kinds=kinds),
                cache_dir=cache_dir,
            )
        )
    except VerificationFailedError as exc:
        print(f"result matches sequential: False ({exc})")
        raise SystemExit(1)
    if result.cache_status is not None:
        print(f"compile cache: {result.cache_status} ({cache_dir})")
    return result


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_kernel, render_json, render_sarif, render_text

    source = _read_source(args.kernel)
    result = analyze_kernel(
        source,
        _parse_params(args.param),
        file=args.kernel,
        portfolio=args.portfolio,
    )

    if args.format == "json":
        print(
            render_json(
                result.report,
                result.classifications(),
                portfolio=(
                    result.portfolio.to_dict()
                    if result.portfolio is not None
                    else None
                ),
            )
        )
        return result.exit_code()
    if args.format == "sarif":
        print(render_sarif(result.report))
        return result.exit_code()

    print(render_text(result.report, source))
    if result.portfolio is not None:
        print()
        print(result.portfolio.format())
    if result.detect_error:
        print(f"note: {result.detect_error}")
    if result.info is None or not result.ok:
        return result.exit_code()

    from .pipeline import (
        NoPatternError,
        describe_pipeline_map,
        detect_pipeline,
        flow_then_all_kinds,
    )
    from .schedule import build_schedule, generate_task_ast

    info = result.info
    if args.coarsen != 1:
        info, _ = flow_then_all_kinds(
            lambda kinds: detect_pipeline(
                result.scop, kinds=kinds, coarsen=args.coarsen
            )
        )
    print()
    print(info.summary())
    for pm in info.pipeline_maps.values():
        try:
            print(f"  {describe_pipeline_map(pm)}")
        except NoPatternError:
            print(f"  {pm} (no closed form)")
    print()
    print(build_schedule(info).pretty())
    print()
    print(generate_task_ast(info).pretty())
    if args.stats:
        _print_stats(args, source)
    return 0


def _print_stats(args, source: str) -> None:
    """``analyze --stats``: one verified serial ``transform``, its
    stat families folded through the metrics registry."""
    from .interp.fused import chain_label
    from .obs.metrics import (
        MetricsRegistry,
        absorb_artifact_store,
        absorb_transform,
    )
    from .store import session_counters

    result = _transform(args, source, exec_backend="serial")
    reg = MetricsRegistry()
    absorb_transform(reg, result)

    def tg(key: str):
        return reg.value(f"task_graph.{key}")

    print()
    print(
        f"task graph: {tg('tasks')} tasks, {tg('edges')} edges, "
        f"{tg('depend_in_slots')} depend-in slots "
        f"({tg('depend_in_slots_reduced')} after reduction, "
        f"{100.0 * tg('reduction_ratio'):.0f}% cut), "
        f"critical path {tg('critical_path_tasks')} tasks"
    )

    stats = result.execution
    modes = stats.dispatch_modes.values()
    print()
    print(
        f"fusion coverage: {sum(m == 'fused' for m in modes)}/{len(modes)} "
        f"statements with a slice form"
    )
    for chain in sorted(stats.fused_chains):
        print(f"  chain: {chain_label(chain)}")
    if stats.fused_fallback:
        print("  fallbacks:")
        for name, fb in sorted(stats.fused_fallback.items()):
            print(f"    {name}: [{fb['code']}] {fb['reason']}")

    absorb_artifact_store(reg)
    sc = session_counters()
    if sc:
        print()
        print(
            "artifact store: "
            f"{sc.get('hits', 0)} hit(s), "
            f"{sc.get('misses', 0)} miss(es), "
            f"{sc.get('puts', 0)} put(s), "
            f"{sc.get('corrupt', 0)} corrupt, "
            f"{sc.get('replay_failures', 0)} replay failure(s)"
        )
    print()
    print("metrics registry:")
    print(reg.format())


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import analyze_kernel, render_json, render_sarif, render_text

    source = _read_source(args.kernel)
    result = analyze_kernel(
        source,
        _parse_params(args.param),
        file=args.kernel,
        deep=args.deep,
    )
    if args.format == "json":
        print(render_json(result.report, result.classifications()))
    elif args.format == "sarif":
        print(render_sarif(result.report))
    else:
        print(render_text(result.report, source))
    return result.exit_code()


def cmd_run(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .obs import spans as obs_spans

    observing = bool(args.trace or args.metrics)
    with obs_spans.recording() if observing else nullcontext() as rec:
        result = _transform(
            args,
            _read_source(args.kernel),
            exec_backend=args.exec_backend,
            collect_events=observing and args.exec_backend is not None,
        )

    plan, graph = result.privatization, result.graph
    if plan is not None:
        print(plan.describe())
        if not plan.groups:
            print(
                "no verified privatization proofs; "
                "running the standard pipeline"
            )
    shape = f"tasks: {len(graph)}, edges: {graph.num_edges}"
    if result.joins:
        parts = max(
            result.info.blockings[s].num_blocks for s in plan.statements
        )
        shape += (
            f" (incl. {len(result.joins)} join task(s), "
            f"{parts} part(s)/statement)"
        )
    print(shape)
    # one verdict for the one plan replay — measured when a backend
    # was asked for
    privatized = "privatized " if result.joins else ""
    verdict = f"result matches sequential: {result.verified}"
    if result.match_detail:
        verdict += f" ({result.match_detail})"
    if result.execution is None:
        print(f"{privatized or 'pipelined '}{verdict}")
    print(
        f"simulated speed-up on {args.workers} workers: "
        f"{result.speedup:.2f}x"
    )
    if result.execution is not None:
        print("measured execution: " + result.execution.summary())
        print(f"measured {privatized}{verdict}")
    if args.timeline:
        from .bench import ascii_timeline

        print()
        print(ascii_timeline(graph, result.simulation))

    if args.trace:
        from .bench import write_trace

        write_trace(
            args.trace,
            graph,
            result.simulation,
            execution=result.execution,
            spans=rec.spans,
        )
        print(f"wrote {args.trace}")
    if args.metrics:
        from .obs.metrics import MetricsRegistry, absorb_transform

        reg = MetricsRegistry()
        absorb_transform(reg, result)
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(reg.to_json() + "\n")
        print(f"wrote {args.metrics}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .obs.profile import profile_run

    result = _transform(
        args,
        _read_source(args.kernel),
        exec_backend=args.backend,
        collect_events=True,
    )
    sim = result.simulation
    if args.policy != sim.policy:
        from .tasking import simulate

        sim = simulate(result.graph, workers=args.workers, policy=args.policy)
    report = profile_run(result.graph, sim, result.execution, top=args.top)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.format(top=args.top))
        print(f"measured result matches sequential: {result.verified}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    from .codegen import emit_task_program
    from .pipeline import detect_pipeline, flow_then_all_kinds

    interp = _load(args.kernel, _parse_params(args.param))
    info, _ = flow_then_all_kinds(
        lambda kinds: detect_pipeline(
            interp.scop, kinds=kinds, coarsen=args.coarsen
        )
    )
    print(emit_task_program(info))
    return 0


def cmd_deps(args: argparse.Namespace) -> int:
    from .scop import analyze_dataflow, build_dependence_graph

    interp = _load(args.kernel, _parse_params(args.param))
    graph = build_dependence_graph(interp.scop)
    print(graph.summary())
    df = analyze_dataflow(interp.scop)
    print()
    print("value-based (last-writer) flows:")
    for (src, tgt), rel in sorted(df.flows.items()):
        print(f"  {src} -> {tgt}: {len(rel)} pairs")
    for name, count in sorted(df.reads_from_input.items()):
        if count:
            print(f"  {name}: {count} reads of initial array contents")
    if args.dot:
        print()
        print(graph.to_dot())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every evaluation artifact into a directory."""
    import os

    from .bench import (
        format_figure2,
        format_figure10,
        format_figure11,
        format_table9,
        run_figure2,
        run_figure10,
        run_figure11,
    )
    from .bench.calibration import format_sensitivity, overhead_sensitivity

    os.makedirs(args.out, exist_ok=True)
    artifacts = {
        "table9.txt": format_table9(),
        "figure2.txt": format_figure2(run_figure2(n=20)),
        "figure10.txt": format_figure10(run_figure10(ns=tuple(args.sizes))),
        "figure11.txt": format_figure11(run_figure11(size=args.matrix_size)),
        "sensitivity.txt": format_sensitivity(
            overhead_sensitivity(["P1", "P3", "P5", "P8"])
        ),
    }
    for name, text in artifacts.items():
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {path}")
    return 0


def cmd_table9(args: argparse.Namespace) -> int:
    from .bench import format_table9

    print(format_table9())
    return 0


def cmd_figure10(args: argparse.Namespace) -> int:
    from .bench import format_figure10, run_figure10
    from .bench.execution import MEASURED_BASE

    cells = run_figure10(
        ns=tuple(args.sizes), workers=args.workers, measured=args.measured
    )
    print(format_figure10(cells))
    if args.measured:
        print(MEASURED_BASE)
    return 0


def cmd_figure11(args: argparse.Namespace) -> int:
    from .bench import format_figure11, run_figure11
    from .bench.execution import MEASURED_BASE

    rows = run_figure11(
        size=args.matrix_size, workers=args.workers, measured=args.measured
    )
    print(format_figure11(rows))
    if args.measured:
        print(MEASURED_BASE + "; Polly columns stay simulated")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import serve

    cache_dir = None
    if not args.no_cache:
        from .store import default_cache_dir

        cache_dir = args.cache_dir or default_cache_dir()
    try:
        asyncio.run(
            serve(
                host=args.host,
                port=args.port,
                cache_dir=cache_dir,
                workers=args.workers,
                telemetry=not args.no_telemetry,
                log_path=args.request_log,
                trace_dir=args.trace_dir,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from .obs.live import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
        rows=args.rows,
        once=args.once,
    )


def cmd_store(args: argparse.Namespace) -> int:
    from .store import (
        ArtifactStore,
        default_cache_dir,
        load_metrics_snapshot,
    )

    store = ArtifactStore(args.cache_dir or default_cache_dir())
    if args.action == "stats":
        print(store.stats().format())
        snap = load_metrics_snapshot(store.root)
        if snap is not None:
            counters = snap.get("counters", {})
            print("last serve session (metrics-last.json):")
            print(f"  saved at    {snap.get('saved_at', '?')}")
            print(f"  uptime      {snap.get('uptime_s', 0.0):.1f}s")
            print(f"  requests    {counters.get('requests', 0)}")
            print(f"  compiles    {counters.get('compiles', 0)}")
            print(f"  store hits  {counters.get('store_hits', 0)}")
            print(f"  resident    {counters.get('resident_hits', 0)}")
            print(f"  errors      {counters.get('errors', 0)}")
    elif args.action == "gc":
        evicted = store.gc(
            max_bytes=args.max_bytes, max_entries=args.max_entries
        )
        print(f"evicted {len(evicted)} artifact(s)")
        print(store.stats().format())
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifact(s) from {store.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .interp.executor import BACKEND_ALIASES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-loop pipeline pattern detection (IMPACT 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def kernel_cmd(name: str, fn) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("kernel", help="path to a kernel source file")
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=INT"
        )
        p.add_argument("--coarsen", type=int, default=1)
        p.set_defaults(fn=fn)
        return p

    def fuse_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--fuse",
            choices=("auto", "on", "off"),
            default="auto",
            help="block kernels: one kernel per statement (and per "
            "proven fusion-legal chain), one call per task; auto "
            "(default) runs NumPy slices where legal and the kernel's "
            "loop form elsewhere, on fails unless every statement has "
            "slices, off runs loop forms only",
        )

    def cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="answer identical compiles from a content-addressed "
            "artifact store rooted here (default: $REPRO_CACHE_DIR "
            "when set, otherwise off)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the artifact store even if $REPRO_CACHE_DIR "
            "is set",
        )

    p_analyze = kernel_cmd("analyze", cmd_analyze)
    p_analyze.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="diagnostic output format (json/sarif suppress the trees)",
    )
    p_analyze.add_argument(
        "--stats",
        action="store_true",
        help="print task-graph, fusion, artifact-store and registry "
        "statistics of one verified serial transform after analysis",
    )
    p_analyze.add_argument(
        "--portfolio",
        action="store_true",
        help="run the pattern portfolio (reduction / do-all / geometric "
        "detection with machine-checked privatization proofs)",
    )
    cache_args(p_analyze)

    p_lint = sub.add_parser(
        "lint", help="run the static-analysis rules and print diagnostics"
    )
    p_lint.add_argument("kernel", help="path to a kernel source file")
    p_lint.add_argument(
        "--param", action="append", default=[], metavar="NAME=INT"
    )
    p_lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    p_lint.add_argument(
        "--deep",
        action="store_true",
        help="also extract the SCoP and run pipelinability/task-graph checks",
    )
    p_lint.set_defaults(fn=cmd_lint)

    p_run = kernel_cmd("run", cmd_run)
    p_run.add_argument("--workers", type=int, default=4)
    p_run.add_argument(
        "--hybrid",
        action="store_true",
        help="combine cross-loop pipelining with intra-nest parallelism",
    )
    p_run.add_argument(
        "--timeline",
        action="store_true",
        help="print a per-statement ASCII timeline of the simulated schedule",
    )
    p_run.add_argument(
        "--exec-backend",
        choices=tuple(BACKEND_ALIASES),
        default=None,
        help="also run a measured wall-clock execution on this backend",
    )
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome/Perfetto trace document merging compile-phase "
        "spans, the simulated schedule and (with --exec-backend) live "
        "runtime task events",
    )
    p_run.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the metrics-registry JSON export (cache, simulation, "
        "task-overhead and measured-execution series)",
    )
    fuse_args(p_run)
    p_run.add_argument(
        "--privatize",
        action="store_true",
        help="execute the pattern portfolio's verified privatization "
        "proofs: reduction statements run as parallel chunks over "
        "private accumulators joined by a generated combine task "
        "(kernels without proofs fall through unchanged)",
    )
    p_run.add_argument(
        "--privatize-parts",
        type=int,
        default=None,
        metavar="K",
        help="chunks per privatized statement (default: max(2, workers))",
    )
    cache_args(p_run)
    p_profile = kernel_cmd("profile", cmd_profile)
    p_profile.add_argument("--workers", type=int, default=4)
    p_profile.add_argument(
        "--backend",
        choices=tuple(BACKEND_ALIASES),
        default="threads",
        help="backend for the measured run",
    )
    p_profile.add_argument(
        "--policy",
        choices=("fifo", "lifo", "cp"),
        default="fifo",
        help="simulator scheduling policy for the prediction",
    )
    fuse_args(p_profile)
    p_profile.add_argument(
        "--top", type=int, default=5,
        help="rows of critical path / slack to print",
    )
    p_profile.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_profile.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    cache_args(p_profile)
    kernel_cmd("codegen", cmd_codegen)
    p_deps = kernel_cmd("deps", cmd_deps)
    p_deps.add_argument(
        "--dot", action="store_true", help="also print Graphviz DOT"
    )

    p = sub.add_parser("table9")
    p.set_defaults(fn=cmd_table9)

    p = sub.add_parser("report")
    p.add_argument("--out", default="evaluation")
    p.add_argument("--sizes", type=int, nargs="+", default=[16, 24, 32])
    p.add_argument("--matrix-size", type=int, default=24)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("figure10")
    p.add_argument("--sizes", type=int, nargs="+", default=[16, 24, 32])
    p.add_argument("--workers", type=int, default=8)
    p.add_argument(
        "--measured",
        action="store_true",
        help="time real replays instead of simulating (prints its base)",
    )
    p.set_defaults(fn=cmd_figure10)

    p = sub.add_parser("figure11")
    p.add_argument("--matrix-size", type=int, default=32)
    p.add_argument("--workers", type=int, default=8)
    p.add_argument(
        "--measured",
        action="store_true",
        help="time real replays instead of simulating (prints its base)",
    )
    p.set_defaults(fn=cmd_figure11)

    p = sub.add_parser(
        "serve",
        help="long-lived compile(+run) server over a local socket with "
        "an artifact store and in-flight dedupe of identical compiles",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 binds an ephemeral port, announced on stdout)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="serve without a store (every request compiles; in-flight "
        "dedupe still applies)",
    )
    p.add_argument(
        "--workers", type=int, default=4,
        help="compile/run thread-pool size",
    )
    p.add_argument(
        "--no-telemetry", action="store_true",
        help="disable request tracing, metrics and the request log",
    )
    p.add_argument(
        "--request-log", default=None, metavar="PATH",
        help="rotating JSONL request log (one structured line per "
        "request)",
    )
    p.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write one Perfetto trace per request into DIR",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "top",
        help="terminal live monitor for a running serve instance "
        "(rates, latency quantiles, cache mix, recent requests)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between polls",
    )
    p.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N redraws (default: run until Ctrl-C)",
    )
    p.add_argument(
        "--rows", type=int, default=10,
        help="recent requests shown",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print a single snapshot and exit (no screen clear)",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "store",
        help="inspect or garbage-collect the artifact store",
    )
    p.add_argument("action", choices=("stats", "gc", "clear"))
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p.add_argument(
        "--max-bytes", type=int, default=None,
        help="gc: evict LRU artifacts beyond this byte ceiling",
    )
    p.add_argument(
        "--max-entries", type=int, default=None,
        help="gc: evict LRU artifacts beyond this entry ceiling",
    )
    p.set_defaults(fn=cmd_store)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  What is wrong with the *input* — an
    unreadable kernel, a frontend or SCoP diagnostic, a dependence the
    detector refuses, a malformed ``--param`` — prints as ``repro:
    <the diagnostic's own rendering>`` on stderr with status 2 (argparse's
    status for usage errors); anything else is a bug and keeps its
    traceback."""
    from .lang.errors import FrontendError
    from .pipeline import UncoveredDependenceError
    from .scop import InvalidScopError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        FrontendError, InvalidScopError, UncoveredDependenceError,
        OSError, BadParamError,
    ) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
