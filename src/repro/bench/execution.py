"""Measured-execution benchmark: real wall-clock pipeline speed-ups.

Everything else in :mod:`repro.bench` *simulates* schedules on abstract
cost units; this module actually runs the generated task programs and
times them.  Three questions are answered per kernel:

1. how much faster is the fused sequential execution than the
   compiled-loop interpreter (whole-block NumPy kernels vs per-iteration
   Python)?
2. does the thread backend overlap anything (it can only overlap NumPy
   kernels and blocking calls — scalar Python bodies serialize on the
   GIL)?
3. does the process backend (shared-memory store, true multi-core) beat
   the best sequential execution?

On CPU-bound kernels question 3 needs physical cores; on a single-CPU
host the honest answer is "no".  The bench therefore includes a
*latency-bound* workload — the statement bodies call an opaque function
that blocks (modelling the paper's expensive prime-search kernel, or any
I/O / external-library call).  Such a call is not elementwise, so the
fuser correctly refuses it and the sequential paths pay the full
latency serially, while the pipeline backends overlap blocked tasks even
on one core.  Host CPU count is recorded in the report so the numbers
can be read in context.

``python -m repro bench-exec --out BENCH_execution.json`` runs it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Callable, Mapping

import numpy as np

from ..interp import Interpreter, execute_measured
from ..interp.interp import _mix
from ..pipeline import detect_pipeline
from ..workloads import TABLE9

#: Seconds each opaque call blocks in the latency-bound workload.
LATENCY_S = 0.002


def blocking_compute(*args: float) -> float:
    """Opaque statement body that *blocks* per call.

    Deliberately not marked elementwise: the fuser must refuse it
    (calling it once per block would change semantics from once per
    iteration), so every sequential path pays the latency serially.
    Module-level, hence picklable for the process backend.
    """
    time.sleep(LATENCY_S)
    return _mix(*args)


def dispatch_mode_of(stats) -> str:
    """Collapse per-statement dispatch modes into one row label."""
    modes = set(getattr(stats, "dispatch_modes", {}).values())
    if not modes:
        return "interp"
    return modes.pop() if len(modes) == 1 else "mixed"


def _measure(
    source: str,
    params: Mapping[str, int],
    backend: str,
    fuse: str,
    workers: int,
    coarsen: int,
    funcs: Mapping[str, Callable] | None = None,
    repeats: int = 3,
) -> tuple[dict, "np.ndarray | None", object]:
    """Best-of-``repeats`` measured execution; returns (record, _, store)."""
    interp = Interpreter.from_source(source, params, funcs, fuse=fuse)
    info = detect_pipeline(interp.scop, coarsen=coarsen)
    best = None
    store = None
    for _ in range(max(1, repeats)):
        store, stats = execute_measured(
            interp, info, backend=backend, workers=workers
        )
        if best is None or stats.wall_time < best.wall_time:
            best = stats
    record = best.as_dict()
    record["dispatch_mode"] = dispatch_mode_of(best)
    return record, best, store


def run_workload(
    name: str,
    source: str,
    params: Mapping[str, int],
    workers: int,
    coarsen: int,
    funcs: Mapping[str, Callable] | None = None,
    repeats: int = 3,
) -> dict:
    """Run one kernel on every execution configuration.

    ``scalar-serial`` is the compiled-loop baseline; the fused rows run
    the closure dispatch path — chain merging included — on all three
    backends.
    """
    configs = (
        ("scalar-serial", "serial", "off"),
        ("fused-serial", "serial", "auto"),
        ("fused-threads", "threads", "auto"),
        ("fused-processes", "processes", "auto"),
    )
    oracle = Interpreter.from_source(source, params, funcs)
    reference = oracle.run_sequential(oracle.new_store())

    runs: dict[str, dict] = {}
    identical = True
    for label, backend, fuse in configs:
        record, stats, store = _measure(
            source, params, backend, fuse, workers, coarsen, funcs, repeats
        )
        same = reference.equal(store)
        record["identical_to_sequential"] = same
        identical = identical and same
        runs[label] = record

    t = {label: runs[label]["wall_time_s"] for label in runs}
    return {
        "name": name,
        "params": dict(params),
        "coarsen": coarsen,
        "repeats": repeats,
        "runs": runs,
        "identical": identical,
        "speedup_fused": t["scalar-serial"] / t["fused-serial"],
        "speedup_threads": t["scalar-serial"] / t["fused-threads"],
        "speedup_processes": t["scalar-serial"] / t["fused-processes"],
        "processes_vs_fused_serial": (
            t["fused-serial"] / t["fused-processes"]
        ),
    }


#: Reduction workloads for the privatized-execution section.  Inline
#: (not read from examples/) so the bench is self-contained; both are
#: histogram-class kernels whose cross-nest dependences are a full
#: barrier until the accumulator is privatized.
def histogram_source(_n: int) -> str:
    return (
        "for(i=0; i<N; i++)\n"
        "  for(j=0; j<N; j++)\n"
        "    S: H[i][j] += A[i][j];\n"
        "for(i=0; i<N; i++)\n"
        "  for(j=0; j<N; j++)\n"
        "    R: H[N-1-i][N-1-j] += B[i][j];\n"
    )


def histogram_latency_source(_n: int) -> str:
    return (
        "for(i=0; i<N; i++)\n"
        "  S: H[i] += compute(A[i]);\n"
        "for(i=0; i<N; i++)\n"
        "  R: H[N-1-i] += compute(B[i]);\n"
    )


def run_privatized_workload(
    name: str,
    source: str,
    params: Mapping[str, int],
    workers: int,
    parts: int,
    funcs: Mapping[str, Callable] | None = None,
    repeats: int = 3,
    backends: tuple[str, ...] = ("serial", "threads", "processes"),
) -> dict:
    """Privatized execution of one reduction kernel on every backend.

    The sequential baseline is the compiled-loop interpreter (reduction
    statements with overlapping accumulator writes don't fuse), so
    the privatized speed-up is the real end-to-end win of executing the
    proof.  Alongside the per-backend match against sequential (group-
    aware tolerance) the record asserts *bit*-identity across the
    privatized backends themselves — they all combine the same privates
    in the same fixed join order.
    """
    from ..driver import TransformOptions, analyze
    from ..interp import execute_privatized, privatized_matches

    oracle = Interpreter.from_source(source, params, funcs, fuse="off")
    seq_wall = None
    reference = None
    for _ in range(max(1, repeats)):
        fresh = oracle.new_store()
        t0 = time.perf_counter()
        reference = oracle.run_sequential(fresh)
        elapsed = time.perf_counter() - t0
        seq_wall = elapsed if seq_wall is None else min(seq_wall, elapsed)

    options = TransformOptions(
        privatize=True, privatize_parts=parts, check=False
    )
    runs: dict[str, dict] = {}
    stores: dict[str, object] = {}
    identical = True
    for backend in backends:
        interp = Interpreter.from_source(source, params, funcs)
        analysis = analyze(interp, options)
        if not analysis.privatized:
            raise ValueError(
                f"workload {name!r} has no privatizable reduction"
            )
        info, plan = analysis.info, analysis.plan
        best = None
        best_store = None
        for _ in range(max(1, repeats)):
            store, stats = execute_privatized(
                interp, info, plan, backend=backend, workers=workers
            )
            if best is None or stats.wall_time < best.wall_time:
                best, best_store = stats, store
        ok, detail = privatized_matches(plan, reference, best_store)
        record = best.as_dict()
        record["identical_to_sequential"] = bool(
            reference.equal(best_store)
        )
        record["matches_sequential"] = ok
        record["match_detail"] = detail
        identical = identical and ok
        runs[f"privatized-{backend}"] = record
        stores[backend] = best_store

    first = stores[backends[0]]
    bit_identical = all(first.equal(stores[b]) for b in backends[1:])
    t_threads = runs["privatized-threads"]["wall_time_s"]
    return {
        "name": name,
        "params": dict(params),
        "parts": parts,
        "repeats": repeats,
        "sequential_wall_s": seq_wall,
        "runs": runs,
        "identical": identical,
        "bit_identical_across_backends": bit_identical,
        "speedup_privatized_serial": (
            seq_wall / runs["privatized-serial"]["wall_time_s"]
        ),
        "speedup_privatized_threads": seq_wall / t_threads,
        "plan": plan.to_dict(),
    }


def measured_speedup(
    source: str,
    params: Mapping[str, int],
    workers: int = 4,
    coarsen: int | None = None,
    funcs: Mapping[str, Callable] | None = None,
    repeats: int = 3,
) -> float:
    """Wall-clock speed-up of the fused threaded pipeline over the
    compiled-loop serial baseline (the figure runners' ``--measured``)."""
    if coarsen is None:
        probe = Interpreter.from_source(source, params, funcs)
        per_stmt = max(
            (len(s.points.points) for s in probe.scop.statements), default=1
        )
        coarsen = max(1, per_stmt // 8)  # ~8 coarse blocks per statement
    _, base, _ = _measure(
        source, params, "serial", "off", workers, coarsen, funcs, repeats
    )
    _, pipe, _ = _measure(
        source, params, "threads", "auto", workers, coarsen, funcs, repeats
    )
    return base.wall_time / pipe.wall_time if pipe.wall_time else 1.0


def run_execution_bench(
    workers: int = 4, quick: bool = False, out_path: str | None = None
) -> dict:
    """The full measured-execution benchmark (BENCH_execution.json)."""
    repeats = 1 if quick else 3
    n_small = 16 if quick else 32
    n_p5 = 24 if quick else 64
    # Blocks must tile the N*N/2-point nests evenly: ragged blocks
    # decompose into many small rectangles and hide the block-kernel win.
    coarsen_p5 = 288 if quick else 1024
    n_latency = 6 if quick else 8

    workloads = [
        run_workload(
            "P1",
            TABLE9["P1"].source(n_small),
            {},
            workers,
            coarsen=max(8, n_small * 2),
            repeats=repeats,
        ),
        run_workload(
            "P5",
            TABLE9["P5"].source(n_p5),
            {},
            workers,
            coarsen=coarsen_p5,
            repeats=repeats,
        ),
        run_workload(
            "P5-latency",
            TABLE9["P5"].source(n_latency),
            {},
            workers,
            coarsen=max(2, n_latency // 2),
            funcs={"compute": blocking_compute},
            repeats=1,  # latency workload is deterministic enough
        ),
    ]

    # privatized-reduction section: execute the portfolio's proofs on a
    # CPU-bound and a latency-bound histogram (the class the paper's
    # barrier-locked reductions fall into)
    parts = max(2, workers)
    n_hist = 12 if quick else 24
    n_hist_latency = 2 * workers * 2  # two chunk waves per statement
    privatized = [
        run_privatized_workload(
            "histogram",
            histogram_source(n_hist),
            {"N": n_hist},
            workers,
            parts=parts,
            repeats=repeats,
        ),
        run_privatized_workload(
            "histogram-latency",
            histogram_latency_source(n_hist_latency),
            {"N": n_hist_latency},
            workers,
            parts=parts,
            funcs={"compute": blocking_compute},
            repeats=1,  # latency workload is deterministic enough
            backends=("serial", "threads"),
        ),
    ]

    p5 = next(w for w in workloads if w["name"] == "P5")
    hist_latency = next(
        w for w in privatized if w["name"] == "histogram-latency"
    )
    criteria = {
        "all_paths_bit_identical": all(w["identical"] for w in workloads),
        "fused_speedup_on_P5": round(p5["speedup_fused"], 2),
        "fused_beats_interpreter_on_P5": p5["speedup_fused"] > 1.0,
        "fused_rows_bit_identical": all(
            w["runs"][label]["identical_to_sequential"]
            for w in workloads
            for label in w["runs"]
            if label.startswith("fused-")
        ),
        "processes_beat_fused_serial_somewhere": any(
            w["processes_vs_fused_serial"] > 1.0 for w in workloads
        ),
        "privatized_matches_sequential": all(
            w["identical"] for w in privatized
        ),
        "privatized_bit_identical_across_backends": all(
            w["bit_identical_across_backends"] for w in privatized
        ),
        "privatized_speedup_on_latency": round(
            hist_latency["speedup_privatized_threads"], 2
        ),
        "privatized_beats_sequential_on_latency": (
            hist_latency["speedup_privatized_threads"] > 1.0
        ),
    }
    report = {
        "bench": "execution",
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "workers": workers,
        "quick": quick,
        "latency_s": LATENCY_S,
        "workloads": workloads,
        "privatized": privatized,
        "criteria": criteria,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def format_execution_bench(report: dict) -> str:
    """Human-readable table of the bench report."""
    host = report["host"]
    lines = [
        f"measured execution bench — {host['cpus']} cpu(s), "
        f"{report['workers']} workers, numpy {host['numpy']}",
        "",
        f"{'workload':>12}  {'config':>15}  {'wall ms':>9}  "
        f"{'fused':>7}  {'dispatch':>10}  {'identical':>9}",
    ]
    for w in report["workloads"]:
        for label, run in w["runs"].items():
            lines.append(
                f"{w['name']:>12}  {label:>15}  "
                f"{run['wall_time_s'] * 1e3:9.2f}  "
                f"{run['fused_iteration_coverage'] * 100:6.0f}%  "
                f"{run.get('dispatch_mode', 'interp'):>10}  "
                f"{str(run['identical_to_sequential']):>9}"
            )
        lines.append(
            f"{'':>12}  speedups: fused {w['speedup_fused']:.2f}x, "
            f"threads {w['speedup_threads']:.2f}x, "
            f"processes {w['speedup_processes']:.2f}x "
            f"({w['processes_vs_fused_serial']:.2f}x vs fused-serial)"
        )
    for w in report.get("privatized", ()):
        lines.append(
            f"{w['name']:>12}  {'sequential':>14}  "
            f"{w['sequential_wall_s'] * 1e3:9.2f}  {'':>7}  "
            f"{'True':>9}"
        )
        for label, run in w["runs"].items():
            lines.append(
                f"{w['name']:>12}  {label:>14}  "
                f"{run['wall_time_s'] * 1e3:9.2f}  "
                f"{run['fused_iteration_coverage'] * 100:6.0f}%  "
                f"{str(run['matches_sequential']):>9}"
            )
        lines.append(
            f"{'':>12}  privatized ({w['parts']} parts): serial "
            f"{w['speedup_privatized_serial']:.2f}x, threads "
            f"{w['speedup_privatized_threads']:.2f}x vs sequential; "
            f"backends bit-identical: {w['bit_identical_across_backends']}"
        )
    lines.append("")
    lines.append("criteria: " + json.dumps(report["criteria"]))
    return "\n".join(lines)
