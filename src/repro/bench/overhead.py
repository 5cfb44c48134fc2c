"""Task-overhead optimizer benchmark: what reduction + tuning buy.

Three questions, answered with real numbers in ``BENCH_overhead.json``:

1. **Slot reduction** — for every Table 9 kernel, how many depend-in
   slots does transitive reduction remove, and is the executed partial
   order provably unchanged (reachability matrices of the reduced and
   unreduced task graphs compared bit-for-bit)?
2. **Tuned granularity** — on the latency-bound workload (the paper's
   expensive-kernel scenario, PR 3's hardest case), does the auto-tuned
   coarsening beat both the untuned finest blocking *and* the previous
   hand-picked factor (``max(2, n // 2)``, the PR 3 baseline)?
3. **Bit identity** — do all three backends still produce arrays
   identical to the sequential interpreter with tuning + reduction on?

``python -m repro bench-overhead --out BENCH_overhead.json`` runs it.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

import numpy as np

from ..interp import Interpreter, execute_measured
from ..pipeline import detect_pipeline, reduce_dependencies, task_graph_stats
from ..tuning import auto_tune
from ..workloads import TABLE9
from .execution import LATENCY_S, blocking_compute, dispatch_mode_of

#: Problem size per kernel for the reduction table (small: the slot
#: ratios are size-independent for these access patterns).
REDUCTION_N = 12


def _partial_order_identical(info, reduced) -> bool:
    """Reachability of reduced vs unreduced task graphs, bit-compared."""
    from ..schedule import generate_task_ast
    from ..tasking import TaskGraph

    full = TaskGraph.from_task_ast(generate_task_ast(info))
    slim = TaskGraph.from_task_ast(generate_task_ast(reduced))
    return bool(np.array_equal(full.reachability(), slim.reachability()))


def reduction_table(
    workers: int, n: int = REDUCTION_N, repeats: int = 1
) -> list[dict]:
    """Per-kernel slot counts and measured walls before/after reduction."""
    rows = []
    for name, kern in TABLE9.items():
        interp = Interpreter.from_source(kern.source(n), {})
        info = detect_pipeline(interp.scop)
        reduced, stats = reduce_dependencies(info)
        shape = task_graph_stats(info)
        wall_before, _, ex = _measure(interp, info, "threads", workers, repeats)
        wall_after, _, _ = _measure(interp, reduced, "threads", workers, repeats)
        rows.append(
            {
                "name": name,
                "n": n,
                "dispatch_mode": dispatch_mode_of(ex),
                "tasks": shape["tasks"],
                "critical_path_tasks": shape["critical_path_tasks"],
                "slots_before": stats.slots_before,
                "slots_after": stats.slots_after,
                "reduction_ratio": round(stats.ratio, 4),
                "wall_before_s": wall_before,
                "wall_after_s": wall_after,
                "identical_partial_order": _partial_order_identical(
                    info, reduced
                ),
            }
        )
    return rows


def _measure(
    interp: Interpreter,
    info,
    backend: str,
    workers: int,
    repeats: int,
) -> tuple[float, object, object]:
    best, store = None, None
    for _ in range(max(1, repeats)):
        store, stats = execute_measured(
            interp, info, backend=backend, workers=workers
        )
        if best is None or stats.wall_time < best.wall_time:
            best = stats
    return best.wall_time, store, best


def latency_workload(
    workers: int, n: int, repeats: int = 1, tune_mode: str = "model"
) -> dict:
    """Tuned coarsening vs the PR 3 baseline on the latency workload.

    The statement bodies block for :data:`LATENCY_S` per call (opaque to
    the fuser), so wall time is pure overlap + dispatch overhead —
    exactly what granularity controls.  Three configurations run on the
    thread backend: the untuned finest blocking, the PR 3 hand-picked
    factor ``max(2, n // 2)``, and the auto-tuned plan (with reduced
    dependency lists).
    """
    source = TABLE9["P5"].source(n)
    funcs = {"compute": blocking_compute}

    def fresh() -> Interpreter:
        return Interpreter.from_source(source, {}, funcs)

    interp = fresh()
    reference = interp.run_sequential(interp.new_store())

    fine = detect_pipeline(interp.scop)
    baseline_factor = max(2, n // 2)
    baseline = detect_pipeline(interp.scop, coarsen=baseline_factor)

    t_tune0 = time.perf_counter()
    plan = auto_tune(interp, fine, workers=workers, mode=tune_mode)
    tuned, reduction = reduce_dependencies(plan.info)
    tuning_seconds = time.perf_counter() - t_tune0

    runs: dict[str, dict] = {}
    for label, info in (
        ("untuned-fine", fine),
        ("pr3-baseline", baseline),
        ("tuned-reduced", tuned),
    ):
        wall, store, ex = _measure(fresh(), info, "threads", workers, repeats)
        runs[label] = {
            "wall_time_s": wall,
            "tasks": info.num_tasks(),
            "dispatch_mode": dispatch_mode_of(ex),
            "identical_to_sequential": reference.equal(store),
        }

    # Bit identity of the tuned+reduced plan across all three backends.
    identity = {}
    for backend in ("serial", "threads", "processes"):
        _, store, _ = _measure(fresh(), tuned, backend, workers, 1)
        identity[backend] = reference.equal(store)

    return {
        "name": "P5-latency",
        "n": n,
        "latency_s": LATENCY_S,
        "workers": workers,
        "repeats": repeats,
        "baseline_coarsen": baseline_factor,
        "tuned_factors": dict(plan.factors),
        "tuning_mode": plan.mode,
        "tuning_seconds": round(tuning_seconds, 3),
        "model": plan.model.as_dict() if plan.model else None,
        "reduction": reduction.as_dict(),
        "runs": runs,
        "identical_all_backends": identity,
        "speedup_vs_pr3_baseline": (
            runs["pr3-baseline"]["wall_time_s"]
            / runs["tuned-reduced"]["wall_time_s"]
        ),
        "speedup_vs_untuned": (
            runs["untuned-fine"]["wall_time_s"]
            / runs["tuned-reduced"]["wall_time_s"]
        ),
    }


def fused_dispatch_workload(
    n: int = 24, coarsen: int = 48, repeats: int = 3
) -> dict:
    """The per-task dispatch floor: interpreter vs fused.

    A dispatch-bound P5 (many small blocks, serial backend so the walls
    are pure per-task cost, no overlap): the interpreter pays a Python
    loop per iteration, the fused path one closure call per *merged
    chain task* over pre-sliced rectangles.  ``per_block_us`` divides
    each wall by the shared member-block count (same work denominator
    for every row); ``tasks`` shows the chain planner's dispatch
    collapse on top.
    """
    source = TABLE9["P5"].source(n)
    probe = Interpreter.from_source(source, {})
    info = detect_pipeline(probe.scop, coarsen=coarsen)
    reference = probe.run_sequential(probe.new_store())

    runs: dict[str, dict] = {}
    for label, fuse in (("interp", "off"), ("fused", "auto")):
        interp = Interpreter.from_source(source, {}, fuse=fuse)
        wall, store, stats = _measure(interp, info, "serial", 1, repeats)
        # executed task count: chain merging collapses member blocks
        # (chain members share one blocking, a merge precondition)
        tasks = stats.blocks_total
        if stats.fused_chains:
            merged_away = sum(len(c) - 1 for c in stats.fused_chains)
            per_stmt = stats.blocks_total // max(1, len(stats.dispatch_modes))
            tasks = stats.blocks_total - merged_away * per_stmt
        runs[label] = {
            "wall_time_s": wall,
            "tasks": tasks,
            "per_block_us": round(
                wall * 1e6 / max(1, stats.blocks_total), 2
            ),
            "dispatch_mode": dispatch_mode_of(stats),
            "fused_chains": [list(c) for c in stats.fused_chains],
            "identical_to_sequential": reference.equal(store),
        }

    return {
        "name": "P5-dispatch",
        "n": n,
        "coarsen": coarsen,
        "repeats": repeats,
        "runs": runs,
        "fused_speedup_vs_interp": (
            runs["interp"]["wall_time_s"] / runs["fused"]["wall_time_s"]
        ),
        "per_block_floor_drop": (
            runs["interp"]["per_block_us"] / runs["fused"]["per_block_us"]
        ),
    }


def run_overhead_bench(
    workers: int = 4, quick: bool = False, out_path: str | None = None
) -> dict:
    """The full task-overhead benchmark (BENCH_overhead.json)."""
    repeats = 1 if quick else 3
    n_latency = 6 if quick else 8

    reductions = reduction_table(workers, repeats=repeats)
    latency = latency_workload(workers, n_latency, repeats=repeats)
    fused = fused_dispatch_workload(
        n=16 if quick else 24, coarsen=32 if quick else 48, repeats=repeats
    )

    qualifying = [
        r["name"]
        for r in reductions
        if r["reduction_ratio"] >= 0.25 and r["identical_partial_order"]
    ]
    criteria = {
        "kernels_with_25pct_slot_cut": qualifying,
        "at_least_3_kernels_cut": len(qualifying) >= 3,
        "all_partial_orders_identical": all(
            r["identical_partial_order"] for r in reductions
        ),
        "tuned_beats_pr3_baseline": latency["speedup_vs_pr3_baseline"] > 1.0,
        "all_backends_bit_identical": all(
            latency["identical_all_backends"].values()
        ),
        "fused_dispatch_rows_bit_identical": all(
            run["identical_to_sequential"]
            for run in fused["runs"].values()
        ),
        "fused_speedup_vs_interp": round(
            fused["fused_speedup_vs_interp"], 2
        ),
        "fused_beats_interp_dispatch": (
            fused["fused_speedup_vs_interp"] > 1.0
        ),
        "fused_per_block_us": fused["runs"]["fused"]["per_block_us"],
        "interp_per_block_us": fused["runs"]["interp"]["per_block_us"],
    }
    report = {
        "bench": "overhead",
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "workers": workers,
        "quick": quick,
        "reductions": reductions,
        "latency_workload": latency,
        "fused_dispatch": fused,
        "criteria": criteria,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def format_overhead_bench(report: dict) -> str:
    """Human-readable tables of the bench report."""
    host = report["host"]
    lines = [
        f"task-overhead bench — {host['cpus']} cpu(s), "
        f"{report['workers']} workers, numpy {host['numpy']}",
        "",
        f"{'kernel':>8}  {'tasks':>6}  {'slots':>6}  {'reduced':>7}  "
        f"{'cut':>5}  {'wall ms':>8}  {'red ms':>8}  {'order kept':>10}",
    ]
    for r in report["reductions"]:
        lines.append(
            f"{r['name']:>8}  {r['tasks']:>6}  {r['slots_before']:>6}  "
            f"{r['slots_after']:>7}  {r['reduction_ratio'] * 100:4.0f}%  "
            f"{r['wall_before_s'] * 1e3:8.2f}  {r['wall_after_s'] * 1e3:8.2f}  "
            f"{str(r['identical_partial_order']):>10}"
        )
    lat = report["latency_workload"]
    lines.append("")
    lines.append(
        f"latency workload (N={lat['n']}, {lat['latency_s'] * 1e3:.0f} ms "
        f"per call, pr3 coarsen={lat['baseline_coarsen']}):"
    )
    for label, run in lat["runs"].items():
        lines.append(
            f"{label:>16}: {run['wall_time_s'] * 1e3:9.2f} ms  "
            f"{run['tasks']:>4} tasks  "
            f"identical={run['identical_to_sequential']}"
        )
    lines.append(
        f"{'':>16}  tuned vs pr3 baseline "
        f"{lat['speedup_vs_pr3_baseline']:.2f}x, vs untuned "
        f"{lat['speedup_vs_untuned']:.2f}x; backends identical: "
        + json.dumps(lat["identical_all_backends"])
    )
    fused = report.get("fused_dispatch")
    if fused:
        lines.append("")
        lines.append(
            f"dispatch floor (P5 N={fused['n']}, "
            f"coarsen={fused['coarsen']}, serial):"
        )
        for label, run in fused["runs"].items():
            lines.append(
                f"{label:>16}: {run['wall_time_s'] * 1e3:9.2f} ms  "
                f"{run['tasks']:>4} tasks  "
                f"{run['per_block_us']:8.1f} us/block  "
                f"identical={run['identical_to_sequential']}"
            )
        lines.append(
            f"{'':>16}  fused vs interp "
            f"{fused['fused_speedup_vs_interp']:.2f}x "
            f"(per-block floor drop {fused['per_block_floor_drop']:.2f}x)"
        )
    lines.append("")
    lines.append("criteria: " + json.dumps(report["criteria"]))
    return "\n".join(lines)
