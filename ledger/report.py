"""Multi-process orchestration: the full ledger, the noise report and
the determinism self-check.  Each workload pass runs in a fresh process
(``run.py --workload W --trace 0|1``); this module only spawns, collects
and prints."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import host
import stats
from harness import CHECKOUT, WORK_ROOT

#: a pass that has not ended by then is killed and counted as failed
PASS_DEADLINE_S = 180.0
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: counts that must repeat exactly run to run
EXACT = (
    "tasking.tasks",
    "pipeline.blocks",
    "presburger.ops",
    "store.artifact_bytes",
    "schedule.ast_bytes",
)


def spawn_pass(workload: str, seed: int, seconds: float, trace: int, tiny=False) -> dict:
    """One pass in a fresh process; returns its results document (a stub
    with ``correct: false`` when the process failed or overran)."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    fd, out = tempfile.mkstemp(prefix="pass-", suffix=".json", dir=WORK_ROOT)
    os.close(fd)
    cmd = [
        sys.executable, os.path.join(CHECKOUT, "ledger", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ] + (["--tiny"] if tiny else [])
    try:
        proc = subprocess.run(
            cmd, cwd=CHECKOUT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=PASS_DEADLINE_S,
        )
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        if proc.returncode != 0:
            doc["correct"] = False
        return doc
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        return {
            "workload": workload, "correct": False, "attempted": 1,
            "failed": 1, "failed_share": 1.0, "metrics": {}, "samples": {},
            "errors": [f"pass did not finish: {exc!r}"],
        }
    finally:
        try:
            os.remove(out)
        except OSError:
            pass


def _print_pass(doc: dict, declared: list[dict]) -> None:
    """Metrics in ``BENCHMARK.json`` order, with unit, samples, bound."""
    for entry in declared:
        name = entry["name"]
        m = doc["metrics"].get(name)
        if m is None:
            continue
        n = doc.get("samples", {}).get(name)
        bound = entry.get("bound")
        print(
            f"    {name:<28} {m['value']:>14.4f} {m['unit']:<6}"
            + (f" n={n:<7}" if n is not None else " " * 10)
            + (f" bound {bound:.1%}" if bound is not None else "")
        )


def print_workload(name: str, e2e: dict, traced: dict, bench: dict) -> None:
    print(f"== {name} (seed {e2e.get('seed')}): {e2e.get('why', '')}")
    print("  end-to-end, tracing off")
    _print_pass(e2e, bench["end_to_end"])
    print(
        f"    {'failed_share':<28} {e2e['failed_share']:>14.4f} share "
        f" ({e2e['failed']} of {e2e['attempted']} operations)"
    )
    print("  per layer, traced pass")
    _print_pass(traced, bench["per_layer"])
    for kid, d in traced.get("trace_overhead_derived_from", {}).items():
        print(
            f"    obs.trace_overhead_pct {kid}: traced chain "
            f"{d['traced_chain_ms']:.2f} ms ({d['replays']} replays, "
            f"{d['attributed_ms']:.2f} ms inside spans) against untraced "
            f"oneshot_cold_ms {d['untraced_oneshot_cold_ms']:.2f} ms "
            f"(n={d['untraced_n']})"
        )
    for doc in (e2e, traced):
        for err in doc.get("errors", ()):
            print(f"    FAILED {err}")


def noise_report(bench: dict, sets: list[dict]) -> bool:
    """Per (metric, workload): (max - min) / median over the sets next to
    the bound; exact counts must agree exactly.  True when all hold."""
    ok = True
    print(f"== run-to-run spread over {len(sets)} sets")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            values = [
                s[workload][0]["metrics"][name]["value"]
                for s in sets if name in s[workload][0]["metrics"]
            ]
            if len(values) < 2:
                continue
            spread = stats.range_share(values)
            mark = "" if spread <= bound else "  EXCEEDS BOUND"
            ok = ok and not mark
            print(
                f"    {name:<24} {workload:<13} spread {spread:>7.2%} "
                f"bound {bound:.1%}{mark}"
            )
    for name in EXACT:
        for workload in sets[0]:
            values = {
                s[workload][1]["metrics"].get(name, {}).get("value")
                for s in sets
            }
            mark = "" if len(values) == 1 else "  NOT EXACT"
            ok = ok and not mark
            print(f"    {name:<24} {workload:<13} {sorted(values, key=str)}{mark}")
    return ok


def full_run(bench: dict, selected: list[str], args) -> int:
    fingerprint = host.fingerprint()
    print(f"host: {json.dumps(fingerprint, sort_keys=True)}")
    sets: list[dict] = []
    correct = True
    for k in range(max(1, args.sets)):
        docs = {}
        for name in selected:
            e2e = spawn_pass(name, args.seed, args.seconds, 0)
            traced = spawn_pass(name, args.seed, args.seconds, 1)
            docs[name] = (e2e, traced)
            correct = correct and e2e["correct"] and traced["correct"]
            if args.sets > 1:
                print(f"-- set {k + 1} of {args.sets}")
            print_workload(name, e2e, traced, bench)
        sets.append(docs)
    if len(sets) > 1:
        correct = noise_report(bench, sets) and correct
    fingerprint["loadavg_after"] = host.loadavg()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "host": fingerprint,
                    "seed": args.seed,
                    "sets": [
                        {w: {"end_to_end": e, "traced": t} for w, (e, t) in s.items()}
                        for s in sets
                    ],
                },
                fh, indent=1, sort_keys=True,
            )
    print("ledger: " + ("every output matched the reference" if correct else "FAILED"))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# self-check
# ----------------------------------------------------------------------
def self_check(bench: dict, seed: int) -> int:
    """Same seed, same bytes; declared names are the emitted names; exact
    counts repeat across two processes.  Tiny sizes, under 30 s."""
    import harness
    import layers
    import reference
    import workloads

    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check(
        declared["workloads"] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads differ from ledger/workloads.py",
    )
    check(
        declared["end_to_end"] == harness.UNITS,
        "BENCHMARK.json end_to_end differs from harness.UNITS",
    )
    check(
        declared["per_layer"] == {n: u for n, (u, _) in layers.LAYERS.items()},
        "BENCHMARK.json per_layer differs from layers.LAYERS",
    )
    for name in [*declared["workloads"], *declared["end_to_end"], *declared["per_layer"]]:
        check(bool(NAME.fullmatch(name)) and len(name) <= 64, f"bad name {name!r}")

    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            a = workloads.generate(name, seed, tiny).canonical()
            b = workloads.generate(name, seed, tiny).canonical()
            c = workloads.generate(name, seed + 1, tiny).canonical()
            check(a == b, f"{name}: same seed gave different inputs")
            check(a != c, f"{name}: another seed gave the same inputs")

    # the reference's two renderings agree on every tiny kernel
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    harness.import_layers()
    for name in workloads.WORKLOADS:
        with harness.WorkloadRun(workloads.generate(name, seed, True), 1.0, True) as run:
            run.prepare_inputs()
            for prep in run.prepared:
                scalar = reference.run(prep.case.nests, prep.inputs, stage=reference.mix)
                check(
                    reference.matches(prep.expected, scalar),
                    f"{prep.case.id}: whole-array and scalar references differ",
                )

    jobs = [(w, t) for w in declared["workloads"] for t in (0, 1, 1)]
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, 2)) as pool:
        docs = list(pool.map(lambda j: spawn_pass(j[0], seed, 1.0, j[1], tiny=True), jobs))
    for (workload, trace), doc in zip(jobs, docs):
        want = declared["per_layer"] if trace else declared["end_to_end"]
        check(doc["correct"], f"{workload} trace={trace}: {doc.get('errors')}")
        got = {n: m["unit"] for n, m in doc["metrics"].items()}
        check(got == want, f"{workload} trace={trace}: emitted names differ from BENCHMARK.json")
    for workload in declared["workloads"]:
        first, second = (
            d["metrics"] for (w, t), d in zip(jobs, docs) if w == workload and t
        )
        for name in EXACT:
            a, b = first.get(name, {}).get("value"), second.get(name, {}).get("value")
            check(a == b, f"{workload}: {name} {a} != {b} across two runs")

    for problem in problems:
        print(f"self-check: {problem}")
    print("self-check: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0
