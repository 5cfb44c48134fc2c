#!/usr/bin/env python3
"""The layered performance ledger.

    python ledger/run.py                      every workload, both passes
    python ledger/run.py --workload fine_p    one workload, both passes
    python ledger/run.py --sets 2             noise report against the bounds
    python ledger/run.py --self-check         determinism and name check

    python ledger/run.py --workload W --seed S --seconds T --trace 0|1

is the single-pass form the gating driver calls: it measures in this
process and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--trace`` the
command spawns that form, one fresh process per workload and pass.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

DEFAULT_SEED = 20220829  # ICPP 2022 opened on this day


def load_benchmark() -> dict:
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def single_pass(args) -> int:
    """Measure one workload in this process (the driver's form)."""
    import harness

    if not args.tiny:  # the self-check runs two tiny passes side by side
        harness.pin_to_one_cpu()
    imported = harness.import_layers()
    import workloads

    workload = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    with harness.WorkloadRun(workload, args.seconds, tiny=args.tiny) as run:
        if args.trace:
            import layers

            metrics, units, extra = layers.traced_pass(run, *imported)
        else:
            metrics, units, extra = run.end_to_end(*imported), harness.UNITS, {}
        doc = run.document(metrics, units)
        doc.update(extra)
        hung = run.hung
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    for err in doc["errors"]:
        print(f"FAILED {err}", file=sys.stderr)
    for name, m in doc["metrics"].items():
        n = doc["samples"].get(name)
        print(
            f"{args.workload:<13} {name:<28} {m['value']:>14.4f} {m['unit']:<6}"
            + (f" n={n}" if n is not None else "")
        )
    print(
        json.dumps(
            {
                "correct": doc["correct"],
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": doc["metrics"],
            }
        ),
        flush=True,
    )
    if hung:
        os._exit(0)  # a stuck worker thread must not block the exit
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--out", default=None, metavar="FILE")
    ap.add_argument("--sets", type=int, default=1, metavar="K")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # a terminated run still unwinds: server child and scratch dirs go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])

    if args.trace is not None:
        if args.workload is None:
            ap.error("--trace needs --workload")
        return single_pass(args)

    import report

    if args.self_check:
        return report.self_check(bench, args.seed)
    selected = [args.workload] if args.workload else names
    return report.full_run(bench, selected, args)


if __name__ == "__main__":
    sys.exit(main())
