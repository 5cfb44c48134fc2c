#!/usr/bin/env python
"""Paired parent/change runs of the performance ledger (choosing-metrics §8).

Runs ``ledger/run.py --workload W --seed S --seconds T --trace 0`` in two
checkouts, ``--pairs`` times, alternating which side goes first and
drawing a fresh seed per pair (both sides of a pair share it).  Prints,
per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and whether the medians differ by more than the parent's interquartile
distance — the two conditions a claimed gain has to meet.  A metric
whose parent runs spread wider than its ``bound`` ((q3 - q1) / |median|)
reads ``unresolved``, not unchanged, unless every change run beats
every parent run.  Exits non-zero when the change's median is worse
than the parent's by more than the metric's ``bound``, or when any of
its runs was incorrect; an unresolved metric alone does not.

Reads ``BENCHMARK.json`` (metric names, direction, bounds, run length)
from the change checkout; writes nothing under ``ledger/``.

Usage::

    python tools/ledger_pair.py PARENT_DIR CHANGE_DIR --workload fine_p
        [--pairs 10] [--seed 1] [--out pairs.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One single-pass ledger run; the last stdout line is its result."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join("ledger", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"ledger run failed in {checkout} (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Summary row of one metric over the pairs run."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (p - c) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)  # positive: change is better
    worse_by = -gain / abs(p_med) if p_med else 0.0
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "won": wins,
        "lost": losses,
        "pairs": len(parent),
        "beyond_parent_iqr": gain > (p_q3 - p_q1),
        "regressed": worse_by > metric["bound"],
        # the parent's own runs spread wider than the bound: no verdict
        # of "unchanged" can be read, unless the sides do not overlap
        "unresolved": spread > metric["bound"] and not separated,
    }


def verdict(row: dict) -> str:
    if row["regressed"]:
        return "REGRESSED beyond bound"
    if row["unresolved"]:
        return "unresolved"
    if row["won"] >= 0.9 * row["pairs"] and row["beyond_parent_iqr"]:
        return "gain"
    return "-"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--out", help="also write every run's raw result here")
    args = ap.parse_args(argv)

    with open(
        os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8"
    ) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent_dir, "change": args.change_dir}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(
                sides[side], args.workload, args.seed + k, seconds
            )
            runs[side].append(result)
            print(
                f"pair {k} seed {args.seed + k} {side}: "
                f"correct={result['correct']} failed={result['failed']}",
                file=sys.stderr,
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs}, fh, indent=1)
            fh.write("\n")

    def values(side: str, name: str) -> list[float]:
        return [r["metrics"][name]["value"] for r in runs[side]]

    rows = [
        compare(m, values("parent", m["name"]), values("change", m["name"]))
        for m in bench["end_to_end"]
    ]
    print(f"workload {args.workload}, {args.pairs} pairs, {seconds} s runs")
    print(
        f"{'metric':24}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}"
        f"{'won':>7}  verdict"
    )
    for row in rows:
        fmt = lambda q: "/".join(f"{v:.3g}" for v in q)  # noqa: E731
        print(
            f"{row['name'] + ' [' + row['unit'] + ']':24}"
            f"{fmt(row['parent']):>30}{fmt(row['change']):>30}"
            f"{row['won']:>4}/{row['pairs']:<2}  {verdict(row)}"
        )
    incorrect = sum(
        1 for r in runs["change"] if not r["correct"] or r["failed"]
    )
    if incorrect:
        print(f"{incorrect} change run(s) incorrect or with failed ops")
    return 1 if incorrect or any(r["regressed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
