#!/usr/bin/env python
"""Record benchmark trajectories and fail CI on headline regressions.

Each invocation reads the ``BENCH_*.json`` reports in the repo root,
extracts one headline metric per bench (the number the bench exists to
defend), and appends a row to ``BENCH_history.jsonl``::

    {"date": "...", "commit": "abc1234", "bench": "execution",
     "quick": false, "metrics": {"fused_speedup_on_P5": 22.7, ...}}

then compares each fresh row against the *previous* row of the same
bench **in the same quick mode** (CI runs ``--quick``; quick numbers
are only comparable to quick numbers) and exits non-zero when a
headline metric regressed by more than ``--max-regression`` (default
20%).  Higher is better for every tracked metric.

``--check-only`` compares without appending (for local runs that should
not grow the history).

Usage::

    PYTHONPATH=src python tools/bench_history.py [--check-only]
        [--history BENCH_history.jsonl] [--max-regression 0.2]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: bench name -> (report file, {metric: path into the report}).
#: Every tracked metric is higher-is-better.
HEADLINES: dict[str, tuple[str, dict[str, tuple[str, ...]]]] = {
    "execution": (
        "BENCH_execution.json",
        {
            "fused_speedup_on_P5": ("criteria", "fused_speedup_on_P5"),
            "privatized_speedup_on_latency": (
                "criteria", "privatized_speedup_on_latency",
            ),
        },
    ),
    "overhead": (
        "BENCH_overhead.json",
        {
            "fused_speedup_vs_interp": ("criteria", "fused_speedup_vs_interp"),
        },
    ),
    "serve": (
        "BENCH_serve.json",
        {
            "warm_speedup_vs_cold": ("rows", "warm", "speedup_vs_cold"),
        },
    ),
}


def dig(doc: dict, path: tuple[str, ...]):
    cur = doc
    for part in path:
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def collect_rows(root: str) -> list[dict]:
    """One history row per BENCH report present on disk."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
    commit = current_commit()
    rows: list[dict] = []
    for bench, (filename, metrics) in sorted(HEADLINES.items()):
        path = os.path.join(root, filename)
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        values = {
            name: dig(doc, p)
            for name, p in metrics.items()
        }
        values = {
            k: v for k, v in values.items() if isinstance(v, (int, float))
        }
        if not values:
            continue
        rows.append(
            {
                "date": stamp,
                "commit": commit,
                "bench": bench,
                "quick": bool(doc.get("quick", False)),
                "metrics": values,
            }
        )
    return rows


def load_history(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    out.append(json.loads(line))
                except ValueError:
                    pass
    return out


def previous_row(history: list[dict], row: dict) -> dict | None:
    """Latest earlier row of the same bench in the same quick mode."""
    for old in reversed(history):
        if old.get("bench") == row["bench"] and (
            bool(old.get("quick")) == row["quick"]
        ):
            return old
    return None


def compare(
    history: list[dict], rows: list[dict], max_regression: float
) -> list[str]:
    """Human-readable failures for metrics past the regression gate."""
    failures: list[str] = []
    for row in rows:
        prev = previous_row(history, row)
        if prev is None:
            continue
        for name, value in row["metrics"].items():
            base = prev.get("metrics", {}).get(name)
            if not isinstance(base, (int, float)) or base <= 0:
                continue
            drop = (base - value) / base
            if drop > max_regression:
                failures.append(
                    f"{row['bench']}.{name}: {value:.2f} vs {base:.2f} "
                    f"at {prev.get('commit', '?')} "
                    f"({100 * drop:.0f}% regression, gate "
                    f"{100 * max_regression:.0f}%)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--history",
        default=os.path.join(REPO, "BENCH_history.jsonl"),
        metavar="PATH",
    )
    ap.add_argument(
        "--max-regression", type=float, default=0.2, metavar="FRAC",
        help="fail when a headline metric drops more than this fraction "
        "vs the previous same-mode row (default 0.2)",
    )
    ap.add_argument(
        "--check-only", action="store_true",
        help="compare against history without appending",
    )
    ap.add_argument(
        "--root", default=REPO, metavar="DIR",
        help="directory holding the BENCH_*.json reports",
    )
    args = ap.parse_args(argv)

    rows = collect_rows(args.root)
    if not rows:
        print("bench-history: no BENCH_*.json reports found, nothing to do")
        return 0

    history = load_history(args.history)
    failures = compare(history, rows, args.max_regression)

    for row in rows:
        prev = previous_row(history, row)
        rendered = ", ".join(
            f"{k}={v:.2f}" for k, v in sorted(row["metrics"].items())
        )
        mode = "quick" if row["quick"] else "full"
        baseline = (
            f" (baseline {prev['commit']})" if prev else " (no baseline)"
        )
        print(f"bench-history: {row['bench']} [{mode}] {rendered}{baseline}")

    if not args.check_only:
        with open(args.history, "a", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        print(
            f"bench-history: appended {len(rows)} row(s) to "
            f"{os.path.relpath(args.history, args.root)}"
        )

    if failures:
        print("bench-history: HEADLINE REGRESSION", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
