#!/usr/bin/env python
"""What a replay costs beyond its block kernels: the sizing table behind
ROADMAP item 1 (docs/performance.md, "Compiled schedule").

Per kernel, three ways of executing one lowered ``ExecPlan``, alternated
repeat by repeat, each on a fresh store (``new_store()`` is inside every
timing, as in the ledger's ``run_*_ms``):

* **rows** — the stream-function loop and nothing else
  (``bind_rows`` + ``for tid in range(n): call(tid)``): one call per
  task, no scheduler, no span, no statistics; the floor of any replay
  that dispatches per task;
* **serial** — ``execute_measured`` on ``serial``: the plan's serial
  elision, one kernel call per task stream, so it reads below
  ``rows`` wherever streams fuse;
* **threads** — ``execute_measured`` on ``threads``: one dispatch per
  claim (``ExecPlan.claims``), a chain of rows that wait on nothing
  but each other run as one kernel call over their union.

Printed: rows and claims of the plan, median ms of each way, per task
what serial saves or pays against the row loop (``serial − rows``,
negative when the elision wins), the thread scheduler's share
(``threads − rows``, negative too where chains contract, e.g. P5's one
claim for 196 rows) and the thread hand-off per run
(``threads − serial``).  The cases are the ledger's ``fine_p``
kernels (one-point blocks) and ``coarse_p`` kernels (~8 tasks per
statement).  Asserts nothing and exits 0; CI uploads the table.

Usage::

    PYTHONPATH=src python tools/sched_overhead.py [--out sched_overhead.txt]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "ledger")]

from host import fingerprint  # noqa: E402 - the ledger's host record
from repro.interp import Interpreter, execute_measured  # noqa: E402
from repro.interp.plan import bind_rows  # noqa: E402
from repro.pipeline import detect_pipeline  # noqa: E402
from repro.workloads import TABLE9  # noqa: E402

#: (Table 9 kernel, N, coarsen) — the shapes of ledger/workloads.py
CASES = (
    ("P5", 14, 1), ("P10", 14, 1),
    ("P5", 20, 60), ("P6", 20, 60), ("P9", 20, 60),
)
WORKERS = 2


def measure(name: str, n: int, coarsen: int, repeats: int) -> dict:
    interp = Interpreter.from_source(TABLE9[name].source(n), {})
    info = detect_pipeline(interp.scop, coarsen=coarsen)
    plan = interp.exec_plan(info)
    tasks = range(len(plan.rows))

    def row_loop():
        store = interp.new_store()
        call = bind_rows(interp, plan, store)
        for tid in tasks:
            call(tid)
        return store

    def replay(backend):
        return lambda: execute_measured(
            interp, info, backend=backend, workers=WORKERS
        )[0]

    ways = {
        "rows": row_loop,
        "serial": replay("serial"),
        "threads": replay("threads"),
    }
    oracle = interp.run_sequential(interp.new_store())
    ms = {way: [] for way in ways}
    for k in range(repeats + 5):  # 5 warm-up rounds, dropped
        for way, run in ways.items():
            start = time.perf_counter()
            out = run()
            took = (time.perf_counter() - start) * 1e3
            if not oracle.equal(out):
                raise SystemExit(f"{name}@{n} {way}: differs from the oracle")
            if k >= 5:
                ms[way].append(took)
    med = {way: statistics.median(v) for way, v in ms.items()}
    edges = sum(plan.schedule.counts)
    claims = len(plan.claims.runs)
    return {"tasks": len(tasks), "claims": claims, "edges": edges, **med}


def render(rows: dict) -> str:
    host = fingerprint()
    lines = [
        f"host: {host['cpu']}, {host['nproc']} cpu, "
        f"python {host['python']}, numpy {host['numpy']}",
        f"median raw ms per run incl. new_store(); threads: {WORKERS} workers",
        f"{'kernel':14}{'tasks':>6}{'claims':>7}{'edges':>6}{'rows':>8}"
        f"{'serial':>8}"
        f"{'threads':>8}{'ser-rows us/t':>14}{'thr-rows us/t':>14}"
        f"{'thr-ser ms':>11}",
    ]
    for label, r in rows.items():
        per = 1e3 / r["tasks"]
        lines.append(
            f"{label:14}{r['tasks']:>6}{r['claims']:>7}{r['edges']:>6}"
            f"{r['rows']:>8.2f}"
            f"{r['serial']:>8.2f}{r['threads']:>8.2f}"
            f"{(r['serial'] - r['rows']) * per:>14.2f}"
            f"{(r['threads'] - r['rows']) * per:>14.2f}"
            f"{r['threads'] - r['serial']:>11.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200,
                    help="timed rounds per kernel (each runs all three ways)")
    ap.add_argument("--out", help="also write the table here")
    args = ap.parse_args(argv)
    rows = {
        f"{name}@{n}" + (f" c{coarsen}" if coarsen > 1 else ""): measure(
            name, n, coarsen, args.repeats
        )
        for name, n, coarsen in CASES
    }
    text = render(rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
