#!/usr/bin/env python
"""What a replay costs beyond its block kernels: the sizing table behind
ROADMAP item 1 (docs/performance.md, "Compiled schedule").

Per kernel, four ways of executing one lowered ``ExecPlan``, alternated
repeat by repeat, each on a fresh copy of the kernel's initial arrays
(``new_store()``, built once per interpreter and copied per call, is
inside every timing, as in the ledger's ``run_*_ms``):

* **rows** — the stream-function loop and nothing else
  (``bind_rows`` + ``for tid in range(n): call(tid)``): one call per
  task, no scheduler, no span, no statistics; the floor of any replay
  that dispatches per task;
* **serial** — ``execute_measured`` on ``serial``: the plan's serial
  elision, one kernel call per task stream, so it reads below
  ``rows`` wherever streams fuse;
* **threads** — ``execute_measured`` on ``threads``: one dispatch per
  claim (``ExecPlan.claims``, measured by the second replay at this
  worker count, one of the warm-up rounds): a chain of rows that wait
  on nothing but each other runs as one kernel call over their union,
  and a stream whose per-row claims cost more than ``workers`` times
  its union call is claimed whole, as its serial-elision run;
* **processes** — ``execute_measured`` on ``processes``: the same
  claims in ready batches on a fresh worker pool over shared memory,
  pool start and shared-store copies included.

Printed: rows of the plan, its claims and the streams claimed whole
(``whole``) after the verdict, median ms of ``new_store()`` alone
(``store``, the input cost each way pays apart from dispatch), median
ms of each way, per task
what serial saves or pays against the row loop (``serial − rows``,
negative when the elision wins), the thread scheduler's share
(``threads − rows``, negative too where chains contract, e.g. P5's one
claim for 196 rows, or streams go whole) and the thread hand-off per run
(``threads − serial``); the ``processes`` column is its own median ms
per run.  The cases are the ledger's ``fine_p``
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
        call = bind_rows(interp.funcs, plan.rows, plan.streams, store)
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
        "processes": replay("processes"),
    }
    oracle = interp.run_sequential(interp.new_store())
    ms = {way: [] for way in ("store", *ways)}
    for k in range(repeats + 5):  # 5 warm-up rounds, dropped
        start = time.perf_counter()
        interp.new_store()
        if k >= 5:
            ms["store"].append((time.perf_counter() - start) * 1e3)
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
    claims = plan.claims[WORKERS]
    return {
        "tasks": len(tasks), "claims": len(claims.runs),
        "whole": len(claims.whole), "edges": edges, **med,
    }


def render(rows: dict) -> str:
    host = fingerprint()
    lines = [
        f"host: {host['cpu']}, {host['nproc']} cpu, "
        f"python {host['python']}, numpy {host['numpy']}",
        f"median raw ms per run incl. a new_store() copy (store: the "
        f"copy alone); threads, processes: {WORKERS} workers",
        f"{'kernel':14}{'tasks':>6}{'claims':>7}{'whole':>6}{'edges':>6}"
        f"{'store':>8}{'rows':>8}"
        f"{'serial':>8}"
        f"{'threads':>8}{'ser-rows us/t':>14}{'thr-rows us/t':>14}"
        f"{'thr-ser ms':>11}{'processes':>10}",
    ]
    for label, r in rows.items():
        per = 1e3 / r["tasks"]
        lines.append(
            f"{label:14}{r['tasks']:>6}{r['claims']:>7}{r['whole']:>6}"
            f"{r['edges']:>6}"
            f"{r['store']:>8.3f}{r['rows']:>8.2f}"
            f"{r['serial']:>8.2f}{r['threads']:>8.2f}"
            f"{(r['serial'] - r['rows']) * per:>14.2f}"
            f"{(r['threads'] - r['rows']) * per:>14.2f}"
            f"{r['threads'] - r['serial']:>11.2f}"
            f"{r['processes']:>10.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200,
                    help="timed rounds per kernel (each runs all four ways)")
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
