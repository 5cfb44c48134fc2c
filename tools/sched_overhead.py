#!/usr/bin/env python
"""What a replay costs beyond its block kernels: the sizing table behind
ROADMAP item 1 (docs/performance.md, "Compiled schedule").

Per kernel, four ways of executing one lowered ``ExecPlan``, alternated
repeat by repeat (in a fresh seeded order each repeat), each on a fresh copy of the kernel's initial arrays
(``new_store()``, built once per interpreter and copied per call, is
inside every timing, as in the ledger's ``run_*_ms``):

* **rows** — the stream-function loop and nothing else
  (``bind_rows`` + ``for tid in range(n): call(tid)``): one call per
  task, no scheduler, no span, no statistics; the floor of any replay
  that dispatches per task;
* **serial** — ``execute_measured`` on ``serial``: the plan's serial
  elision, one kernel call per task stream, so it reads below
  ``rows`` wherever streams fuse;
* **threads** — ``execute_measured`` (``execute_privatized`` for the
  privatized kernels) on ``threads``: one dispatch per claim
  (``ExecPlan.claims``, measured by the second replay at this worker
  count, one of the warm-up rounds): a chain of rows that wait on
  nothing but each other runs as one kernel call over their union, a
  stream whose claims could not beat its union call even perfectly
  overlapped on the CPUs this process may use is claimed whole, as its
  serial-elision run, and a plan whose claims could not beat the
  serial elision is every stream whole, chained;
* **processes** — the same on ``processes``: the same claims in ready
  batches on a fresh worker pool over shared memory, pool start and
  shared-store copies included.

The whole table is taken twice, on fresh plans each time: unpinned,
then with this process pinned to one CPU (``os.sched_setaffinity``,
restored afterwards) — the ledger's setting, where a CPU-bound claim
cannot overlap and the verdict should leave ``threads`` at ``serial``'s
cost.

Printed: rows of the plan, its claims and the streams claimed whole
(``whole``) after the verdict, the helper threads the last threaded
replay started, median ms of ``new_store()`` alone
(``store``, the input cost each way pays apart from dispatch), median
ms of each way, per task
what serial saves or pays against the row loop (``serial − rows``,
negative when the elision wins), the thread scheduler's share
(``threads − rows``, negative too where chains contract, e.g. P5's one
claim for 196 rows, or streams go whole) and the thread hand-off per run
(``threads − serial``); the ``processes`` column is its own median ms
per run.  The cases are the ledger's ``fine_p``
kernels (one-point blocks), ``coarse_p`` kernels (~8 tasks per
statement) and ``reduction`` kernels (the 2-D histogram and the stencil
sum, privatized into two parts per statement).  Asserts nothing and
exits 0; CI uploads the table.

Usage::

    PYTHONPATH=src python tools/sched_overhead.py [--out sched_overhead.txt]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "ledger")]

from host import fingerprint  # noqa: E402 - the ledger's host record
from repro.driver import TransformOptions, analyze  # noqa: E402
from repro.interp import (  # noqa: E402
    Interpreter,
    execute_measured,
    execute_privatized,
    privatized_matches,
)
from repro.interp.plan import add_privates, bind_rows  # noqa: E402
from repro.pipeline import detect_pipeline  # noqa: E402
from repro.workloads import TABLE9  # noqa: E402

EXAMPLES = os.path.join(REPO, "examples", "kernels")

#: (kernel, N, coarsen) — the shapes of ledger/workloads.py: Table 9
#: kernels, then the ``reduction`` workload's two privatized kernels
CASES = (
    ("P5", 14, 1), ("P10", 14, 1),
    ("P5", 20, 60), ("P6", 20, 60), ("P9", 20, 60),
    ("histogram", 32, 1), ("sumstencil", 2048, 1),
)
WORKERS = 2


def compile_case(name: str, n: int, coarsen: int):
    """``(interp, replay(backend) -> (store, stats), plan, matches)``."""
    if name in TABLE9:
        interp = Interpreter.from_source(TABLE9[name].source(n), {})
        info = detect_pipeline(interp.scop, coarsen=coarsen)
        oracle = interp.run_sequential(interp.new_store())
        return interp, lambda backend: execute_measured(
            interp, info, backend=backend, workers=WORKERS
        ), interp.exec_plan(info), oracle.equal
    with open(os.path.join(EXAMPLES, f"{name}.c"), encoding="utf-8") as fh:
        interp = Interpreter.from_source(fh.read(), {"N": n})
    a = analyze(interp, TransformOptions(
        privatize=True, workers=WORKERS, coarsen=coarsen
    ))
    oracle = interp.run_sequential(interp.new_store())
    return interp, lambda backend: execute_privatized(
        interp, a.info, a.plan, backend=backend, workers=WORKERS
    ), interp.exec_plan(a.info, None, a.plan), lambda out: (
        privatized_matches(a.plan, oracle, out)[0]
    )


def measure(name: str, n: int, coarsen: int, repeats: int) -> dict:
    interp, replay, plan, matches = compile_case(name, n, coarsen)
    tasks = range(len(plan.rows))

    def row_loop():
        store = interp.new_store()
        privates = add_privates(store, plan)
        call = bind_rows(interp.funcs, plan.rows, plan.streams, store)
        for tid in tasks:
            call(tid)
        for private in privates:
            del store.arrays[private]
        return store

    helpers = []

    def threads():
        out, stats = replay("threads")
        helpers.append(stats.scheduler["helpers"])
        return out

    ways = {
        "rows": row_loop,
        "serial": lambda: replay("serial")[0],
        "threads": threads,
        "processes": lambda: replay("processes")[0],
    }
    ms = {way: [] for way in ("store", *ways)}
    order = list(ways.items())
    shuffle = random.Random(f"{name}@{n}").shuffle
    for k in range(repeats + 5):  # 5 warm-up rounds, dropped
        start = time.perf_counter()
        interp.new_store()
        if k >= 5:
            ms["store"].append((time.perf_counter() - start) * 1e3)
        # a fresh order each repeat: no way always follows the same one
        # (the one after ``processes`` pays for the fork's copy-on-write)
        shuffle(order)
        for way, run in order:
            start = time.perf_counter()
            out = run()
            took = (time.perf_counter() - start) * 1e3
            if not matches(out):
                raise SystemExit(f"{name}@{n} {way}: differs from the oracle")
            if k >= 5:
                ms[way].append(took)
    med = {way: statistics.median(v) for way, v in ms.items()}
    edges = sum(plan.schedule.counts)
    claims = plan.claims[WORKERS]
    return {
        "tasks": len(tasks), "claims": len(claims.runs),
        "whole": len(claims.whole), "edges": edges,
        "helpers": helpers[-1], **med,
    }


def render(title: str, rows: dict) -> str:
    lines = [
        title,
        f"{'kernel':16}{'tasks':>6}{'claims':>7}{'whole':>6}{'edges':>6}"
        f"{'helpers':>8}{'store':>8}{'rows':>8}"
        f"{'serial':>8}"
        f"{'threads':>8}{'ser-rows us/t':>14}{'thr-rows us/t':>14}"
        f"{'thr-ser ms':>11}{'processes':>10}",
    ]
    for label, r in rows.items():
        per = 1e3 / r["tasks"]
        lines.append(
            f"{label:16}{r['tasks']:>6}{r['claims']:>7}{r['whole']:>6}"
            f"{r['edges']:>6}{r['helpers']:>8}"
            f"{r['store']:>8.3f}{r['rows']:>8.2f}"
            f"{r['serial']:>8.2f}{r['threads']:>8.2f}"
            f"{(r['serial'] - r['rows']) * per:>14.2f}"
            f"{(r['threads'] - r['rows']) * per:>14.2f}"
            f"{r['threads'] - r['serial']:>11.2f}"
            f"{r['processes']:>10.2f}"
        )
    return "\n".join(lines)


def one_pass(repeats: int) -> dict:
    """Every case on fresh plans, so each verdict is measured under the
    affinity this pass runs with."""
    return {
        f"{name}@{n}" + (f" c{coarsen}" if coarsen > 1 else ""): measure(
            name, n, coarsen, repeats
        )
        for name, n, coarsen in CASES
    }


def pinned_pass(repeats: int) -> tuple[str, dict] | None:
    """:func:`one_pass` with this process pinned to one CPU — the
    ledger's setting — and its affinity restored afterwards; None where
    the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    try:
        return f"pinned to cpu {cpu}", one_pass(repeats)
    finally:
        os.sched_setaffinity(0, cpus)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=200,
                    help="timed rounds per kernel (each runs all four ways)")
    ap.add_argument("--out", help="also write the table here")
    args = ap.parse_args(argv)
    host = fingerprint()
    cpus = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    tables = [
        f"host: {host['cpu']}, {host['nproc']} cpu, "
        f"python {host['python']}, numpy {host['numpy']}\n"
        f"median raw ms per run incl. a new_store() copy (store: the "
        f"copy alone); threads, processes: {WORKERS} workers",
        render(f"unpinned ({cpus} usable cpu)", one_pass(args.repeats)),
    ]
    pinned = pinned_pass(args.repeats)
    if pinned is not None:
        tables.append(render(*pinned))
    text = "\n\n".join(tables)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
