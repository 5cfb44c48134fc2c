#!/usr/bin/env python
"""Cold compile wall and peak memory per size: the sizing table behind
ROADMAP item 12 (docs/performance.md, "Reachability in linear memory").

Per N, one fresh Python process runs one cold, verified ``transform`` of
a Table 9 kernel (P5 by default; fuse ``auto``, 2 workers) through an
empty scratch store and prints one row: the graph's tasks, the chains
of its chain cover (``TaskGraph.chain_reach``, the legality check's
reachability), the cold wall of the ``transform`` call (its artifact
put included), the wall of one warm verified ``transform`` through the
store it filled (run last, on a cleared presburger cache, as the
ledger's ``oneshot_warm_ms``), the ``schedule.astgen``,
``scop.dependences`` (the one batched derivation of the SCoP's
dependence table, wherever its first question falls: detection on a
plain compile) and ``schedule.legality`` spans inside the cold one, so a
legality gain cannot hide a dependence build moved elsewhere,
``parse`` alone, the
front end (parse, SCoP extraction with its domain points, every access
relation and every array extent of a fresh SCoP of the same source,
timed after the ``transform`` on a cleared presburger cache), the
sequential oracle (``run_sequential(new_store())`` of a fresh
interpreter on that SCoP, generating its function included), the
kernel's array bytes and the
oracle's transient memory (``tracemalloc`` peak of a second oracle run:
the Python-float lists it computes on, about 4x the arrays) and the
process's peak RSS (``ru_maxrss``, read before the front end and the
oracle run).  A fresh process per row keeps one size's peak out of the
next.  ``--hybrid`` relaxes
the self chains the do-all evidence allows, the wide case for chains.
Asserts nothing but that every compile verifies; CI uploads the table.

Usage::

    PYTHONPATH=src python tools/compile_scaling.py [--sizes 16,32,64,96]
        [--kernel P5] [--hybrid] [--out compile_scaling.txt]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "ledger")]

from host import fingerprint  # noqa: E402 - the ledger's host record

WORKERS = 2

#: what one fresh process runs: argv is kernel, N, hybrid (0/1)
CHILD = """
import json, resource, sys, tempfile, time, tracemalloc
from repro.driver import TransformOptions, transform
from repro.interp import Interpreter
from repro.lang import parse
from repro.obs.spans import recording
from repro.presburger import cache
from repro.scop import AccessKind, extract_scop
from repro.workloads import TABLE9

name, n, hybrid = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
source = TABLE9[name].source(n)
options = TransformOptions(workers=%d, hybrid=hybrid)
scratch = tempfile.TemporaryDirectory()
start = time.perf_counter()
with recording() as rec:
    result = transform(source, {}, options, cache_dir=scratch.name)
wall = time.perf_counter() - start
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if not (result.verified and result.legality.ok):
    raise SystemExit(f"{name}@{n}: the compile did not verify")
start = time.perf_counter()
parse(source)
parse_s = time.perf_counter() - start
cache.cache_clear()  # the transform's memo would serve the domain points
start = time.perf_counter()
program = parse(source)
scop = extract_scop(program, {})
for stmt in scop.statements:
    for kind in AccessKind:
        scop.access_relation(stmt, kind)
for array in scop.arrays:
    scop.array_extent(array)
frontend = time.perf_counter() - start
interp = Interpreter(program, scop)
store = interp.new_store()
start = time.perf_counter()
interp.run_sequential(store)
oracle = time.perf_counter() - start
store = interp.new_store()
tracemalloc.start()
interp.run_sequential(store)
lists = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
cache.cache_clear()
start = time.perf_counter()
warm = transform(source, {}, options, cache_dir=scratch.name)
warm_s = time.perf_counter() - start
if not (warm.verified and warm.cache_status == "warm"):
    raise SystemExit(f"{name}@{n}: the warm one-shot did not verify warm")
scratch.cleanup()
(astgen,) = [s for s in rec.spans if s.name == "schedule.astgen"]
(legality,) = [s for s in rec.spans if s.name == "schedule.legality"]
(deps,) = [s for s in rec.spans if s.name == "scop.dependences"]
print(json.dumps({
    "tasks": len(result.graph),
    "chains": result.graph.chain_reach()[2].shape[1],
    "cold_s": wall,
    "warm_s": warm_s,
    "astgen_s": astgen.duration_ns / 1e9,
    "deps_s": deps.duration_ns / 1e9,
    "legality_s": legality.duration_ns / 1e9,
    "parse_s": parse_s,
    "frontend_s": frontend,
    "oracle_s": oracle,
    "arrays_mb": store.nbytes / 2**20,
    "lists_mb": lists / 2**20,
    "peak_mb": peak_kb / 1024,
}))
""" % WORKERS


def measure(kernel: str, n: int, hybrid: bool) -> dict:
    """One fresh process's row for ``kernel`` at ``n``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, kernel, str(n), str(int(hybrid))],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def render(kernel: str, hybrid: bool, rows: dict[int, dict]) -> str:
    host = fingerprint()
    lines = [
        f"host: {host['cpu']}, {host['nproc']} cpu, "
        f"python {host['python']}, numpy {host['numpy']}",
        f"cold verified transform of {kernel}"
        f"{' --hybrid' if hybrid else ''}, fuse auto, {WORKERS} workers, "
        "one fresh process per row",
        f"{'N':>5}{'tasks':>9}{'chains':>8}{'cold s':>9}{'warm s':>9}"
        f"{'astgen s':>10}{'deps s':>8}{'legality s':>12}{'parse s':>9}"
        f"{'frontend s':>12}{'oracle s':>10}"
        f"{'arrays MB':>11}{'lists MB':>10}{'peak MB':>9}",
    ]
    for n, r in rows.items():
        lines.append(
            f"{n:>5}{r['tasks']:>9}{r['chains']:>8}{r['cold_s']:>9.2f}"
            f"{r['warm_s']:>9.4f}{r['astgen_s']:>10.3f}{r['deps_s']:>8.3f}"
            f"{r['legality_s']:>12.3f}{r['parse_s']:>9.4f}"
            f"{r['frontend_s']:>12.4f}{r['oracle_s']:>10.4f}"
            f"{r['arrays_mb']:>11.2f}{r['lists_mb']:>10.2f}"
            f"{r['peak_mb']:>9.0f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64,96",
                    help="comma-separated N, one fresh process each")
    ap.add_argument("--kernel", default="P5", help="Table 9 kernel")
    ap.add_argument("--hybrid", action="store_true",
                    help="relax do-all self chains (TransformOptions.hybrid)")
    ap.add_argument("--out", help="also write the table here")
    args = ap.parse_args(argv)
    rows = {}
    for n in (int(v) for v in args.sizes.split(",")):
        rows[n] = measure(args.kernel, n, args.hybrid)
        print(f"N={n}: {rows[n]}", file=sys.stderr, flush=True)
    text = render(args.kernel, args.hybrid, rows)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
