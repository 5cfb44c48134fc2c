#!/usr/bin/env python
"""Where the loop form of a fused kernel stops winning: the provenance of
``repro.interp.fused.LOOP_FORM_POINTS``.

Every :class:`~repro.interp.fused.FusedKernel` has a slice form (NumPy
slicing closure) and a loop form (scalar loop nest), generated from one
``ClosureSpec``; ``run_rects`` runs the loop form on rectangles of at
most ``LOOP_FORM_POINTS`` points.  This tool times both callables of
six representative bodies (one of them reversed) on one-row rectangles
of 1..16 points and prints µs per call, plus the largest point count at
which the loop form wins on **every** body — the value the constant
should have on this host.  It asserts nothing and exits 0; CI uploads the table.

Usage::

    PYTHONPATH=src python tools/kernel_crossover.py [--out crossover.txt]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "ledger")]

from host import fingerprint  # noqa: E402 - the ledger's host record
from repro.interp import Interpreter  # noqa: E402
from repro.interp.fused import (  # noqa: E402
    LOOP_FORM_POINTS,
    ClosureSpec,
    build_closure,
)
from repro.workloads import TABLE9  # noqa: E402

POINTS = (1, 2, 3, 4, 6, 8, 12, 16)
N = max(POINTS) + 2

#: name -> (source, params, statements merged into the timed kernel)
BODIES = {
    "mix3 (1 stmt)": (TABLE9["P1"].source(N), {}, ("S1",)),
    "P5 chain (4 stmts)": (
        TABLE9["P5"].source(N), {}, ("S1", "S2", "S3", "S4"),
    ),
    "B+C": (
        "for(i=0; i<N; i++)\n  for(j=0; j<N; j++)\n"
        "    S: A[i][j] = B[i][j] + C[i][j];",
        {"N": N}, ("S",),
    ),
    "2*B[i]+1 (1-D)": (
        "for(i=0; i<N; i++)\n  S: A[i] = 2*B[i] + 1;", {"N": N}, ("S",),
    ),
    "H += A": (
        "for(i=0; i<N; i++)\n  for(j=0; j<N; j++)\n"
        "    S: H[i][j] += A[i][j];",
        {"N": N}, ("S",),
    ),
    # a negative stride: the slice form adds one reversal view
    "H[N-1-i] += A[i]": (
        "for(i=0; i<N; i++)\n  S: H[N-1-i] += A[i];", {"N": N}, ("S",),
    ),
}


def per_call_us(fns, args, seconds: float) -> list[float]:
    """Best-of-batches µs per call of each callable (the floor, not the
    mean: the constant compares code paths, not noise levels), batches
    of the callables alternating so a slow spell of the host hits all."""
    calls, best = 200, [float("inf")] * len(fns)
    deadline = time.perf_counter() + seconds * len(fns)
    while time.perf_counter() < deadline:
        for k, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            best[k] = min(best[k], (time.perf_counter() - start) / calls)
    return [b * 1e6 for b in best]


def measure(seconds: float) -> dict[str, list[tuple[float, float]]]:
    table = {}
    for name, (source, params, members) in BODIES.items():
        interp = Interpreter.from_source(source, params)
        program = interp.fused_program
        kernel = build_closure(ClosureSpec(tuple(
            program.spec(m).statements[0] for m in members
        )))
        store = interp.new_store()
        depth = len(kernel.spec.statements[0].loop_vars)
        row = []
        for n in POINTS:
            # one row segment of n points: what a lex-interval block is
            lo = (1,) * depth
            hi = (1,) * (depth - 1) + (n,)
            args = (store, interp.funcs, lo, hi)
            row.append(tuple(
                per_call_us((kernel.fn, kernel.loop_fn), args, seconds)
            ))
        table[name] = row
    return table


def render(table) -> str:
    host = fingerprint()
    lines = [
        f"host: {host['cpu']}, {host['nproc']} cpu, "
        f"python {host['python']}, numpy {host['numpy']}",
        "us per call, slice form / loop form, one-row rectangle of n points",
        f"{'body':22}" + "".join(f"{n:>14}" for n in POINTS),
    ]
    for name, row in table.items():
        lines.append(
            f"{name:22}"
            + "".join(f"{s:>7.1f}/{l:<6.1f}" for s, l in row)
        )
    wins = 0
    for k, n in enumerate(POINTS):
        if not all(row[k][1] < row[k][0] for row in table.values()):
            break
        wins = n
    lines.append(
        f"loop form wins on every body up to {wins} point(s); "
        f"LOOP_FORM_POINTS = {LOOP_FORM_POINTS}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=0.05,
                    help="timing budget per cell and form")
    ap.add_argument("--out", help="also write the table here")
    args = ap.parse_args(argv)
    text = render(measure(args.seconds))
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
