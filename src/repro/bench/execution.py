"""Measured execution for the paper's evaluation: real replays, timed.

Everything else in :mod:`repro.bench` *simulates* schedules on abstract
cost units; this module runs the lowered task programs and times them.
It holds what the evaluation needs and nothing more:

* :func:`measured_speedup` — the ``--measured`` column of Figures 10/11:
  pipelined threads replay over the best *serial* replay of the same
  lowered plan;
* :func:`blocking_compute` / :func:`histogram_latency_source` — the
  *latency-bound* stage: an opaque statement body that blocks per call
  (the paper's expensive prime-search kernel, or any I/O /
  external-library call).  Such a call is not elementwise, so the fuser
  refuses it and a sequential run pays the full latency serially, while
  the pipeline backends overlap blocked tasks even on one core.

Wall-clock *performance* is not measured here: the ledger
(``ledger/run.py``, paired by ``tools/ledger_pair.py``) owns it.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

from ..interp import Interpreter, execute_measured
from ..interp.interp import _mix
from ..pipeline import detect_pipeline

#: Seconds each opaque call blocks in the latency-bound workload.
LATENCY_S = 0.002


def blocking_compute(*args: float) -> float:
    """Opaque statement body that *blocks* per call.

    Deliberately not marked elementwise: the fuser must refuse it
    (calling it once per block would change semantics from once per
    iteration), so every sequential path pays the latency serially.
    Module-level, hence picklable for the process backend.
    """
    time.sleep(LATENCY_S)
    return _mix(*args)


def _best_replay(interp, info, backend: str, workers: int, repeats: int):
    """``repeats`` replays of one lowered plan: ``(stats of the fastest,
    store of the last)``."""
    best = store = None
    for _ in range(max(1, repeats)):
        store, stats = execute_measured(
            interp, info, backend=backend, workers=workers
        )
        if best is None or stats.wall_time < best.wall_time:
            best = stats
    return best, store


def histogram_latency_source(_n: int) -> str:
    return (
        "for(i=0; i<N; i++)\n"
        "  S: H[i] += compute(A[i]);\n"
        "for(i=0; i<N; i++)\n"
        "  R: H[N-1-i] += compute(B[i]);\n"
    )


#: The line ``figure10/11 --measured`` print under their table: what is
#: divided by what.
MEASURED_BASE = (
    "measured: speed-up = best serial replay wall / pipelined threads "
    "replay wall, same interpreter and lowered plan (< 1 where dispatch "
    "dominates)"
)


def measured_speedup(
    source: str,
    params: Mapping[str, int],
    workers: int = 4,
    coarsen: int | None = None,
    funcs: Mapping[str, Callable] | None = None,
    repeats: int = 3,
) -> float:
    """Wall-clock speed-up of the pipelined threads replay over the best
    *serial* replay (the figure runners' ``--measured``).

    Both sides replay the same lowered plan of one interpreter —
    best-of-``repeats`` serial wall over best-of-``repeats`` threads
    wall — so the ratio credits pipelining alone, not block-kernel
    fusion; at small N it is honestly below 1.
    """
    interp = Interpreter.from_source(source, params, funcs)
    if coarsen is None:
        per_stmt = max(
            (len(s.points.points) for s in interp.scop.statements), default=1
        )
        coarsen = max(1, per_stmt // 8)  # ~8 coarse blocks per statement
    info = detect_pipeline(interp.scop, coarsen=coarsen)

    serial, _ = _best_replay(interp, info, "serial", workers, repeats)
    threads, _ = _best_replay(interp, info, "threads", workers, repeats)
    if not threads.wall_time:
        return 1.0
    return serial.wall_time / threads.wall_time
