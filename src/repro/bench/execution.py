"""Measured execution for the paper's evaluation: real replays, timed.

Everything else in :mod:`repro.bench` *simulates* schedules on abstract
cost units; this module runs the lowered task programs and times them.
It holds what the evaluation needs and nothing more:

:func:`measured_speedup` is the ``--measured`` column of Figures 10/11:
pipelined threads replay over the best *serial* replay of the same
lowered plan.

Wall-clock *performance* is not measured here: the ledger
(``ledger/run.py``, paired by ``tools/ledger_pair.py``) owns it.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..interp import Interpreter, execute_measured
from ..pipeline import detect_pipeline


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
