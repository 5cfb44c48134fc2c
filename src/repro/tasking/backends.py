"""The process pool: plan replays on worker processes over shared memory.

:func:`run_processes` runs a compiled
:class:`~repro.tasking.dispatch.Schedule` in a
:class:`~concurrent.futures.ProcessPoolExecutor` against a
:class:`~repro.interp.store.SharedArrayStore` — the closest Python
analogue of the paper's OpenMP runtime actually running on cores.
Workers receive the plan itself once, at pool start — its rows, its
stream kernels and (untraced) its claims, whole streams included, as
``threads`` walks them — and bind the very bodies the
in-process backends run (``bind_rows`` / ``bind_runs``); a batch of
simultaneously ready units (:func:`_ready_batches`) then carries unit
indices only.  Generated ``CreateTask`` programs run on
:class:`~repro.tasking.api.OmpTaskSystem`, not here.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)

from ..obs import runtime as obs_runtime
from .dispatch import Schedule


# ----------------------------------------------------------------------
# process pool over shared memory
# ----------------------------------------------------------------------
#: Worker-process globals, set once by :func:`_process_worker_init`:
#: the plan's rows (event labels) and one dispatch unit's body.
_WORKER_ROWS = ()
_WORKER_BODY = None


def _process_worker_init(funcs, rows, kernels, runs, store_spec):
    """Attach the shared store and bind the plan's bodies to it: a row's
    (``bind_rows``), or with ``runs`` — an untraced replay's claims — a
    claim's over it (``bind_runs``).  Under ``spawn`` the kernels
    arrive as declarative specs (``FusedKernel.__reduce__``) and were
    regenerated during unpickling; under ``fork`` nothing is pickled."""
    global _WORKER_ROWS, _WORKER_BODY
    from ..interp.plan import bind_rows, bind_runs
    from ..interp.store import SharedArrayStore

    store = SharedArrayStore.attach(store_spec)
    call = bind_rows(funcs, rows, kernels, store)
    _WORKER_ROWS = rows
    _WORKER_BODY = call if runs is None else bind_runs(
        funcs, runs, store, call
    )


def _process_worker_run_batch(units: list[int], collect: bool = False):
    """Execute a batch of simultaneously ready units, in order.

    Batches contain only units whose predecessors all completed before
    submission, so any serial order inside the batch is legal.

    With ``collect`` the units are rows, and the batch also times every
    one on this worker's ``time.monotonic_ns`` clock — **not**
    ``perf_counter``, whose values from different processes share no
    epoch — and returns the raw readings plus batch receive/complete
    brackets.  The parent rebases them onto its own clock with the
    calibrated per-worker offset (see :mod:`repro.obs.runtime`).
    """
    body = _WORKER_BODY
    if not collect:
        for unit in units:
            body(unit)
        return None
    first_ns = time.monotonic_ns()
    timings: list[tuple[str, int, int]] = []
    for tid in units:
        t0 = time.monotonic_ns()
        body(tid)
        timings.append((_WORKER_ROWS[tid].stream, t0, time.monotonic_ns()))
    return {
        "pid": os.getpid(),
        "first_ns": first_ns,
        "last_ns": time.monotonic_ns(),
        "timings": timings,
    }


#: Never pack more than this many units into one submission — keeps
#: latency low when a wide front drains into a narrow one.
MAX_BATCH = 8


def run_processes(
    funcs, store, plan, runs, sched: Schedule, workers: int
) -> dict:
    """Run ``sched`` in a pool of ``workers`` processes against a
    shared-memory copy of ``store`` (results are copied back in place);
    its units are ``runs`` (claims) or, when ``runs`` is None, the rows
    of ``plan``.  Returns scheduling statistics.  The pool has one
    process per unit at most: under ``fork`` it starts every process on
    its first submission."""
    from ..interp.store import SharedArrayStore

    if workers < 1:
        raise ValueError("workers must be positive")
    workers = max(1, min(workers, len(sched)))
    try:
        pickle.dumps(funcs)
    except Exception as exc:
        raise RuntimeError(
            "the processes backend needs picklable kernel functions "
            "(module-level, not lambdas/closures)"
        ) from exc
    start = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    shared = SharedArrayStore.from_store(store)
    executor = None
    try:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp.get_context(start),
            initializer=_process_worker_init,
            initargs=(funcs, plan.rows, plan.streams, runs, shared.spec),
        )
        stats = _ready_batches(executor, sched, workers)
        # Copy results back into the caller's store in place.
        for name, view in store.arrays.items():
            view.data[...] = shared.arrays[name].data
        return stats
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
        shared.close()
        shared.unlink()


def _ready_batches(
    executor: ProcessPoolExecutor, sched: Schedule, workers: int
) -> dict:
    """Counter-based ready-batch dispatch.

    A finished batch decrements its successors' join counters and newly
    ready units join a FIFO.  The FIFO is drained into batches sized
    ``ceil(ready / workers)`` (capped at :data:`MAX_BATCH`) so a wide
    front splits evenly across the pool while narrow fronts keep
    single-unit latency.
    """
    n = len(sched)
    counts = list(sched.counts)
    succs = sched.succs
    ready: deque[int] = deque(sched.roots)
    collector = obs_runtime.current()
    in_flight: dict[Future, tuple[list[int], int]] = {}
    max_in_flight = 0
    batches = 0
    completed = 0

    def submit_batches() -> None:
        nonlocal batches
        while ready and len(in_flight) < 2 * workers:
            size = min(MAX_BATCH, -(-len(ready) // workers))  # ceil
            batch = [ready.popleft() for _ in range(min(size, len(ready)))]
            submit_ns = collector.now_ns() if collector is not None else 0
            fut = executor.submit(
                _process_worker_run_batch, batch, collector is not None
            )
            in_flight[fut] = (batch, submit_ns)
            batches += 1

    submit_batches()
    while in_flight:
        max_in_flight = max(max_in_flight, len(in_flight))
        done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
        for fut in done:
            batch, submit_ns = in_flight.pop(fut)
            exc = fut.exception()
            if exc is not None:
                for f in in_flight:
                    f.cancel()
                raise exc
            if collector is not None:
                payload = fut.result()
                if payload is not None:
                    collector.record_process_batch(
                        batch,
                        pid=payload["pid"],
                        submit_ns=submit_ns,
                        recv_ns=collector.now_ns(),
                        batch_first_ns=payload["first_ns"],
                        batch_last_ns=payload["last_ns"],
                        timings=payload["timings"],
                    )
            completed += len(batch)
            for tid in batch:
                for s in succs[tid]:
                    counts[s] -= 1
                    if not counts[s]:
                        ready.append(s)
        submit_batches()
    if completed != n:
        raise RuntimeError(
            f"scheduler stalled: {completed}/{n} units ran "
            "(dependency cycle in the schedule?)"
        )
    if collector is not None:
        collector.count("tasks", n)
        collector.count("batches", batches)
    return {
        "policy": "ready-batches",
        "tasks": n,
        "workers": workers,
        "max_in_flight": max_in_flight,
        "batches": batches,
    }
