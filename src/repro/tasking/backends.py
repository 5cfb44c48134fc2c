"""The process pool: plan replays on worker processes over shared memory.

:func:`run_processes` runs a compiled
:class:`~repro.tasking.dispatch.Schedule` in a
:class:`~concurrent.futures.ProcessPoolExecutor` against a
:class:`~repro.interp.store.SharedArrayStore` — the closest Python
analogue of the paper's OpenMP runtime actually running on cores.
Nothing kernel-specific is pickled per task: workers rebuild the
interpreter once (adopting the parent's fusion plan) and receive
:func:`wire_task` tuples, one per plan row, dispatched in ready batches
(:func:`_ready_batches`).  Generated ``CreateTask`` programs run on
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
from typing import Sequence

from ..obs import runtime as obs_runtime
from .dispatch import Schedule


# ----------------------------------------------------------------------
# process pool over shared memory
# ----------------------------------------------------------------------
#: Worker-process globals, set once by :func:`_process_worker_init`.
_WORKER_INTERP = None
_WORKER_STORE = None


def _process_worker_init(program, params, funcs, store_spec, fuse, fused):
    """Build this worker's interpreter and attach the shared store.

    ``fused`` carries the parent's fusion plan (None when ``fuse`` is
    ``"off"``); its kernels pickle as
    declarative specs (``FusedKernel.__reduce__``) and the closures were
    regenerated during unpickling, so adopting the plan skips the
    per-worker Presburger legality analysis — and ships chain kernels,
    which are only planned against the parent's task AST.
    """
    global _WORKER_INTERP, _WORKER_STORE
    from ..interp import Interpreter
    from ..interp.store import SharedArrayStore
    from ..scop import extract_scop

    scop = extract_scop(program, dict(params))
    _WORKER_INTERP = Interpreter(program, scop, funcs, fuse=fuse)
    if fused is not None:
        _WORKER_INTERP.adopt_fused(fused)
    _WORKER_STORE = SharedArrayStore.attach(store_spec)


def _process_worker_run_batch(items, collect: bool = False):
    """Execute a batch of simultaneously ready blocks, in order.

    Batches contain only blocks whose predecessors all completed before
    submission, so any serial order inside the batch is legal.

    With ``collect`` the batch also times every block on this worker's
    ``time.monotonic_ns`` clock — **not** ``perf_counter``, whose values
    from different processes share no epoch — and returns the raw
    readings plus batch receive/complete brackets.  The parent rebases
    them onto its own clock with the calibrated per-worker offset (see
    :mod:`repro.obs.runtime`).
    """
    from ..interp.plan import run_task

    if not collect:
        for wire in items:
            run_task(_WORKER_INTERP, _WORKER_STORE, *wire)
        return None
    first_ns = time.monotonic_ns()
    timings: list[tuple[str, int, int]] = []
    for wire in items:
        t0 = time.monotonic_ns()
        run_task(_WORKER_INTERP, _WORKER_STORE, *wire)
        timings.append((wire[0], t0, time.monotonic_ns()))
    return {
        "pid": os.getpid(),
        "first_ns": first_ns,
        "last_ns": time.monotonic_ns(),
        "timings": timings,
    }


def wire_task(statement: str, payload: dict) -> tuple:
    """``(statement, iterations, remap, combine, rects)`` — what crosses
    the process boundary for one task, as plain lists/tuples of ints (the
    arguments of :func:`repro.interp.plan.run_task`).  Built once per
    plan row (``ExecPlan.wire``), not per run."""
    iters = payload["iters"]
    rows = iters.tolist() if hasattr(iters, "tolist") else iters
    return (
        statement,
        [tuple(int(v) for v in row) for row in rows],
        payload.get("remap"),  # accumulator -> private buffer name
        payload.get("combine"),  # join-task payload; no block runs
        payload.get("rects"),  # precomputed rectangles of a fused block
    )


#: Never pack more than this many blocks into one submission — keeps
#: latency low when a wide front drains into a narrow one.
MAX_BATCH = 8


def run_processes(
    interp, store, sched: Schedule, wire: Sequence[tuple], workers: int
) -> dict:
    """Run ``sched`` over the :func:`wire_task` tuples ``wire`` in a pool
    of ``workers`` processes against a shared-memory copy of ``store``
    (results are copied back in place); returns scheduling statistics."""
    from ..interp.store import SharedArrayStore

    if workers < 1:
        raise ValueError("workers must be positive")
    try:
        pickle.dumps(interp.funcs)
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
            initargs=(
                interp.program,
                interp.scop.params,
                interp.funcs,
                shared.spec,
                interp.fuse,
                interp.fused_program if interp.fuse != "off" else None,
            ),
        )
        stats = _ready_batches(executor, sched, wire, workers)
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
    executor: ProcessPoolExecutor, sched: Schedule, wire, workers: int
) -> dict:
    """Counter-based ready-batch dispatch.

    A finished batch decrements its successors' join counters and newly
    ready blocks join a FIFO.  The FIFO is drained into batches sized
    ``ceil(ready / workers)`` (capped at :data:`MAX_BATCH`) so a wide
    front splits evenly across the pool while narrow fronts keep
    single-block latency.
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
                _process_worker_run_batch,
                [wire[tid] for tid in batch],
                collector is not None,
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
            f"scheduler stalled: {completed}/{n} blocks ran "
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
