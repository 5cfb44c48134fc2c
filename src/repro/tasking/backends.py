"""Alternative tasking backends behind the CreateTask interface.

The paper's Section 7 expects the tasking layer to be swappable "with
minimal changes" because task detection is independent of OpenMP.  This
module demonstrates that: three backends implement the same
``create_task(...)`` signature as :class:`~repro.tasking.api.OmpTaskSystem`
(the OpenMP-like reference), and the generated task programs of
:mod:`repro.codegen.emit` run unchanged against any of them.

* :class:`SerialBackend` — executes each task immediately at creation
  (creation order is a topological order): the "tasking disabled"
  escape hatch.
* :class:`FuturesBackend` — records tasks and runs them on the
  work-stealing threads of :func:`~repro.tasking.dispatch.run_threads`.
* :class:`ProcessBackend` — records blocks and runs them in a
  :class:`~concurrent.futures.ProcessPoolExecutor` against a
  :class:`~repro.interp.store.SharedArrayStore` (:func:`run_processes`),
  the closest Python analogue of the paper's OpenMP runtime actually
  running on cores.  Nothing kernel-specific is pickled per task —
  workers rebuild the interpreter once and receive :func:`wire_task`
  tuples.

Both recording backends resolve dependencies with the one
:class:`~repro.tasking.dispatch.SlotResolver`, which the plans of
:mod:`repro.interp.plan` feed once at lowering — a plan replay and
``create_task`` + ``run()`` share the resolver and both schedulers.
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
from typing import Callable, Sequence

from ..obs import runtime as obs_runtime
from .dispatch import (
    Schedule,
    SlotAddressing,
    SlotResolver,
    run_serial,
    run_threads,
)


class SerialBackend(SlotAddressing):
    """Immediate, in-order execution (creation order is topological)."""

    def __init__(self, write_num: int):
        self._init_slots(write_num)
        self.executed: list[str] = []

    def create_task(
        self,
        func: Callable[[object], None],
        task_input: object,
        out_depend: int,
        out_idx: int,
        in_depend: Sequence[int] = (),
        in_idx: Sequence[int] = (),
        cost: float = 1.0,
        statement: str | None = None,
        chain: bool = True,
    ) -> int:
        del cost, chain  # execution is already strictly in creation order
        if len(in_depend) != len(in_idx):
            raise ValueError("in_depend and in_idx must have equal length")
        tid = len(self.executed)
        name = statement or getattr(func, "__name__", "task")
        run_serial((tid,), lambda _: func(task_input), lambda _: name)
        self.executed.append(name)
        return tid

    def run(self, workers: int = 0) -> None:
        """Everything already ran at creation; nothing to do."""

    def __len__(self) -> int:
        return len(self.executed)


class _RecordingBackend(SlotResolver):
    """``create_task`` records a task and resolves its slots; ``run()``
    hands the compiled schedule to a scheduler."""

    def __init__(self, write_num: int, workers: int = 4):
        super().__init__(write_num)
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers  # fixed here; ``run(workers=)`` is ignored
        self._tasks: list[tuple] = []

    def create_task(
        self,
        func: Callable[[object], None],
        task_input: object,
        out_depend: int,
        out_idx: int,
        in_depend: Sequence[int] = (),
        in_idx: Sequence[int] = (),
        cost: float = 1.0,
        statement: str | None = None,
        chain: bool = True,
    ) -> int:
        del cost  # only OmpTaskSystem puts costs on a graph (simulator)
        task, chain_key = self._record(func, task_input, statement)
        tid = self.add(
            out_depend, out_idx, in_depend, in_idx,
            chain_key if chain else None,
        )
        self._tasks.append(task)
        return tid


class FuturesBackend(_RecordingBackend):
    """Thread backend: records ``(func, payload, name)`` calls, chained
    on function identity, and runs them with
    :func:`~repro.tasking.dispatch.run_threads` — a task failure leaves
    every transitive dependent unexecuted and is re-raised after the
    workers drained."""

    def _record(self, func, task_input, statement):
        name = statement or getattr(func, "__name__", "task")
        return (func, task_input, name), func

    def run(self, workers: int = 0) -> dict:
        """Execute every recorded task; returns scheduling statistics."""
        tasks = self._tasks

        def call(tid: int) -> None:
            func, payload, _ = tasks[tid]
            func(payload)

        return run_threads(
            self.schedule(), call, self.workers, lambda tid: tasks[tid][2]
        )


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
    arguments of :func:`repro.interp.plan.run_task`).  Built per recorded
    task or plan row, not per run."""
    iters = payload["iters"]
    rows = iters.tolist() if hasattr(iters, "tolist") else iters
    return (
        statement,
        [tuple(int(v) for v in row) for row in rows],
        payload.get("remap"),  # accumulator -> private buffer name
        payload.get("combine"),  # join-task payload; no block runs
        payload.get("rects"),  # precomputed rectangles of a fused block
    )


class ProcessBackend(_RecordingBackend):
    """Worker processes over a shared-memory array store.

    Records one :func:`wire_task` tuple per block, chained on the
    statement name; :meth:`run` hands them to :func:`run_processes`.
    Task payloads are *not* pickled (generated modules pass unpicklable
    closures): only the wire tuples cross the process boundary, and each
    worker executes them with its own compiled statements against the
    one shared segment.

    ``interpreter`` supplies the program, funcs (which must be picklable,
    i.e. module-level) and fuse mode; ``store`` is the caller's
    in-process store — it is copied into shared memory before execution
    and the results are copied back in place afterwards, so the backend
    mutates ``store`` exactly like the in-process backends do.
    """

    def __init__(self, write_num: int, interpreter, store, workers: int = 4):
        super().__init__(write_num, workers)
        self.interpreter = interpreter
        self.store = store

    def _record(self, func, task_input, statement):
        if statement is None:
            raise ValueError(
                "ProcessBackend requires statement= on every task "
                "(blocks are re-executed by name in worker processes)"
            )
        if not (isinstance(task_input, dict) and "iters" in task_input):
            raise ValueError(
                "ProcessBackend requires the generated payload shape "
                "{'iters': [...], ...}"
            )
        return wire_task(statement, task_input), statement

    def run(self, workers: int = 0) -> dict:
        """Execute every recorded block; returns scheduling statistics."""
        return run_processes(
            self.interpreter, self.store, self.schedule(), self._tasks,
            self.workers,
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
            "ProcessBackend needs picklable kernel functions "
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
