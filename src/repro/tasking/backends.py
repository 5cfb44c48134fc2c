"""Alternative tasking backends behind the CreateTask interface.

The paper's Section 7 expects the tasking layer to be swappable "with
minimal changes" because task detection is independent of OpenMP.  This
module demonstrates that: three backends implement the same
``create_task(...)`` signature as :class:`~repro.tasking.api.OmpTaskSystem`
(the OpenMP-like reference), and the generated task programs of
:mod:`repro.codegen.emit` run unchanged against any of them.

* :class:`SerialBackend` — executes each task immediately at creation.
  Tasks are created in original program order, which is a topological
  order of the dependence graph, so immediate execution is trivially
  correct; this is the "tasking disabled" escape hatch.
* :class:`FuturesBackend` — records tasks at creation and dispatches
  them from :meth:`run` with a *work-stealing* thread scheduler:
  per-worker deques (LIFO locally for cache affinity, FIFO steals),
  integer dependency counters and a dependents adjacency list, so
  readiness tracking is O(edges) overall instead of one blocked pool
  slot per task waiting on futures.
* :class:`ProcessBackend` — executes task blocks in a persistent
  :class:`concurrent.futures.ProcessPoolExecutor` against a
  :class:`~repro.interp.store.SharedArrayStore`, the closest Python
  analogue of the paper's OpenMP runtime actually running on cores.
  Task *creation* only records the block and its dependency slots;
  :meth:`ProcessBackend.run` dispatches *ready batches* — simultaneously
  ready blocks grouped into one submission — with counter-based
  readiness, amortizing the inter-process round-trip per task.  Nothing
  kernel-specific is pickled per task — workers rebuild the interpreter
  once from a spec and receive ``(statement, iterations)`` pairs.

Dependency bookkeeping is identical across backends (and
:class:`OmpTaskSystem`): an *in* slot waits for the slot's last writer,
and tasks created from the same function pointer chain sequentially
(the ``funcCount`` trick of Figure 8).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs import runtime as obs_runtime


class SlotAddressing:
    """The shared ``dependArr`` slot packing of Figure 8.

    Every backend addresses a dependency token as
    ``write_num * depend + idx`` where ``depend`` is the packed block end
    and ``idx`` the statement column — the exact layout
    :mod:`repro.codegen.emit` bakes into generated programs.  Hoisted
    here so the backends (and :class:`~repro.tasking.api.OmpTaskSystem`)
    cannot drift apart; ``tests/tasking`` cross-checks the arithmetic
    against :mod:`repro.codegen.packing`.
    """

    write_num: int

    def _init_slots(self, write_num: int) -> None:
        if write_num < 1:
            raise ValueError("write_num must be positive")
        self.write_num = write_num

    def slot(self, depend: int, idx: int) -> int:
        """The ``dependArr`` address of a dependency token (Figure 8)."""
        if not 0 <= idx < self.write_num:
            raise ValueError(
                f"idx {idx} out of range for write_num {self.write_num}"
            )
        return self.write_num * depend + idx


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
        del chain  # execution is already strictly in creation order
        if len(in_depend) != len(in_idx):
            raise ValueError("in_depend and in_idx must have equal length")
        collector = obs_runtime.current()
        if collector is None:
            func(task_input)
        else:
            t0 = collector.now_ns()
            func(task_input)
            collector.record(
                len(self.executed),
                statement or getattr(func, "__name__", "task"),
                worker=0,
                start_ns=t0,
                end_ns=collector.now_ns(),
            )
            collector.count("tasks")
        self.executed.append(statement or getattr(func, "__name__", "task"))
        return len(self.executed) - 1

    def run(self, workers: int = 1):
        """Everything already ran at creation; nothing to do."""
        del workers
        return None

    def __len__(self) -> int:
        return len(self.executed)


@dataclass
class _RecordedCall:
    """One recorded thread task: the callable, its payload and dep counters."""

    tid: int
    func: Callable[[object], None]
    payload: object
    deps: set[int] = field(default_factory=set)
    cost: float = 1.0
    statement: str | None = None


class FuturesBackend(SlotAddressing):
    """Thread backend with batched work-stealing dispatch.

    ``create_task`` only records the call and resolves its dependency
    slots to producing task ids (slot-writer table plus the same-function
    self chain, duplicates collapsed).  :meth:`run` then executes the
    graph on ``workers`` threads: each worker owns a deque, pushes newly
    ready dependents locally (LIFO — the freshest task's data is hot) and
    steals oldest-first from siblings when drained.  Readiness is an
    integer remaining-dependency counter per task, decremented as
    predecessors finish — no future chaining, no slot scans, no pool
    threads parked on ``wait()``.

    A task failure stops dispatch, leaves every transitive dependent
    unexecuted and re-raises from :meth:`run` after the workers drained.
    Scheduling statistics land in :attr:`stats` (also returned by
    :meth:`run`).
    """

    def __init__(self, write_num: int, workers: int = 4):
        self._init_slots(write_num)
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._tasks: list[_RecordedCall] = []
        self._slot_writer: dict[int, int] = {}
        self._chain_last: dict[object, int] = {}
        self.stats: dict | None = None

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
        if len(in_depend) != len(in_idx):
            raise ValueError("in_depend and in_idx must have equal length")
        tid = len(self._tasks)
        task = _RecordedCall(tid, func, task_input, cost=cost, statement=statement)
        for d, ix in zip(in_depend, in_idx):
            writer = self._slot_writer.get(self.slot(d, ix))
            if writer is not None:
                task.deps.add(writer)
        if chain:
            prev_same = self._chain_last.get(func)
            if prev_same is not None:
                task.deps.add(prev_same)
            self._chain_last[func] = tid
        self._slot_writer[self.slot(out_depend, out_idx)] = tid
        self._tasks.append(task)
        return tid

    def run(self, workers: int = 0) -> dict:
        """Execute every recorded task; returns scheduling statistics."""
        del workers  # worker count fixed at construction
        n = len(self._tasks)
        nworkers = max(1, min(self.workers, n))
        counts = [len(t.deps) for t in self._tasks]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for t in self._tasks:
            for d in t.deps:
                dependents[d].append(t.tid)

        queues = [deque() for _ in range(nworkers)]
        for k, t in enumerate(t for t in self._tasks if not t.deps):
            queues[k % nworkers].append(t.tid)

        cv = threading.Condition()
        state = {
            "pending": n,
            "executed": 0,
            "steals": 0,
            "failure": None,
        }

        collector = obs_runtime.current()

        def acquire(me: int) -> tuple[int, bool] | None:
            """``(task id, stolen)`` for worker ``me``; None to shut down."""
            if queues[me]:
                return queues[me].pop(), False  # own deque, LIFO
            for k in range(1, nworkers):
                victim = queues[(me + k) % nworkers]
                if victim:
                    state["steals"] += 1
                    return victim.popleft(), True  # steal oldest-first
            return None

        def worker(me: int) -> None:
            done: int | None = None
            while True:
                with cv:
                    if done is not None:
                        state["pending"] -= 1
                        state["executed"] += 1
                        for d in dependents[done]:
                            counts[d] -= 1
                            if counts[d] == 0:
                                queues[me].append(d)
                        if state["pending"] == 0 or len(queues[me]) > 1:
                            cv.notify_all()
                        done = None
                    while True:
                        if state["failure"] is not None or state["pending"] == 0:
                            return
                        acquired = acquire(me)
                        if acquired is not None:
                            tid, stolen = acquired
                            break
                        cv.wait()
                    if collector is not None:
                        collector.queue_sample(me, len(queues[me]))
                task = self._tasks[tid]
                t0 = collector.now_ns() if collector is not None else 0
                try:
                    task.func(task.payload)
                except BaseException as exc:  # noqa: BLE001 — re-raised below
                    with cv:
                        if state["failure"] is None:
                            state["failure"] = exc
                        cv.notify_all()
                    return
                if collector is not None:
                    collector.record(
                        tid,
                        task.statement
                        or getattr(task.func, "__name__", "task"),
                        worker=me,
                        start_ns=t0,
                        end_ns=collector.now_ns(),
                        stolen=stolen,
                    )
                done = tid

        threads = [
            threading.Thread(target=worker, args=(k,), name=f"repro-ws-{k}")
            for k in range(nworkers)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        if state["failure"] is not None:
            raise state["failure"]
        if state["executed"] != n:
            raise RuntimeError(
                f"scheduler stalled: {state['executed']}/{n} tasks ran "
                "(dependency cycle in recorded tasks?)"
            )
        self.stats = {
            "policy": "work-stealing",
            "tasks": n,
            "workers": nworkers,
            "steals": state["steals"],
        }
        if collector is not None:
            collector.count("tasks", n)
            collector.count("steals", state["steals"])
        return self.stats

    def __len__(self) -> int:
        return len(self._tasks)


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


def _process_worker_run(
    statement: str, iterations, remap=None, combine=None, rects=None
) -> None:
    """Execute one pipeline block (or one combine step) in this worker.

    ``remap`` redirects an accumulator array to a private buffer for the
    duration of the block (privatized reductions: the compiled statement
    body reads ``store.arrays[name]``, so a proxy store with the private
    view under the accumulator's name runs it unchanged).  ``combine``
    marks a generated join task: no statement instances run, the privates
    fold into the base accumulator with the group operator instead.
    ``rects`` marks a fused task: the block's rectangle decomposition was
    precomputed at task creation, so the hot path is one closure call per
    rectangle with zero interpretation (``statement`` may then also be a
    chain label such as ``"S+T"``).
    """
    import numpy as np

    if combine is not None:
        from ..interp.plan import apply_combine

        apply_combine(_WORKER_STORE, combine)
        return
    store = _WORKER_STORE
    if remap:
        from ..interp.store import ArrayStore

        store = ArrayStore(
            {**store.arrays, **{
                acc: store.arrays[priv] for acc, priv in remap.items()
            }}
        )
    if rects is not None:
        kernel = _WORKER_INTERP.fused_kernel(statement)
        if kernel is not None:
            kernel.run_rects(store, _WORKER_INTERP.funcs, rects)
            return
        if "+" in statement:
            raise RuntimeError(
                f"worker has no fused kernel for chain {statement!r} "
                "(fusion plan not shipped to the pool?)"
            )
    _WORKER_INTERP.run_block(
        store, statement, np.asarray(iterations, dtype=np.int64)
    )


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
    if not collect:
        for statement, iterations, remap, combine, rects in items:
            _process_worker_run(statement, iterations, remap, combine, rects)
        return None
    first_ns = time.monotonic_ns()
    timings: list[tuple[str, int, int]] = []
    for statement, iterations, remap, combine, rects in items:
        t0 = time.monotonic_ns()
        _process_worker_run(statement, iterations, remap, combine, rects)
        timings.append((statement, t0, time.monotonic_ns()))
    return {
        "pid": os.getpid(),
        "first_ns": first_ns,
        "last_ns": time.monotonic_ns(),
        "timings": timings,
    }


@dataclass
class _RecordedTask:
    tid: int
    statement: str
    iterations: list[tuple[int, ...]]
    deps: set[int] = field(default_factory=set)
    cost: float = 1.0
    #: accumulator name -> private buffer name (privatized blocks)
    remap: dict[str, str] | None = None
    #: join-task payload ({"array", "group", "privates"}); no block runs
    combine: dict | None = None
    #: precomputed rectangle decomposition of a fused block (list of
    #: inclusive ``(lo, hi)`` tuples); None runs the run_block ladder
    rects: list | None = None


class ProcessBackend(SlotAddressing):
    """Persistent worker processes over a shared-memory array store.

    Implements the CreateTask signature, but ``create_task`` only records
    blocks — :meth:`run` attaches a :class:`SharedArrayStore`, starts the
    pool, and dispatches *ready batches* as dependency counters drain.
    Task payloads are *not* pickled (generated modules pass unpicklable
    closures); only ``(statement, iterations)`` crosses the process
    boundary, and each worker executes it with its own compiled
    statements against the one shared segment.

    ``interpreter`` supplies the program, funcs (which must be picklable,
    i.e. module-level) and fuse mode; ``store`` is the caller's
    in-process store — it is copied into shared memory before execution
    and the results are copied back in place afterwards, so the backend
    mutates ``store`` exactly like the in-process backends do.
    """

    #: Never pack more than this many blocks into one submission — keeps
    #: latency low when a wide front drains into a narrow one.
    MAX_BATCH = 8

    def __init__(
        self,
        write_num: int,
        interpreter,
        store,
        workers: int = 4,
        mp_context: str | None = None,
    ):
        self._init_slots(write_num)
        if workers < 1:
            raise ValueError("workers must be positive")
        self.interpreter = interpreter
        self.store = store
        self.workers = workers
        self._mp_context = mp_context
        self._tasks: list[_RecordedTask] = []
        self._slot_writer: dict[int, int] = {}
        self._chain_last: dict[str, int] = {}

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
        if len(in_depend) != len(in_idx):
            raise ValueError("in_depend and in_idx must have equal length")
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
        iters = task_input["iters"]
        rows = iters.tolist() if hasattr(iters, "tolist") else iters
        tid = len(self._tasks)
        task = _RecordedTask(
            tid,
            statement,
            [tuple(int(v) for v in row) for row in rows],
            cost=cost,
            remap=task_input.get("remap"),
            combine=task_input.get("combine"),
            rects=task_input.get("rects"),
        )
        for d, ix in zip(in_depend, in_idx):
            writer = self._slot_writer.get(self.slot(d, ix))
            if writer is not None:
                task.deps.add(writer)
        if chain:
            prev_same = self._chain_last.get(statement)
            if prev_same is not None:
                task.deps.add(prev_same)
            self._chain_last[statement] = tid
        self._slot_writer[self.slot(out_depend, out_idx)] = tid
        self._tasks.append(task)
        return tid

    # ------------------------------------------------------------------
    def _executor(self, store_spec) -> ProcessPoolExecutor:
        interp = self.interpreter
        try:
            pickle.dumps(interp.funcs)
        except Exception as exc:
            raise RuntimeError(
                "ProcessBackend needs picklable kernel functions "
                "(module-level, not lambdas/closures)"
            ) from exc
        ctx_name = self._mp_context or (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp.get_context(ctx_name),
            initializer=_process_worker_init,
            initargs=(
                interp.program,
                interp.scop.params,
                interp.funcs,
                store_spec,
                interp.fuse,
                interp.fused_program if interp.fuse != "off" else None,
            ),
        )

    def run(self, workers: int = 0):
        """Execute every recorded block; returns scheduling statistics."""
        del workers  # pool size fixed at construction
        from ..interp.store import SharedArrayStore

        shared = SharedArrayStore.from_store(self.store)
        executor = None
        try:
            executor = self._executor(shared.spec)
            stats = self._schedule(executor)
            # Copy results back into the caller's store in place.
            for name, view in self.store.arrays.items():
                view.data[...] = shared.arrays[name].data
            return stats
        finally:
            if executor is not None:
                executor.shutdown(wait=True)
            shared.close()
            shared.unlink()

    def _schedule(self, executor: ProcessPoolExecutor) -> dict:
        """Counter-based ready-batch dispatch.

        Readiness is an integer remaining-dependency counter per block; a
        finished batch decrements its dependents' counters and newly
        ready blocks join a FIFO.  The FIFO is drained into batches sized
        ``ceil(ready / workers)`` (capped at :attr:`MAX_BATCH`) so a wide
        front splits evenly across the pool while narrow fronts keep
        single-block latency.
        """
        counts = [len(t.deps) for t in self._tasks]
        dependents: list[list[int]] = [[] for _ in self._tasks]
        for t in self._tasks:
            for d in t.deps:
                dependents[d].append(t.tid)

        ready: deque[int] = deque(
            t.tid for t in self._tasks if not t.deps
        )
        collector = obs_runtime.current()
        in_flight: dict[Future, tuple[list[int], int]] = {}
        max_in_flight = 0
        batches = 0
        completed = 0

        def submit_batches() -> None:
            nonlocal batches
            while ready and len(in_flight) < 2 * self.workers:
                size = min(
                    self.MAX_BATCH,
                    -(-len(ready) // self.workers),  # ceil division
                )
                batch = [ready.popleft() for _ in range(min(size, len(ready)))]
                submit_ns = collector.now_ns() if collector is not None else 0
                fut = executor.submit(
                    _process_worker_run_batch,
                    [
                        (
                            self._tasks[tid].statement,
                            self._tasks[tid].iterations,
                            self._tasks[tid].remap,
                            self._tasks[tid].combine,
                            self._tasks[tid].rects,
                        )
                        for tid in batch
                    ],
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
                    for dep_tid in dependents[tid]:
                        counts[dep_tid] -= 1
                        if counts[dep_tid] == 0:
                            ready.append(dep_tid)
            submit_batches()
        if completed != len(self._tasks):
            raise RuntimeError(
                f"scheduler stalled: {completed}/{len(self._tasks)} blocks "
                "ran (dependency cycle in recorded tasks?)"
            )
        if collector is not None:
            collector.count("tasks", len(self._tasks))
            collector.count("batches", batches)
        return {
            "policy": "ready-batches",
            "tasks": len(self._tasks),
            "workers": self.workers,
            "max_in_flight": max_in_flight,
            "batches": batches,
        }

    def __len__(self) -> int:
        return len(self._tasks)
