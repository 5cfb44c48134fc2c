"""Compiled schedules and the in-process schedulers that run them.

Which task waits on which is decided when a task program is *built*
(Algorithm 1, Figures 7/8), not when it runs.  A :class:`Schedule` is
that decision compiled to what a scheduler needs — one join counter per
task, successor lists, roots (Pipeflow's fixed array of join counters).
It is always derived from a :class:`~repro.tasking.task.TaskGraph`:
``lower_exec_plan`` takes the quotient of the analysis' checked graph
over the plan rows and transitively reduces it
(:func:`transitive_reduction`), :func:`repro.tasking.execute` (under
``OmpTaskSystem.run``) a graph's own edges.  An untraced plan replay on
threads or processes hands its scheduler a further quotient, one task
per claim (``ExecPlan.claims``: a chain of rows that wait on nothing but
each other, or a whole stream whose rows were measured unable to pay
for their own dispatch — every stream, chained, when no overlap could
pay for it), so a task here may be many plan rows.  A run
(:func:`run_serial`, :func:`run_threads`, the process pool of
:mod:`repro.tasking.backends`) copies the counters and never writes to
the schedule, so one schedule is shared between runs and threads.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs import runtime as obs_runtime


@dataclass(frozen=True)
class Schedule:
    """Join counters, successor lists and roots of a task program."""

    counts: tuple[int, ...]  # distinct predecessors per task
    succs: tuple[tuple[int, ...], ...]  # ascending task ids
    roots: tuple[int, ...]  # tasks whose counter starts at zero

    @staticmethod
    def from_preds(preds: Sequence[set[int]]) -> "Schedule":
        succs: list[list[int]] = [[] for _ in preds]
        for tid, ps in enumerate(preds):  # ascending: so is every list
            for p in ps:
                succs[p].append(tid)
        return Schedule(
            counts=tuple(len(ps) for ps in preds),
            succs=tuple(tuple(s) for s in succs),
            roots=tuple(tid for tid, ps in enumerate(preds) if not ps),
        )

    def __len__(self) -> int:
        return len(self.counts)

    def preds(self) -> list[set[int]]:
        """Per task, the tasks it waits on (derived from ``succs``)."""
        preds: list[set[int]] = [set() for _ in self.counts]
        for tid, ss in enumerate(self.succs):
            for s in ss:
                preds[s].add(tid)
        return preds


def transitive_reduction(preds: Sequence[Sequence[int]]) -> list[set[int]]:
    """The transitive reduction of a DAG whose creation order is
    topological: per task, the predecessors no other predecessor
    already reaches.  Same reachability, and unique, so it does not
    matter which options built the edges.

    One pass in creation order over Python-int bitsets.  Each task's
    predecessors come latest first, without repeats, and one is kept
    only when no kept later predecessor reaches it.  A predecessor not
    below its task, or out of that order, is refused (``ValueError``).
    """
    reach: list[int] = []  # per task: the bitset of its ancestors
    out: list[set[int]] = []
    for tid, ps in enumerate(preds):
        kept, seen, bound = set(), 0, tid
        for p in ps:
            if p >= bound:
                raise ValueError(
                    f"task {tid} waits on task {p}, not below it"
                    if p >= tid else
                    f"task {tid}'s predecessors are not latest first"
                )
            bound = p
            if not seen >> p & 1:
                kept.add(p)
                seen |= reach[p] | 1 << p
        reach.append(seen)
        out.append(kept)
    return out


def latest_first(preds: Sequence[set[int]]) -> list[list[int]]:
    """Each task's predecessor set as :func:`transitive_reduction`
    reads it: sorted latest first."""
    return [sorted(ps, reverse=True) for ps in preds]


def run_serial(
    tids: Sequence[int],
    call: Callable[[int], None],
    name_of,
    collector: obs_runtime.RuntimeCollector | None = None,
) -> None:
    """Run ``tids`` in the given order on the calling thread — for
    ``range(n)``, the tasking-disabled schedule of a program whose
    creation order is topological; ``name_of`` and ``collector`` as for
    :func:`run_threads`.  A plan replay runs its stream runs here (the
    serial elision), or its rows when it collects runtime events."""
    if collector is None:
        for tid in tids:
            call(tid)
        return
    for tid in tids:
        t0 = collector.now_ns()
        call(tid)
        collector.record(
            tid, name_of(tid), worker=0, start_ns=t0,
            end_ns=collector.now_ns(),
        )
    collector.count("tasks", len(tids))


def run_threads(
    sched: Schedule,
    call: Callable[[int], None],
    workers: int,
    name_of,
    collector: obs_runtime.RuntimeCollector | None = None,
) -> dict:
    """Work-stealing run of ``sched`` on up to ``workers`` threads;
    ``call(tid)`` is a task's body, ``name_of(tid)`` its event label in
    ``collector`` — the caller looks it up (``obs_runtime.current()``),
    once per run.  Returns scheduling statistics.

    Each worker owns a deque, pushes newly ready successors locally
    (LIFO — the freshest task's data is hot) and steals oldest-first
    from siblings when drained.  The calling thread is worker 0 and
    starts with the roots; helpers start at the first *surplus* — a
    worker holding more ready tasks than the one it takes next — so a
    width-1 program never starts a thread and, untraced, never builds
    the lock it would share with one.

    A task failure stops dispatch, leaves every transitive dependent
    unexecuted and is re-raised once every helper is joined.  Any other
    exception reaching the caller (``KeyboardInterrupt``, a signal-raised
    deadline) stops the helpers from taking further tasks and is
    re-raised *without* joining them: one may be inside a stage that
    never returns, and a deadline must not become a hang.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    n = len(sched)
    nworkers = max(1, min(workers, n))
    counts = list(sched.counts)
    succs = sched.succs
    ready = deque(sched.roots)  # worker 0's
    pending = n  # tasks not yet finished
    if collector is None:
        # Alone until the first surplus: nothing else reads the state,
        # so the calling thread walks a width-1 prefix (a chain: all of
        # it) without the lock, and a failure raises with nothing to join.
        while len(ready) == 1:
            tid = ready.pop()
            call(tid)
            pending -= 1
            for s in succs[tid]:
                counts[s] -= 1
                if not counts[s]:
                    ready.append(s)
        if not pending:
            return _thread_stats(n, nworkers, 0, 0)
    queues = [ready, *(deque() for _ in range(1, nworkers))]
    lock = threading.Lock()
    cv = threading.Condition(lock)
    idle = 0  # workers parked in cv.wait()
    steals = 0
    failure: BaseException | None = None
    helpers: list[threading.Thread] = []

    def steal(me: int) -> int | None:
        nonlocal steals
        for k in range(1, nworkers):
            victim = queues[(me + k) % nworkers]
            if victim:
                steals += 1
                return victim.popleft()  # oldest first
        return None

    def work(me: int) -> None:
        nonlocal pending, idle, failure
        mine = queues[me]
        done: int | None = None
        while True:
            with lock:
                if done is not None:
                    pending -= 1
                    for s in succs[done]:
                        counts[s] -= 1
                        if not counts[s]:
                            mine.append(s)
                    done = None
                if not pending:
                    cv.notify_all()
                elif len(mine) > 1:  # surplus: more than I take next
                    if idle:
                        cv.notify_all()
                    elif not helpers:  # only worker 0 exists: start them
                        for k in range(1, nworkers):
                            helpers.append(threading.Thread(
                                target=work, args=(k,), daemon=True,
                                name=f"repro-ws-{k}",
                            ))
                            helpers[-1].start()
                while True:
                    if failure is not None or not pending:
                        return
                    stolen = not mine
                    tid = steal(me) if stolen else mine.pop()  # own: LIFO
                    if tid is not None:
                        break
                    if idle == len(helpers):  # nobody left to ready a task
                        failure = RuntimeError(
                            f"scheduler stalled: {n - pending}/{n} tasks ran "
                            "(dependency cycle in the schedule?)"
                        )
                        cv.notify_all()
                        return
                    idle += 1
                    cv.wait()
                    idle -= 1
                if collector is not None:
                    collector.queue_sample(me, len(mine))
            t0 = collector.now_ns() if collector is not None else 0
            try:
                call(tid)
            except BaseException as exc:  # noqa: BLE001 — caller re-raises
                with lock:
                    if failure is None:
                        failure = exc
                    cv.notify_all()
                return
            if collector is not None:
                collector.record(
                    tid, name_of(tid), worker=me, start_ns=t0,
                    end_ns=collector.now_ns(), stolen=stolen,
                )
            done = tid

    try:
        work(0)
        for th in helpers:
            th.join()
    except BaseException as exc:  # not from a task body: ``work`` keeps those
        with lock:
            if failure is None:
                failure = exc
            cv.notify_all()
        raise
    finally:
        # ``work`` names itself (to start helpers), a reference cycle that
        # would keep the run's store and state for the cycle collector;
        # helpers never read the name once started
        del work
    if failure is not None:
        raise failure
    if collector is not None:
        collector.count("tasks", n)
        collector.count("steals", steals)
    return _thread_stats(n, nworkers, len(helpers), steals)


def _thread_stats(tasks: int, workers: int, helpers: int, steals: int) -> dict:
    return {
        "policy": "work-stealing",
        "tasks": tasks,
        "workers": workers,
        "helpers": helpers,
        "steals": steals,
    }
