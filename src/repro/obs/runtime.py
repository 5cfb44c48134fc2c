"""Live runtime event collection for the tasking backends.

The simulator predicts schedules; this module records what *actually*
happened when a task program ran on the thread or process backends:
per-task start/finish timestamps, the executing worker, steal markers
and queue-depth samples.  The resulting :class:`RuntimeTrace` renders as
its own lane group in the Chrome/Perfetto document next to the simulated
schedule (see :mod:`repro.bench.trace`), which is what makes
simulated-vs-measured comparison possible at all.

Collection is opt-in and near-zero cost when off: backends fetch the
active collector once per :meth:`run` (``current()`` returns ``None``
when disabled; the active collector is the calling thread's own) and skip every timestamp when there is none.

Clock domains
-------------
All timestamps are :func:`time.monotonic_ns` **relative to the
collector's epoch** (taken on the parent at activation).  Threads share
the parent's clock, so thread events need no correction.  Worker
*processes* read their own ``monotonic_ns`` — on mainstream platforms
this is the same system-wide clock, but the Chrome-trace contract here
must not depend on that, and ``perf_counter`` (the previous timing
source of the execution layer) explicitly shares no epoch across
processes.  Each worker's offset is therefore *calibrated* from message
round-trips: for a batch submitted at parent time ``s``, received back
at parent time ``r``, whose worker clock read ``a`` on receipt and
``b`` on completion, the true offset ``o`` (worker clock minus parent
clock) satisfies ``a >= s + o`` and ``b <= r + o``, i.e.
``b - r <= o <= a - s``.  Intersecting these intervals over all batches
a worker handled and taking the midpoint gives a bounded-error offset
(exact up to half the fastest round-trip), applied before any worker
timestamp is surfaced.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "RuntimeCollector",
    "RuntimeTrace",
    "TaskEvent",
    "WorkerClock",
    "collecting",
    "current",
]


@dataclass(frozen=True)
class TaskEvent:
    """One executed task (block), on the parent's clock."""

    tid: int  # creation-order task id (aligns with TaskGraph tasks)
    statement: str
    worker: int  # worker lane index (thread index / per-pid index)
    start_ns: int  # relative to the collector epoch
    end_ns: int
    stolen: bool = False
    pid: int | None = None  # OS pid for process workers

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class WorkerClock:
    """Calibration state of one worker process's monotonic clock."""

    pid: int
    worker: int  # assigned lane index
    #: offset bounds (worker_ns - parent_ns): lo from completions,
    #: hi from receipts; the truth lies in [lo, hi].
    lo_ns: float = float("-inf")
    hi_ns: float = float("inf")
    samples: int = 0

    def observe(
        self, submit_ns: int, recv_ns: int, first_ns: int, last_ns: int
    ) -> None:
        """Tighten the offset interval with one round-trip observation."""
        self.samples += 1
        self.lo_ns = max(self.lo_ns, last_ns - recv_ns)
        self.hi_ns = min(self.hi_ns, first_ns - submit_ns)

    @property
    def offset_ns(self) -> int:
        """Best offset estimate (interval midpoint; 0 if unobserved)."""
        if self.samples == 0:
            return 0
        lo, hi = self.lo_ns, self.hi_ns
        if lo == float("-inf"):
            lo = hi
        if hi == float("inf"):
            hi = lo
        if lo > hi:  # inconsistent observations; trust completions
            return int(lo)
        return int((lo + hi) / 2)

    @property
    def uncertainty_ns(self) -> int:
        """Half-width of the offset interval (0 when degenerate)."""
        if (
            self.samples == 0
            or self.lo_ns == float("-inf")
            or self.hi_ns == float("inf")
            or self.lo_ns > self.hi_ns
        ):
            return 0
        return int((self.hi_ns - self.lo_ns) / 2)

    def as_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "worker": self.worker,
            "offset_ns": self.offset_ns,
            "uncertainty_ns": self.uncertainty_ns,
            "samples": self.samples,
        }


@dataclass
class RuntimeTrace:
    """Everything one collected run recorded."""

    backend: str
    workers: int
    epoch_ns: int
    events: list[TaskEvent] = field(default_factory=list)
    #: (t_ns, worker, depth) queue-depth samples (thread backend)
    queue_depth: list[tuple[int, int, int]] = field(default_factory=list)
    #: pid -> clock calibration (process backend)
    clocks: dict[int, WorkerClock] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def makespan_ns(self) -> int:
        """Last finish minus first start over all events (0 if empty)."""
        if not self.events:
            return 0
        return max(e.end_ns for e in self.events) - min(
            e.start_ns for e in self.events
        )

    def worker_utilization(self) -> float:
        """Busy time over (makespan × lanes actually used)."""
        if not self.events:
            return 0.0
        span = self.makespan_ns
        if span == 0:
            return 1.0
        lanes = len({e.worker for e in self.events})
        busy = sum(e.duration_ns for e in self.events)
        return busy / (span * lanes)

    def expand_members(
        self,
        members: tuple,
        weights=None,
        statements=None,
    ) -> "RuntimeTrace":
        """Expand merged-chain events back onto unfused-graph task ids.

        ``members[t]`` lists the unfused task ids that backend task
        ``t`` executed (:attr:`ExecutionStats.task_members`).  A merged
        event becomes one synthetic event per member, contiguous in
        time, its duration divided proportionally to ``weights[member]``
        (e.g. graph task costs; equal split when absent or degenerate);
        worker lane, steal flag and pid are preserved.  ``statements``
        (member id -> name) restores per-statement attribution that the
        merged ``"S+T"`` label obscures.  Events with ids outside
        ``members`` pass through unchanged.
        """
        if not members:
            return self
        out: list[TaskEvent] = []
        for e in self.events:
            if not (0 <= e.tid < len(members)):
                out.append(e)
                continue
            mem = members[e.tid]
            w = None
            if weights is not None:
                try:
                    w = [max(0.0, float(weights[m])) for m in mem]
                except (IndexError, KeyError):
                    w = None
                if w is not None and sum(w) <= 0.0:
                    w = None
            if w is None:
                w = [1.0] * len(mem)
            total = sum(w)
            start = e.start_ns
            acc = 0.0
            for i, m in enumerate(mem):
                acc += w[i]
                if i == len(mem) - 1:
                    end = e.end_ns
                else:
                    end = e.start_ns + int(
                        round(e.duration_ns * acc / total)
                    )
                name = e.statement
                if statements is not None:
                    try:
                        name = statements[m]
                    except (IndexError, KeyError):
                        pass
                out.append(
                    TaskEvent(
                        tid=m,
                        statement=name,
                        worker=e.worker,
                        start_ns=start,
                        end_ns=end,
                        stolen=e.stolen,
                        pid=e.pid,
                    )
                )
                start = end
        return RuntimeTrace(
            backend=self.backend,
            workers=self.workers,
            epoch_ns=self.epoch_ns,
            events=out,
            queue_depth=self.queue_depth,
            clocks=self.clocks,
            counters=dict(self.counters),
        )

    def summary_dict(self) -> dict[str, Any]:
        """Compact JSON form (aggregates, not per-event rows)."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "events": len(self.events),
            "makespan_ns": self.makespan_ns,
            "utilization": round(self.worker_utilization(), 4),
            "queue_samples": len(self.queue_depth),
            "counters": dict(self.counters),
            "clocks": {
                str(pid): clock.as_dict()
                for pid, clock in sorted(self.clocks.items())
            },
        }

    def to_trace_events(self, pid: int = 2) -> list[dict[str, Any]]:
        """Chrome trace events for the measured lanes.

        One ``X`` event per task on its worker's lane (ts µs from the
        first event), ``C`` counter events for queue-depth samples.
        """
        if not self.events:
            return []
        origin = min(e.start_ns for e in self.events)
        lanes = sorted({e.worker for e in self.events})
        events: list[dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": w,
                "args": {"name": f"{self.backend} worker {w}"},
            }
            for w in lanes
        ]
        for e in self.events:
            args: dict[str, Any] = {"task": e.tid, "statement": e.statement}
            if e.stolen:
                args["stolen"] = True
            if e.pid is not None:
                args["os_pid"] = e.pid
            events.append(
                {
                    "name": e.statement,
                    "cat": "measured",
                    "ph": "X",
                    "ts": (e.start_ns - origin) / 1e3,
                    "dur": max(e.duration_ns, 0) / 1e3,
                    "pid": pid,
                    "tid": e.worker,
                    "args": args,
                }
            )
        for t_ns, worker, depth in self.queue_depth:
            events.append(
                {
                    "name": f"queue depth w{worker}",
                    "ph": "C",
                    "ts": max(t_ns - origin, 0) / 1e3,
                    "pid": pid,
                    "tid": worker,
                    "args": {"depth": depth},
                }
            )
        return events


class RuntimeCollector:
    """Thread-safe event sink handed to a backend for one run."""

    def __init__(self, backend: str, workers: int):
        self.backend = backend
        self.workers = workers
        self.epoch_ns = time.monotonic_ns()
        self._lock = threading.Lock()
        self._events: list[TaskEvent] = []
        self._queue: list[tuple[int, int, int]] = []
        self._clocks: dict[int, WorkerClock] = {}
        self._counters: dict[str, int] = {}

    # -- hot path -------------------------------------------------------
    def now_ns(self) -> int:
        """Parent-clock timestamp relative to the epoch."""
        return time.monotonic_ns() - self.epoch_ns

    def record(
        self,
        tid: int,
        statement: str,
        worker: int,
        start_ns: int,
        end_ns: int,
        stolen: bool = False,
        pid: int | None = None,
    ) -> None:
        event = TaskEvent(tid, statement, worker, start_ns, end_ns, stolen, pid)
        with self._lock:
            self._events.append(event)

    def queue_sample(self, worker: int, depth: int) -> None:
        with self._lock:
            self._queue.append((self.now_ns(), worker, depth))

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    # -- process-worker calibration ------------------------------------
    def worker_clock(self, pid: int) -> WorkerClock:
        """The calibration record for an OS pid (lane assigned on first use)."""
        with self._lock:
            clock = self._clocks.get(pid)
            if clock is None:
                clock = WorkerClock(pid=pid, worker=len(self._clocks))
                self._clocks[pid] = clock
            return clock

    def record_process_batch(
        self,
        tids: list[int],
        pid: int,
        submit_ns: int,
        recv_ns: int,
        batch_first_ns: int,
        batch_last_ns: int,
        timings: list[tuple[str, int, int]],
    ) -> None:
        """Absorb one completed process batch (raw worker clock values).

        ``timings`` rows are ``(statement, start_ns, end_ns)`` on the
        *worker's* clock; ``batch_first_ns``/``batch_last_ns`` bracket
        the whole batch on that clock.  ``submit_ns``/``recv_ns`` are
        collector-relative parent timestamps of the round-trip.  The
        events are stored raw and rebased in :meth:`trace` once the
        worker's offset interval has absorbed every observation.
        """
        clock = self.worker_clock(pid)
        clock.observe(submit_ns, recv_ns, batch_first_ns, batch_last_ns)
        with self._lock:
            for tid, (statement, start_ns, end_ns) in zip(tids, timings):
                # raw worker clock for now; rebased in trace()
                self._events.append(
                    TaskEvent(
                        tid, statement, clock.worker, start_ns, end_ns,
                        pid=pid,
                    )
                )

    # -- results --------------------------------------------------------
    def trace(self) -> RuntimeTrace:
        """Finalize: rebase process events onto the parent clock."""
        with self._lock:
            events = []
            for e in self._events:
                if e.pid is not None and e.pid in self._clocks:
                    off = self._clocks[e.pid].offset_ns
                    events.append(
                        TaskEvent(
                            e.tid,
                            e.statement,
                            e.worker,
                            e.start_ns - off,
                            e.end_ns - off,
                            e.stolen,
                            e.pid,
                        )
                    )
                else:
                    events.append(e)
            events.sort(key=lambda e: (e.start_ns, e.tid))
            return RuntimeTrace(
                backend=self.backend,
                workers=self.workers,
                epoch_ns=self.epoch_ns,
                events=events,
                queue_depth=list(self._queue),
                clocks=dict(self._clocks),
                counters=dict(self._counters),
            )


#: The active collector is per thread, like span stacks
#: (:mod:`repro.obs.spans`): concurrent runs on an executor pool each
#: see only their own, and interleaved exits restore each thread's own.
_TLS = threading.local()


def current() -> RuntimeCollector | None:
    """This thread's active collector, or ``None`` when collection is off."""
    return getattr(_TLS, "collector", None)


class _Collecting:
    def __init__(self, backend: str, workers: int):
        self._backend = backend
        self._workers = workers

    def __enter__(self) -> RuntimeCollector:
        self._prev = current()
        collector = RuntimeCollector(self._backend, self._workers)
        _TLS.collector = collector
        return collector

    def __exit__(self, *exc) -> bool:
        _TLS.collector = self._prev
        return False


def collecting(backend: str, workers: int) -> _Collecting:
    """``with collecting("threads", 4) as col:`` — activate collection."""
    return _Collecting(backend, workers)
