"""Hierarchical compile-phase spans.

A *span* wraps one phase of the compilation pipeline — parse, SCoP
extraction, dependence analysis, pipeline-map construction, blocking,
schedule-tree building, lowering, codegen — and records its
wall time, nesting and thread.  Instrumentation sites call::

    with span("pipeline.maps"):
        ...

unconditionally; when recording is *disabled* (the default) ``span()``
returns a shared no-op context manager and the cost is one module-level
flag test plus an attribute lookup — cheap enough to leave in every hot
call site.  An untraced plan replay enters one span at any row count
(counted by
``tests/interp/test_plan.py::test_untraced_replay_enters_one_span_and_one_collector_lookup``;
the ledger's ``obs.trace_overhead_pct`` row holds the wall).

When recording is enabled (``enable()`` or the :func:`recording` context
manager), each span captures:

* ``start_ns`` / ``end_ns`` on :func:`time.monotonic_ns`,
* its parent span (a thread-local stack gives nesting for free),
* the recording thread (so spans from worker threads land in their own
  trace lane), and
* **Presburger-op attribution**: the delta of
  :func:`repro.presburger.cache.op_call_counts` across the span, i.e.
  how many ``intersect`` / ``lexmax`` / ``after`` / … computations ran
  inside this phase.  This is what turns a phase-time breakdown into an
  explanation — the dependence phase is slow *because* of 12k
  ``intersect`` calls, not by fiat.

Spans are process-local; worker processes of the tasking layer report
runtime events through :mod:`repro.obs.runtime` instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "SpanRecord",
    "allocate_span_id",
    "clear",
    "current_span_id",
    "disable",
    "emit",
    "enable",
    "enabled",
    "parented",
    "prune",
    "records",
    "recording",
    "span",
    "spans_to_trace_events",
    "take_tree",
]

#: Module-level fast flag — the *only* cost of a disabled span() call
#: besides allocating nothing (the no-op manager is a singleton).
_ENABLED = False

_LOCK = threading.Lock()
_RECORDS: list["SpanRecord"] = []
_TLS = threading.local()
_NEXT_ID = [1]


@dataclass(frozen=True)
class SpanRecord:
    """One closed span."""

    span_id: int
    parent_id: int  # 0 = top level
    name: str
    start_ns: int
    end_ns: int
    thread: str
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Presburger op name -> calls attributed to this span (delta of the
    #: cache counters across the span, children included).
    presburger_ops: dict[str, int] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "thread": self.thread,
            "attrs": dict(self.attrs),
            "presburger_ops": dict(self.presburger_ops),
        }


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL = _NullSpan()


def _op_calls() -> dict[str, int] | None:
    """Current Presburger op-call counters (None if unavailable)."""
    try:
        from ..presburger.cache import op_call_counts
    except Exception:  # pragma: no cover — presburger always importable
        return None
    return op_call_counts()


class _Span:
    """A live (recording) span; created only when recording is enabled."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start", "_ops0")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        with _LOCK:
            self.span_id = _NEXT_ID[0]
            _NEXT_ID[0] += 1
        self.parent_id = stack[-1] if stack else 0
        stack.append(self.span_id)
        self._ops0 = _op_calls()
        self._start = time.monotonic_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.monotonic_ns()
        ops1 = _op_calls()
        delta: dict[str, int] = {}
        if self._ops0 is not None and ops1 is not None:
            for op, calls in ops1.items():
                d = calls - self._ops0.get(op, 0)
                if d:
                    delta[op] = d
        stack = _TLS.stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_ns=self._start,
            end_ns=end,
            thread=threading.current_thread().name,
            attrs=self.attrs,
            presburger_ops=delta,
        )
        with _LOCK:
            _RECORDS.append(record)
        return False


def span(name: str, **attrs):
    """Open a (possibly no-op) span named ``name``.

    Returns a context manager.  ``attrs`` become span attributes; more
    can be attached inside the block via ``.set(key=value)``.
    """
    if not _ENABLED:
        return _NULL
    return _Span(name, attrs)


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def clear() -> None:
    """Drop all recorded spans (does not change the enabled flag)."""
    with _LOCK:
        _RECORDS.clear()


def records() -> list[SpanRecord]:
    """Snapshot of all closed spans, in completion order."""
    with _LOCK:
        return list(_RECORDS)


def current_span_id() -> int:
    """Id of the innermost open span on this thread (0 at top level)."""
    stack = getattr(_TLS, "stack", None)
    return stack[-1] if stack else 0


def allocate_span_id() -> int:
    """Reserve a span id without opening a span.

    The serve path uses this for per-request *root* spans: the id is
    handed to worker threads (via :func:`parented`) while the request is
    in flight, and the root record itself is emitted at request end with
    :func:`emit` — opening a context-managed span on the event loop
    thread would let concurrent requests nest under each other.
    """
    with _LOCK:
        span_id = _NEXT_ID[0]
        _NEXT_ID[0] += 1
    return span_id


def emit(
    name: str,
    start_ns: int,
    end_ns: int,
    span_id: int | None = None,
    parent_id: int = 0,
    thread: str | None = None,
    **attrs,
) -> int:
    """Append a manually-constructed span record (no-op when disabled).

    Returns the record's span id (0 when recording is disabled).  Used
    for spans whose lifetime does not follow stack discipline on one
    thread: per-request roots and replayed runtime task events.
    """
    if not _ENABLED:
        return 0
    if span_id is None:
        span_id = allocate_span_id()
    record = SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start_ns=start_ns,
        end_ns=end_ns,
        thread=thread or threading.current_thread().name,
        attrs=attrs,
    )
    with _LOCK:
        _RECORDS.append(record)
    return span_id


class _Parented:
    """Push an explicit parent id onto this thread's span stack."""

    __slots__ = ("_parent",)

    def __init__(self, parent_id: int):
        self._parent = parent_id

    def __enter__(self) -> "_Parented":
        stack = getattr(_TLS, "stack", None)
        if stack is None:
            stack = _TLS.stack = []
        stack.append(self._parent)
        return self

    def __exit__(self, *exc) -> bool:
        stack = _TLS.stack
        if stack and stack[-1] == self._parent:
            stack.pop()
        return False


def parented(parent_id: int) -> _Parented:
    """``with parented(root_id): ...`` — spans opened in the block (on
    this thread) become children of ``root_id``.  This is how the serve
    path threads a request's root span into the compile/run worker
    threads, whose thread-local stacks start empty."""
    return _Parented(parent_id)


def take_tree(root_id: int) -> list[SpanRecord]:
    """Remove and return every closed span in the subtree of ``root_id``
    (the root record included, when present).

    Children close before their ancestors, so by the time a request's
    root record has been emitted the whole subtree is in the buffer.
    Draining per request is what keeps the global record list bounded
    over a long-lived server.
    """
    with _LOCK:
        ids = {root_id}
        grew = True
        while grew:
            grew = False
            for r in _RECORDS:
                if r.parent_id in ids and r.span_id not in ids:
                    ids.add(r.span_id)
                    grew = True
        taken = [r for r in _RECORDS if r.span_id in ids]
        _RECORDS[:] = [r for r in _RECORDS if r.span_id not in ids]
    return taken


def prune(keep_roots: set[int], before_ns: int) -> int:
    """Drop closed spans that ended before ``before_ns`` and whose
    topmost known ancestor is not anchored in ``keep_roots``.

    A long-lived server drains each request's subtree with
    :func:`take_tree`; spans recorded outside any request (store gc
    sweeps, background work) would otherwise accumulate forever.  Spans
    belonging to an in-flight request are safe: their ancestor chain
    reaches the request's (not-yet-emitted) root id, which the caller
    passes in ``keep_roots``.  Returns how many records were dropped.
    """
    with _LOCK:
        byid = {r.span_id: r for r in _RECORDS}
        keep: list[SpanRecord] = []
        dropped = 0
        for r in _RECORDS:
            cur = r
            seen = {cur.span_id}
            while cur.parent_id in byid and cur.parent_id not in seen:
                cur = byid[cur.parent_id]
                seen.add(cur.span_id)
            anchored = (
                cur.span_id in keep_roots or cur.parent_id in keep_roots
            )
            if anchored or r.end_ns >= before_ns:
                keep.append(r)
            else:
                dropped += 1
        _RECORDS[:] = keep
    return dropped


class _Recording:
    """Context manager enabling span recording and yielding the records."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []

    def __enter__(self) -> "_Recording":
        self._prev = _ENABLED
        with _LOCK:
            self._mark = len(_RECORDS)
        enable()
        return self

    def __exit__(self, *exc) -> bool:
        global _ENABLED
        _ENABLED = self._prev
        with _LOCK:
            self.spans = _RECORDS[self._mark:]
        return False


def recording() -> _Recording:
    """``with recording() as rec:`` — enable spans for the block.

    ``rec.spans`` holds every span closed inside the block; the previous
    enabled/disabled state is restored on exit.
    """
    return _Recording()


def spans_to_trace_events(
    spans: list[SpanRecord],
    pid: int = 1,
    origin_ns: int | None = None,
) -> list[dict[str, Any]]:
    """Chrome trace events (``X`` complete events) for a span list.

    Spans obey stack discipline per thread, so complete events nest
    correctly in Perfetto.  Timestamps are µs relative to ``origin_ns``
    (default: the earliest span start).
    """
    if not spans:
        return []
    if origin_ns is None:
        origin_ns = min(s.start_ns for s in spans)
    threads = sorted({s.thread for s in spans})
    tids = {name: k for k, name in enumerate(threads)}
    events: list[dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": tids[name],
            "args": {"name": name},
        }
        for name in threads
    ]
    for s in spans:
        args: dict[str, Any] = dict(s.attrs)
        if s.presburger_ops:
            args["presburger_ops"] = dict(s.presburger_ops)
            args["presburger_calls"] = sum(s.presburger_ops.values())
        events.append(
            {
                "name": s.name,
                "cat": "compile",
                "ph": "X",
                "ts": (s.start_ns - origin_ns) / 1e3,
                "dur": s.duration_ns / 1e3,
                "pid": pid,
                "tid": tids[s.thread],
                "args": args,
            }
        )
    return events


def phase_breakdown(spans: list[SpanRecord]) -> dict[str, dict[str, Any]]:
    """Aggregate spans by name: total/self time and Presburger calls.

    *Self* time excludes the time covered by direct children, so the sum
    of self times over a well-nested run equals the root wall time.
    """
    children_ns: dict[int, int] = {}
    for s in spans:
        children_ns[s.parent_id] = children_ns.get(s.parent_id, 0) + (
            s.duration_ns
        )
    out: dict[str, dict[str, Any]] = {}
    for s in spans:
        agg = out.setdefault(
            s.name,
            {"count": 0, "total_ns": 0, "self_ns": 0, "presburger_calls": 0},
        )
        agg["count"] += 1
        agg["total_ns"] += s.duration_ns
        agg["self_ns"] += s.duration_ns - children_ns.get(s.span_id, 0)
        agg["presburger_calls"] += sum(s.presburger_ops.values())
    return out
