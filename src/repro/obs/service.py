"""Request-scoped telemetry for the compile service.

PR 5's spans and metrics were built for one-shot batch runs: everything
lives and dies inside a single CLI invocation.  ``repro serve`` is a
long-lived process answering concurrent requests, which needs three
things the batch layer lacks:

* **request identity** — every request gets an id (client-proposed or
  server-assigned) that a per-request *root span* carries, so the
  existing span tree (``service.compile`` → ``store.get``/``put`` →
  compile phases → ``serve.run`` → ``exec.*``) nests under one request
  and can be exported as a standalone Perfetto trace — which, being
  their only consumer, is also what turns a run's task events into
  ``task.<stmt>`` spans (:attr:`_Request.traced`);
* **steady-state metrics** — per-verb and per-cache-status latency
  histograms (bounded buckets, so memory is constant for any uptime),
  an in-flight gauge, hit-rate and error counters, all exportable as
  Prometheus text;
* **a request log** — one structured JSONL line per request (id, kernel
  key, status, queue wait, compile/run time, bytes, outcome) in a
  size-rotated file, plus an in-memory ring of recent requests that the
  ``requests`` verb and ``repro top`` read live.

The mechanism for cross-thread span nesting: the event loop *allocates*
a root span id per request (it cannot *open* the span — concurrent
requests interleave on the loop thread and would nest under each
other), worker threads adopt it with :func:`repro.obs.spans.parented`,
and the root record itself is emitted at request end, after which the
whole subtree is drained from the global buffer
(:func:`repro.obs.spans.take_tree`) — bounded memory again.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from typing import Any, Iterable

from . import spans as obs_spans
from .metrics import MetricsRegistry
from .spans import SpanRecord, spans_to_trace_events

__all__ = [
    "RequestLog",
    "RequestTelemetry",
    "make_request_id",
    "request_trace_document",
    "runtime_events_to_spans",
]

#: Sweep interval (in finished requests) for orphan spans recorded
#: outside any request tree (store gc, background work).
_PRUNE_EVERY = 64

#: Orphan spans younger than this survive a sweep (they may belong to
#: work that is about to be adopted by a request).
_PRUNE_AGE_NS = 60 * 1_000_000_000

#: Cap of runtime task events replayed into a single request trace.
_MAX_EVENT_SPANS = 512


#: A client-proposed request id is adopted only in this shape: it names
#: a trace file (``request-<rid>.json``), so it must not carry path
#: separators, and it is echoed into logs and metrics.
_CLIENT_RID = re.compile(r"[A-Za-z0-9_-]{1,64}")


def make_request_id(counter: int) -> str:
    """``r<pid>-<counter>-<entropy>`` — unique across server restarts."""
    return "r%x-%x-%s" % (os.getpid(), counter, os.urandom(3).hex())


class RequestLog:
    """Size-rotated JSONL request log.

    ``append`` writes one compact JSON object per line and rotates the
    file to ``<path>.1`` when it would exceed ``max_bytes`` — a
    long-lived server keeps at most two generations on disk.  Writes
    are line-buffered and locked; entries are self-describing, so the
    log concatenates cleanly across rotations and restarts.
    """

    def __init__(self, path: str, max_bytes: int = 4 << 20):
        self.path = path
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, entry: dict) -> None:
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock:
            if self._fh.tell() + len(line) > self.max_bytes:
                self._rotate()
            self._fh.write(line)
            self._fh.flush()

    def _rotate(self) -> None:
        self._fh.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError:
            pass
        self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except Exception:
                pass


def runtime_events_to_spans(
    trace, parent_id: int, origin_ns: int
) -> list[SpanRecord]:
    """Replay a :class:`~repro.obs.runtime.RuntimeTrace` as span records
    parented under ``parent_id``.

    Task-event timestamps are collector-epoch-relative; ``origin_ns``
    (the collector's epoch on the monotonic clock) rebases them onto the
    span clock so they nest correctly inside the request trace.  Capped
    at ``_MAX_EVENT_SPANS`` events to bound per-request trace size.
    """
    out: list[SpanRecord] = []
    for e in trace.events[:_MAX_EVENT_SPANS]:
        attrs: dict[str, Any] = {"task": e.tid}
        if e.stolen:
            attrs["stolen"] = True
        if e.pid is not None:
            attrs["os_pid"] = e.pid
        out.append(
            SpanRecord(
                span_id=obs_spans.allocate_span_id(),
                parent_id=parent_id,
                name=f"task.{e.statement}",
                start_ns=origin_ns + e.start_ns,
                end_ns=origin_ns + max(e.end_ns, e.start_ns),
                thread=f"{trace.backend}-worker-{e.worker}",
                attrs=attrs,
            )
        )
    return out


def request_trace_document(
    rid: str, records: Iterable[SpanRecord], entry: dict | None = None
) -> dict:
    """A standalone Chrome/Perfetto document for one request's spans."""
    records = list(records)
    doc: dict[str, Any] = {
        "traceEvents": spans_to_trace_events(records, pid=1),
        "displayTimeUnit": "ms",
        "otherData": {"request_id": rid},
    }
    if entry is not None:
        doc["otherData"]["request"] = dict(entry)
    return doc


class _Request:
    """Handle for one in-flight request; produced by
    :meth:`RequestTelemetry.begin`, closed by :meth:`finish`."""

    __slots__ = (
        "telemetry", "rid", "op", "root_id", "start_ns",
        "t0", "fields", "extra_spans",
    )

    def __init__(self, telemetry: "RequestTelemetry", rid: str, op: str):
        self.telemetry = telemetry
        self.rid = rid
        self.op = op
        self.root_id = (
            obs_spans.allocate_span_id() if obs_spans.enabled() else 0
        )
        self.start_ns = time.monotonic_ns()
        self.t0 = time.perf_counter()
        #: structured fields merged into the log entry (key, status,
        #: queue_wait_ms, compile_ms, run_ms, bytes_in/out, ...)
        self.fields: dict[str, Any] = {}
        #: replayed runtime-event spans attached before finish
        self.extra_spans: list[SpanRecord] = []

    def set(self, **fields) -> "_Request":
        self.fields.update(
            {k: v for k, v in fields.items() if v is not None}
        )
        return self

    @property
    def traced(self) -> bool:
        """Whether this request's span tree is written out as a trace
        document — the one consumer of per-task spans; the request row
        only needs their count."""
        return bool(self.root_id and self.telemetry.trace_dir)

    def attach_runtime(self, trace, parent_id: int | None = None) -> None:
        """Replay a RuntimeTrace's task events into this request's tree."""
        if self.traced and trace is not None and trace.events:
            self.extra_spans.extend(
                runtime_events_to_spans(
                    trace,
                    parent_id or self.root_id,
                    trace.epoch_ns,
                )
            )

    def finish(self, ok: bool, error: str | None = None) -> dict:
        return self.telemetry._finish(self, ok, error)


class RequestTelemetry:
    """Per-request telemetry shared by one serving process."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        log_path: str | None = None,
        trace_dir: str | None = None,
        recent: int = 64,
    ):
        self.registry = registry if registry is not None else (
            MetricsRegistry()
        )
        self.log = RequestLog(log_path) if log_path else None
        self.trace_dir = trace_dir
        if trace_dir:
            os.makedirs(trace_dir, exist_ok=True)
        self.recent: deque[dict] = deque(maxlen=max(1, recent))
        self.started_at = time.time()
        self.started_ns = time.monotonic_ns()
        self._lock = threading.Lock()
        self._seq = 0
        self._inflight: dict[int, str] = {}  # root span id -> rid
        self._finished = 0

    # ------------------------------------------------------------------
    def begin(self, op: str, rid: object = None) -> _Request:
        """Open a request; ``rid`` is whatever the client sent and is
        replaced by a server-assigned id unless it is well-formed."""
        with self._lock:
            self._seq += 1
            seq = self._seq
        if not (isinstance(rid, str) and _CLIENT_RID.fullmatch(rid)):
            rid = make_request_id(seq)
        req = _Request(self, rid, op)
        with self._lock:
            if req.root_id:
                self._inflight[req.root_id] = req.rid
        self.registry.gauge("serve.inflight", len(self._inflight))
        return req

    def _finish(self, req: _Request, ok: bool, error: str | None) -> dict:
        wall_ms = (time.perf_counter() - req.t0) * 1e3
        end_ns = time.monotonic_ns()
        reg = self.registry

        tree: list[SpanRecord] = []
        if req.root_id:
            obs_spans.emit(
                "serve.request",
                req.start_ns,
                end_ns,
                span_id=req.root_id,
                parent_id=0,
                rid=req.rid,
                op=req.op,
                status=req.fields.get("status"),
                ok=ok,
            )
            for rec in req.extra_spans:
                obs_spans.emit(
                    rec.name,
                    rec.start_ns,
                    rec.end_ns,
                    span_id=rec.span_id,
                    parent_id=rec.parent_id,
                    thread=rec.thread,
                    **rec.attrs,
                )
            tree = obs_spans.take_tree(req.root_id)
            with self._lock:
                self._inflight.pop(req.root_id, None)
                self._finished += 1
                sweep = self._finished % _PRUNE_EVERY == 0
                keep = set(self._inflight)
            if sweep:
                obs_spans.prune(keep, end_ns - _PRUNE_AGE_NS)
        else:
            with self._lock:
                self._finished += 1

        entry: dict[str, Any] = {
            "rid": req.rid,
            "op": req.op,
            "ts": round(time.time(), 3),
            "ok": bool(ok),
            "wall_ms": round(wall_ms, 3),
            "spans": len(tree),
        }
        if tree:
            entry["span_names"] = sorted({r.name for r in tree})
        if error:
            entry["error"] = error
        entry.update(req.fields)

        # -- metrics -----------------------------------------------------
        status = req.fields.get("status")
        reg.counter("serve.requests_total", 1, op=req.op)
        reg.histogram("serve.latency_ms", wall_ms, op=req.op)
        if status:
            reg.counter("serve.status_total", 1, status=status)
            reg.histogram(
                "serve.latency_ms", wall_ms, op=req.op, status=status
            )
        if not ok:
            reg.counter("serve.errors_total", 1, op=req.op)
        for field, metric in (
            ("queue_wait_ms", "serve.queue_wait_ms"),
            ("compile_ms", "serve.compile_ms"),
            ("run_ms", "serve.run_ms"),
        ):
            value = req.fields.get(field)
            if value is not None:
                labels = {"status": status} if status else {}
                reg.histogram(metric, float(value), **labels)
        for field in ("bytes_in", "bytes_out"):
            value = req.fields.get(field)
            if value is not None:
                reg.counter(f"serve.{field}_total", int(value))
        reg.gauge("serve.inflight", len(self._inflight))

        self.recent.append(entry)
        if self.log is not None:
            self.log.append(entry)
        if self.trace_dir and tree:
            self._write_trace(req.rid, tree, entry)
        return entry

    def _write_trace(
        self, rid: str, tree: list[SpanRecord], entry: dict
    ) -> None:
        path = os.path.join(self.trace_dir, f"request-{rid}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(request_trace_document(rid, tree, entry), fh)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def uptime_s(self) -> float:
        return (time.monotonic_ns() - self.started_ns) / 1e9

    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def requests(self, n: int | None = None) -> list[dict]:
        """The last ``n`` finished requests, oldest first."""
        with self._lock:
            rows = list(self.recent)
        if n is not None:
            rows = rows[-max(0, int(n)):]
        return rows

    def health(self) -> dict[str, Any]:
        reg = self.registry
        total = 0.0
        errors = 0.0
        doc = reg.as_dict()
        for key, value in doc["counters"].items():
            if key.startswith("serve.requests_total"):
                total += value
            elif key.startswith("serve.errors_total"):
                errors += value
        return {
            "ok": True,
            "uptime_s": round(self.uptime_s(), 3),
            "started_at": self.started_at,
            "inflight": self.inflight(),
            "requests_total": total,
            "errors_total": errors,
        }

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
