"""Unified observability layer: spans, runtime events, metrics, profiling.

Six cooperating pieces (see ``docs/observability.md``):

* :mod:`~repro.obs.spans` — hierarchical compile-phase spans with
  Presburger-op attribution; near-zero cost while disabled.
* :mod:`~repro.obs.runtime` — live per-task event collection inside the
  tasking backends, including calibrated clock offsets for worker
  processes.
* :mod:`~repro.obs.metrics` — a counters/gauges/histograms registry
  (bounded-bucket latency histograms with p50/p95/p99 estimates and a
  Prometheus text export) that absorbs the legacy stat records behind
  one stable JSON export.
* :mod:`~repro.obs.profile` — the critical-path profiler joining the
  task DAG, measured timings and the simulator's prediction
  (``repro profile``).
* :mod:`~repro.obs.service` — request-scoped telemetry for the compile
  service: per-request root spans, a rotating JSONL request log, and
  per-verb/per-cache-status latency series.
* :mod:`~repro.obs.live` — ``repro top``, the poll-based terminal live
  monitor over the ``health``/``metrics``/``requests`` verbs.
"""

from .live import TopSnapshot, poll_snapshot, render_top, run_top
from .metrics import (
    Histogram,
    MetricsRegistry,
    absorb_artifact_store,
    absorb_execution,
    absorb_simulation,
    absorb_task_overhead,
    absorb_transform,
    parse_series_key,
)
from .service import RequestLog, RequestTelemetry, request_trace_document
from .runtime import (
    RuntimeCollector,
    RuntimeTrace,
    TaskEvent,
    WorkerClock,
    collecting,
)
from .spans import (
    SpanRecord,
    phase_breakdown,
    recording,
    span,
    spans_to_trace_events,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "RequestLog",
    "RequestTelemetry",
    "RuntimeCollector",
    "RuntimeTrace",
    "SpanRecord",
    "TaskEvent",
    "TopSnapshot",
    "WorkerClock",
    "absorb_artifact_store",
    "absorb_execution",
    "absorb_simulation",
    "absorb_task_overhead",
    "absorb_transform",
    "collecting",
    "parse_series_key",
    "phase_breakdown",
    "poll_snapshot",
    "recording",
    "render_top",
    "request_trace_document",
    "run_top",
    "span",
    "spans_to_trace_events",
]
