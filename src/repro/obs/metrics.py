"""Metrics registry: counters, gauges and histograms with labeled series.

Before this module the repository's statistics lived in unrelated
records, each with its own shape and lifecycle:

* :class:`repro.interp.executor.ExecutionStats` — measured runs,
* the task-overhead record (:func:`task_graph_stats`), and
* :class:`repro.tasking.simulator.SimResult`.

The registry absorbs them behind one interface (the ``absorb_*``
functions) without changing a single number: each legacy value becomes a
labeled series like ``task_graph.tasks`` or
``execution.wall_time_s{backend=processes}``.  The JSON export is
*stable* — series sorted by name then labels, labels serialized
``name{k=v,k2=v2}`` — so artifacts diff cleanly across runs and CI can
upload them verbatim.

A registry is an ordinary object: each caller creates its own.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "absorb_artifact_store",
    "absorb_execution",
    "absorb_simulation",
    "absorb_task_overhead",
    "absorb_transform",
    "parse_series_key",
    "series_key",
    "task_graph_stats",
]


def series_key(name: str, labels: Mapping[str, Any]) -> str:
    """Stable text key: ``name`` or ``name{k=v,k2=v2}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`series_key` (label values come back as text)."""
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    labels: dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


#: Fixed log-spaced bucket upper bounds: three per decade over
#: 1e-9 .. 1e9 (55 finite buckets + one overflow).  The ladder covers
#: nanoseconds-to-gigaseconds regardless of the observed unit, so a
#: histogram's memory is **constant for any uptime** — the property the
#: long-lived serve path depends on.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (k / 3.0) for k in range(-27, 28)
)


def _bucket_index(value: float) -> int:
    """Index of the first bound >= value (len(BUCKET_BOUNDS) = overflow)."""
    if value <= BUCKET_BOUNDS[0]:
        return 0
    # log-position, then correct for float rounding at the boundaries
    idx = int(math.ceil(3.0 * math.log10(value))) + 27
    if idx < 0:
        return 0
    if idx >= len(BUCKET_BOUNDS):
        return len(BUCKET_BOUNDS)
    while idx > 0 and value <= BUCKET_BOUNDS[idx - 1]:
        idx -= 1
    while idx < len(BUCKET_BOUNDS) and value > BUCKET_BOUNDS[idx]:
        idx += 1
    return idx


@dataclass
class Histogram:
    """Bounded summary of observed values: exact count/sum/min/max plus
    fixed log-spaced buckets for quantile estimates.

    No per-observation storage — observing the billionth value costs the
    same memory as the first, which is what a metrics registry inside a
    long-uptime server requires.  Quantiles are estimated by log-linear
    interpolation inside the covering bucket and clamped to the exact
    observed ``[min, max]``, so the relative error is bounded by the
    bucket ratio (one third of a decade, ~2.15x worst case, far less
    for clustered latencies).
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    buckets: list[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.buckets is None:
            self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.buckets[_bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) from the buckets."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if not n:
                continue
            if seen + n >= rank:
                hi = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else self.maximum
                )
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
                frac = (rank - seen) / n
                est = lo + (hi - lo) * frac
                return min(max(est, self.minimum), self.maximum)
            seen += n
        return self.maximum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` rows with trailing empty
        buckets elided (Prometheus ``le`` series; +Inf is implicit as
        :attr:`count`)."""
        rows: list[tuple[float, int]] = []
        seen = 0
        for i, n in enumerate(self.buckets[: len(BUCKET_BOUNDS)]):
            seen += n
            rows.append((BUCKET_BOUNDS[i], seen))
        while len(rows) > 1 and rows[-1][1] == rows[-2][1] == self.count:
            rows.pop()
        while len(rows) > 1 and rows[0][1] == 0 and rows[1][1] == 0:
            rows.pop(0)
        return rows

    def as_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Thread-safe labeled counters/gauges/histograms with JSON export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, Any] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` (default 1) to a monotonic counter series."""
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value, **labels) -> None:
        """Set a gauge series to ``value`` (any JSON-serializable)."""
        key = series_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def histogram(self, name: str, value: float, **labels) -> None:
        """Observe ``value`` in a histogram series."""
        key = series_key(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------
    def value(self, name: str, **labels):
        """Current value of a counter or gauge series (None if absent)."""
        key = series_key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key)

    def histogram_stats(self, name: str, **labels) -> Histogram | None:
        with self._lock:
            return self._histograms.get(series_key(name, labels))

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Stable JSON-ready export (series sorted by key)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    key: hist.as_dict()
                    for key, hist in sorted(self._histograms.items())
                },
            }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def format(self, prefix: str | None = None) -> str:
        """Human-readable dump; ``prefix`` filters series by name."""
        doc = self.as_dict()
        lines: list[str] = []
        for kind in ("counters", "gauges"):
            for key, value in doc[kind].items():
                if prefix and not key.startswith(prefix):
                    continue
                if isinstance(value, float):
                    value = f"{value:g}"
                lines.append(f"  {key} = {value}")
        for key, hist in doc["histograms"].items():
            if prefix and not key.startswith(prefix):
                continue
            lines.append(
                f"  {key} = count={hist['count']} mean={hist['mean']:g} "
                f"min={hist['min']:g} max={hist['max']:g}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def export_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition of every numeric series.

        Counters export as ``counter``, numeric/bool gauges as ``gauge``
        (non-numeric gauges are skipped — Prometheus has no text
        samples), histograms as cumulative ``_bucket{le=...}`` series
        plus ``_sum``/``_count`` *and* p50/p95/p99 ``quantile`` series
        estimated from the fixed buckets.  Names are sanitized to the
        Prometheus charset (``serve.latency_ms`` →
        ``repro_serve_latency_ms``); output is sorted and stable.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                key: Histogram(
                    count=h.count,
                    total=h.total,
                    minimum=h.minimum,
                    maximum=h.maximum,
                    buckets=list(h.buckets),
                )
                for key, h in self._histograms.items()
            }

        def metric_name(name: str) -> str:
            import re

            return prefix + re.sub(r"[^a-zA-Z0-9_:]", "_", name)

        def label_text(labels: Mapping[str, str], extra: str = "") -> str:
            parts = [
                f'{k}="{v}"' for k, v in sorted(labels.items())
            ]
            if extra:
                parts.append(extra)
            return "{" + ",".join(parts) + "}" if parts else ""

        def fmt(value: float) -> str:
            if isinstance(value, bool):
                return "1" if value else "0"
            if value == int(value):
                return str(int(value))
            return repr(float(value))

        lines: list[str] = []
        typed: set[str] = set()

        def type_line(mname: str, kind: str) -> None:
            if mname not in typed:
                typed.add(mname)
                lines.append(f"# TYPE {mname} {kind}")

        for key in sorted(counters):
            name, labels = parse_series_key(key)
            mname = metric_name(name)
            type_line(mname, "counter")
            lines.append(f"{mname}{label_text(labels)} {fmt(counters[key])}")
        for key in sorted(gauges):
            value = gauges[key]
            if not isinstance(value, (int, float, bool)):
                continue
            name, labels = parse_series_key(key)
            mname = metric_name(name)
            type_line(mname, "gauge")
            lines.append(f"{mname}{label_text(labels)} {fmt(value)}")
        for key in sorted(histograms):
            hist = histograms[key]
            name, labels = parse_series_key(key)
            mname = metric_name(name)
            type_line(mname, "histogram")
            for bound, cum in hist.cumulative_buckets():
                le = 'le="%g"' % bound
                lines.append(f"{mname}_bucket{label_text(labels, le)} {cum}")
            inf = 'le="+Inf"'
            lines.append(
                f"{mname}_bucket{label_text(labels, inf)} {hist.count}"
            )
            lines.append(f"{mname}_sum{label_text(labels)} {fmt(hist.total)}")
            lines.append(f"{mname}_count{label_text(labels)} {hist.count}")
            for q in (0.5, 0.95, 0.99):
                quant = 'quantile="%g"' % q
                lines.append(
                    f"{mname}{label_text(labels, quant)} "
                    f"{fmt(hist.quantile(q))}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# absorbers for the legacy stat families
# ----------------------------------------------------------------------
def absorb_artifact_store(
    reg: MetricsRegistry, counters=None, store=None
) -> None:
    """Absorb the artifact-store cache counters.

    ``counters=None`` snapshots the process-wide session counters (every
    :class:`repro.store.ArtifactStore` in this process, aggregated);
    ``store`` additionally records that store's disk occupancy.
    """
    if counters is None:
        from ..store import session_counters

        counters = session_counters()
    for name in ("hits", "misses", "puts", "evictions", "corrupt"):
        reg.counter(f"store.{name}", counters.get(name, 0))
    reg.counter(
        "store.replay_failures", counters.get("replay_failures", 0)
    )
    looked = counters.get("hits", 0) + counters.get("misses", 0)
    if looked:
        reg.gauge(
            "store.hit_rate", round(counters.get("hits", 0) / looked, 4)
        )
    if store is not None:
        st = store.stats()
        reg.gauge("store.entries", st.entries)
        reg.gauge("store.bytes", st.bytes)


def absorb_execution(reg: MetricsRegistry, stats) -> None:
    """Absorb an :class:`repro.interp.executor.ExecutionStats` record."""
    labels = {"backend": stats.backend}
    reg.gauge("execution.workers", stats.workers, **labels)
    reg.gauge("execution.fuse", stats.fuse, **labels)
    reg.gauge("execution.wall_time_s", stats.wall_time, **labels)
    reg.gauge("execution.blocks_total", stats.blocks_total, **labels)
    reg.gauge("execution.blocks_fused", stats.blocks_fused, **labels)
    reg.gauge(
        "execution.iterations_total", stats.iterations_total, **labels
    )
    reg.gauge(
        "execution.iterations_fused", stats.iterations_fused, **labels
    )
    reg.gauge(
        "execution.fused_iteration_coverage",
        round(stats.fused_iteration_coverage, 4),
        **labels,
    )
    for stmt, refusal in sorted(stats.fused_fallback.items()):
        reg.gauge(
            "execution.fused_fallback",
            refusal["reason"],
            statement=stmt,
            code=refusal["code"],
            **labels,
        )
    if stats.scheduler:
        for key, value in sorted(stats.scheduler.items()):
            if isinstance(value, (int, float)):
                reg.gauge(f"execution.scheduler.{key}", value, **labels)
            else:
                reg.gauge(f"execution.scheduler.{key}", str(value), **labels)
    events = getattr(stats, "events", None)
    if events is not None:
        reg.gauge("execution.events", len(events.events), **labels)
        reg.gauge(
            "execution.measured_makespan_s",
            round(events.makespan_ns / 1e9, 6),
            **labels,
        )


def task_graph_stats(graph) -> dict:
    """Shape of a checked task graph (join tasks and relaxed chains as
    they are): tasks, edges, the critical-path length in tasks, and its
    depend-in slots — the edges between two statements' tasks — before
    and after :func:`~repro.tasking.dispatch.transitive_reduction`,
    the pass every lowered plan's schedule goes through.
    """
    from ..tasking.dispatch import latest_first, transitive_reduction

    stmt = graph.statement_ids.tolist()

    def slots(preds) -> int:
        return sum(
            stmt[p] != stmt[t] for t, ps in enumerate(preds) for p in ps
        )

    before = slots(graph.preds)
    after = slots(transitive_reduction(latest_first(graph.preds)))
    depth, _, _ = graph.longest_paths([1] * len(graph))
    return {
        "tasks": len(graph),
        "edges": graph.num_edges,
        "depend_in_slots": before,
        "depend_in_slots_reduced": after,
        "reduction_ratio": (
            round((before - after) / before, 4) if before else 0.0
        ),
        "critical_path_tasks": max(depth, default=0),
    }


def absorb_task_overhead(
    reg: MetricsRegistry, task_graph: Mapping[str, Any] | None = None
) -> None:
    """Absorb the task-overhead family: the dict of
    :func:`task_graph_stats` as ``task_graph.*`` gauges (optional)."""
    if task_graph is not None:
        for key, value in task_graph.items():
            if isinstance(value, (int, float)):
                reg.gauge(f"task_graph.{key}", value)


def absorb_simulation(reg: MetricsRegistry, sim, graph=None) -> None:
    """Absorb a :class:`repro.tasking.simulator.SimResult`."""
    labels = {"policy": sim.policy}
    reg.gauge("simulation.makespan", sim.makespan, **labels)
    reg.gauge("simulation.workers", sim.workers, **labels)
    reg.gauge(
        "simulation.utilization", round(sim.utilization(), 4), **labels
    )
    if graph is not None:
        reg.gauge("simulation.tasks", len(graph), **labels)
        total = graph.total_cost()
        reg.gauge("simulation.total_cost", total, **labels)
        if sim.makespan:
            reg.gauge(
                "simulation.speedup",
                round(total / sim.makespan, 4),
                **labels,
            )


def absorb_transform(reg: MetricsRegistry, result) -> None:
    """Absorb everything one :class:`repro.driver.TransformResult`
    measured: the simulation and task-overhead families, plus measured
    execution when a backend was asked for."""
    absorb_simulation(reg, result.simulation, result.graph)
    absorb_task_overhead(reg, task_graph=task_graph_stats(result.graph))
    if result.execution is not None:
        absorb_execution(reg, result.execution)
