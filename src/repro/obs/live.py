"""``repro top`` — a terminal live monitor for a running compile service.

Client-side and poll-based: each tick issues the ``health``, ``metrics``
and ``requests`` verbs over the ordinary serve protocol (no server-side
push machinery, no curses — a plain ANSI home-and-clear redraw), then
renders:

* rolling request rate (from counter deltas between polls) and error
  rate,
* latency p50/p95/p99 per verb and per cache status (estimated from the
  server's bounded-bucket histograms),
* cache effectiveness (warm/cold/inflight/direct request mix, how many
  of the warm answers were resident hits, hit rate),
* the last N requests (id, verb, status, tier, wall, outcome; tier
  ``memory`` marks a warm answer served from the resident kernel
  rather than from disk).

Everything below the polling loop is pure: :func:`render_top` maps two
snapshots to a string, which is what the tests (and ``--once``) drive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from .metrics import parse_series_key

__all__ = ["TopSnapshot", "poll_snapshot", "render_top", "run_top"]

#: Statuses a compile/run answer can carry, in display order.
_STATUSES = ("cold", "warm", "inflight", "direct")


@dataclass
class TopSnapshot:
    """One poll of the service's telemetry verbs."""

    t: float  # perf_counter at poll time
    health: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    requests: list[dict] = field(default_factory=list)

    def counter(self, name: str) -> float:
        """Sum of a counter metric over all label combinations."""
        total = 0.0
        for key, value in self.metrics.get("counters", {}).items():
            if parse_series_key(key)[0] == name:
                total += value
        return total

    def status_counts(self) -> dict[str, float]:
        out = {s: 0.0 for s in _STATUSES}
        for key, value in self.metrics.get("counters", {}).items():
            name, labels = parse_series_key(key)
            if name == "serve.status_total" and labels.get("status") in out:
                out[labels["status"]] += value
        return out

    def latency_rows(self) -> list[tuple[str, str, dict]]:
        """(op, status, histogram-dict) rows, plain per-op rows first."""
        rows: list[tuple[str, str, dict]] = []
        for key, hist in self.metrics.get("histograms", {}).items():
            name, labels = parse_series_key(key)
            if name != "serve.latency_ms":
                continue
            rows.append((labels.get("op", "?"), labels.get("status", ""), hist))
        rows.sort(key=lambda r: (r[1] != "", r[0], r[1]))
        return rows


def poll_snapshot(client) -> TopSnapshot:
    """Poll one snapshot from a :class:`~repro.service.client.ServeClient`."""
    health = client.health()
    metrics = client.metrics()
    requests = client.requests()
    return TopSnapshot(
        t=time.perf_counter(),
        health=health if health.get("ok") else {},
        metrics=metrics.get("metrics", {}) if metrics.get("ok") else {},
        requests=(
            requests.get("requests", []) if requests.get("ok") else []
        ),
    )


def _rate(prev: TopSnapshot | None, cur: TopSnapshot, name: str) -> float:
    if prev is None:
        return 0.0
    dt = max(cur.t - prev.t, 1e-9)
    return max(cur.counter(name) - prev.counter(name), 0.0) / dt


def render_top(
    prev: TopSnapshot | None,
    cur: TopSnapshot,
    rows: int = 10,
    width: int = 78,
) -> str:
    """Render one monitor frame from the latest two snapshots."""
    health = cur.health
    lines: list[str] = []
    uptime = health.get("uptime_s", 0.0)
    lines.append(
        f"repro top — uptime {uptime:8.1f}s   "
        f"in-flight {health.get('inflight', 0):3}   "
        f"requests {int(health.get('requests_total', 0)):6}   "
        f"errors {int(health.get('errors_total', 0)):4}"
    )
    rps = _rate(prev, cur, "serve.requests_total")
    eps = _rate(prev, cur, "serve.errors_total")
    lines.append(f"rate     {rps:8.2f} req/s   errors {eps:6.2f}/s")

    counts = cur.status_counts()
    answered = sum(counts.values())
    warmish = counts["warm"] + counts["inflight"]
    hit_rate = warmish / answered if answered else 0.0
    resident = health.get("counters", {}).get("resident_hits", 0)
    lines.append(
        "cache    "
        + "  ".join(f"{s} {int(counts[s])}" for s in _STATUSES)
        + f"  resident {resident}   hit-rate {100.0 * hit_rate:5.1f}%"
    )

    lat = cur.latency_rows()
    if lat:
        lines.append("")
        lines.append(
            f"{'verb':<10}{'status':<10}{'count':>7}{'p50 ms':>10}"
            f"{'p95 ms':>10}{'p99 ms':>10}{'max ms':>10}"
        )
        for op, status, hist in lat:
            lines.append(
                f"{op:<10}{status or '-':<10}{hist.get('count', 0):>7}"
                f"{hist.get('p50', 0.0):>10.2f}{hist.get('p95', 0.0):>10.2f}"
                f"{hist.get('p99', 0.0):>10.2f}{hist.get('max', 0.0):>10.2f}"
            )

    recent = cur.requests[-rows:]
    if recent:
        lines.append("")
        lines.append(
            f"{'request':<22}{'verb':<9}{'status':<9}{'tier':<7}"
            f"{'wall ms':>9}  outcome"
        )
        for r in reversed(recent):
            outcome = "ok" if r.get("ok") else (
                r.get("error", "error")[: width - 57]
            )
            lines.append(
                f"{r.get('rid', '?'):<22}{r.get('op', '?'):<9}"
                f"{r.get('status', '-') or '-':<9}"
                f"{r.get('tier', '-'):<7}"
                f"{r.get('wall_ms', 0.0):>9.2f}  {outcome}"
            )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval: float = 1.0,
    iterations: int | None = None,
    rows: int = 10,
    once: bool = False,
    out: Callable[[str], None] = print,
    clear: bool = True,
) -> int:
    """Poll-and-redraw loop (``once=True``: single snapshot, no clear).

    Returns 0 on a clean exit (including Ctrl-C), 1 when the very first
    poll cannot reach the server.
    """
    from ..service.client import ServeClient

    client = ServeClient(host, port, timeout=max(5.0, interval * 4))
    prev: TopSnapshot | None = None
    ticks = 0
    while True:
        try:
            cur = poll_snapshot(client)
        except (ConnectionError, OSError) as exc:
            if prev is None:
                out(f"repro top: cannot reach {host}:{port} ({exc})")
                return 1
            out(f"repro top: lost connection to {host}:{port} ({exc})")
            return 0
        frame = render_top(prev, cur, rows=rows)
        if once:
            out(frame)
            return 0
        if clear:
            out("\x1b[2J\x1b[H" + frame)
        else:
            out(frame)
        prev = cur
        ticks += 1
        if iterations is not None and ticks >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
