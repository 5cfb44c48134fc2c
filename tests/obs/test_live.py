"""``repro top``: snapshot parsing and the pure frame renderer."""

from __future__ import annotations

from repro.obs.live import TopSnapshot, _rate, render_top, run_top
from repro.obs.metrics import MetricsRegistry


def _snapshot(t=0.0, requests=None, **counters):
    reg = MetricsRegistry()
    reg.counter("serve.requests_total", counters.pop("total", 0), op="compile")
    for status, n in counters.items():
        reg.counter("serve.status_total", n, status=status)
        for _ in range(n):
            reg.histogram(
                "serve.latency_ms", 10.0, op="compile", status=status
            )
            reg.histogram("serve.latency_ms", 10.0, op="compile")
    return TopSnapshot(
        t=t,
        health={
            "ok": True,
            "uptime_s": 12.5,
            "inflight": 1,
            "requests_total": counters.get("total", 0),
            "errors_total": 0,
        },
        metrics=reg.as_dict(),
        requests=list(requests or []),
    )


class TestSnapshot:
    def test_counter_sums_over_labels(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests_total", 2, op="compile")
        reg.counter("serve.requests_total", 3, op="run")
        snap = TopSnapshot(t=0.0, metrics=reg.as_dict())
        assert snap.counter("serve.requests_total") == 5

    def test_status_counts(self):
        snap = _snapshot(cold=2, warm=5)
        counts = snap.status_counts()
        assert counts["cold"] == 2 and counts["warm"] == 5
        assert counts["inflight"] == 0 and counts["direct"] == 0

    def test_latency_rows_plain_before_labeled(self):
        snap = _snapshot(cold=1, warm=1)
        rows = snap.latency_rows()
        assert rows[0][1] == ""  # per-op row first
        labeled = [(op, st) for op, st, _ in rows[1:]]
        assert ("compile", "cold") in labeled
        assert ("compile", "warm") in labeled


class TestRate:
    def test_counter_delta_over_dt(self):
        a = _snapshot(t=0.0, total=10)
        b = _snapshot(t=2.0, total=30)
        assert _rate(a, b, "serve.requests_total") == 10.0

    def test_no_previous_snapshot_is_zero(self):
        assert _rate(None, _snapshot(total=5), "serve.requests_total") == 0.0

    def test_counter_reset_clamps_to_zero(self):
        a = _snapshot(t=0.0, total=30)
        b = _snapshot(t=1.0, total=10)  # server restarted
        assert _rate(a, b, "serve.requests_total") == 0.0


class TestRender:
    def test_frame_contains_all_sections(self):
        requests = [
            {
                "rid": "r1-1-abc", "op": "compile", "status": "cold",
                "wall_ms": 31.2, "ok": True,
            },
            {
                "rid": "r1-2-def", "op": "run", "status": "warm",
                "wall_ms": 8.8, "ok": False, "error": "boom",
            },
        ]
        frame = render_top(
            _snapshot(t=0.0, total=5, cold=1, warm=4),
            _snapshot(t=1.0, total=9, cold=1, warm=8, requests=requests),
        )
        assert "uptime" in frame and "req/s" in frame
        assert "hit-rate" in frame
        assert "p50 ms" in frame and "p99 ms" in frame
        assert "r1-1-abc" in frame and "r1-2-def" in frame
        assert "boom" in frame  # failed request shows its error

    def test_hit_rate_counts_warm_and_inflight(self):
        frame = render_top(None, _snapshot(cold=1, warm=2, inflight=1))
        assert "hit-rate  75.0%" in frame

    def test_resident_hits_and_tier_are_shown(self):
        snap = _snapshot(
            cold=1, warm=3,
            requests=[
                {"rid": "r-disk", "op": "compile", "status": "warm",
                 "wall_ms": 30.0, "ok": True},
                {"rid": "r-mem", "op": "compile", "status": "warm",
                 "tier": "memory", "wall_ms": 0.2, "ok": True},
            ],
        )
        snap.health["counters"] = {"resident_hits": 2}
        lines = render_top(None, snap).splitlines()
        cache = next(ln for ln in lines if ln.startswith("cache"))
        assert "warm 3" in cache and "resident 2" in cache
        assert "memory" in next(ln for ln in lines if "r-mem" in ln)
        assert "memory" not in next(ln for ln in lines if "r-disk" in ln)

    def test_empty_snapshot_renders(self):
        frame = render_top(None, TopSnapshot(t=0.0))
        assert "repro top" in frame

    def test_recent_rows_limited_and_newest_first(self):
        requests = [
            {"rid": f"r{i}", "op": "ping", "wall_ms": 0.1, "ok": True}
            for i in range(20)
        ]
        frame = render_top(
            None, _snapshot(requests=requests), rows=3
        )
        assert "r19" in frame and "r17" in frame
        assert "r16" not in frame
        # newest on top
        assert frame.index("r19") < frame.index("r18")


class TestRunTop:
    def test_unreachable_server_returns_one(self):
        messages = []
        code = run_top(
            "127.0.0.1", 1, interval=0.01, out=messages.append
        )
        assert code == 1
        assert any("cannot reach" in m for m in messages)
