#!/usr/bin/env python
"""CI smoke for ``repro serve``: start the real CLI server, send two
identical compile requests plus one distinct, and assert the server paid
exactly two compiles — the repeat was answered from the kernel the
process keeps resident (no store read).  Then restart the server on the
same cache directory and assert the disk-warm contract there: the first
request of the key in the new process is a store read, answered
``warm``.

With telemetry (the default), additionally asserts the service-grade
observability contract end to end:

* every request produced a complete span tree — the ``serve.request``
  root parents the service tier (``service.compile``), the store tier
  (``store.get``/``store.put``) and, for a cold compile, the driver's
  compile phases — exported as a per-request Perfetto trace; a resident
  hit's tree is the root alone; three ``run``s of the resident key each
  answer ``match: true`` with per-task ``task.*`` spans in their trace
  (the server runs with a trace dir), and exactly one of them — the
  first — computed the sequential oracle (``serve.oracle``);
* the ``metrics`` verb answers Prometheus text with per-verb and
  per-cache-status latency quantile series;
* a ``repro top`` snapshot renders from live polls.

Artifacts for CI upload (written into ``--artifacts DIR`` when given):
``SMOKE_requests.jsonl`` (the request log) and ``SMOKE_metrics.prom``
(the final Prometheus scrape).

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--artifacts DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.obs.live import render_top, poll_snapshot  # noqa: E402
from repro.service.client import ServeClient  # noqa: E402
from repro.workloads import TABLE9  # noqa: E402

OPTIONS = {"check": False, "verify": False, "workers": 2}


def wait_for_announce(proc: subprocess.Popen, timeout: float = 60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                "repro serve exited before announcing: "
                + (proc.stderr.read() or "")[-2000:]
            )
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match:
            return match.group(1), int(match.group(2))
    raise SystemExit("timed out waiting for the serve announcement")


def start_server(env: dict, store_dir: str, log_path: str, trace_dir: str):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--cache-dir", store_dir,
            "--workers", "2",
            "--request-log", log_path,
            "--trace-dir", trace_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def check_span_tree(
    trace_dir: str, rid: str, required: set[str],
    forbidden: frozenset[str] = frozenset(),
) -> set[str]:
    """One request's trace must exist, nest under its root span, and
    contain every required tier (and none of the forbidden ones);
    returns its span names."""
    from repro.bench.trace import validate_trace_document

    path = os.path.join(trace_dir, f"request-{rid}.json")
    assert os.path.exists(path), f"missing per-request trace {path}"
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    errors = validate_trace_document(doc)
    assert not errors, f"invalid trace {path}: {errors}"
    events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    names = {e["name"] for e in events}
    missing = required - names
    assert not missing, f"{rid}: span tree missing tiers {missing}"
    assert not forbidden & names, (
        f"{rid}: span tree has {forbidden & names}"
    )
    roots = [e for e in events if e["name"] == "serve.request"]
    assert len(roots) == 1, f"{rid}: expected one root span, got {roots}"
    lo = roots[0]["ts"]
    hi = lo + roots[0]["dur"]
    for e in events:
        assert lo <= e["ts"] and e["ts"] + e["dur"] <= hi, (
            f"{rid}: span {e['name']} escapes the request root"
        )
    return names


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="copy SMOKE_requests.jsonl + SMOKE_metrics.prom here",
    )
    args = ap.parse_args(argv)

    source = TABLE9["P3"].source(10)
    distinct = source + "\n// distinct\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        log_path = os.path.join(tmp, "requests.jsonl")
        trace_dir = os.path.join(tmp, "traces")
        store_dir = os.path.join(tmp, "store")
        proc = start_server(env, store_dir, log_path, trace_dir)
        prom_text = ""
        try:
            host, port = wait_for_announce(proc)
            client = ServeClient(host, port)
            assert client.ping(), "ping failed"

            first = client.compile(source, options=dict(OPTIONS))
            cold_rid = client.last_rid
            again = client.compile(source, options=dict(OPTIONS))
            warm_rid = client.last_rid
            other = client.compile(distinct, options=dict(OPTIONS))
            for resp in (first, again, other):
                assert resp.get("ok"), resp

            stats = client.stats()["counters"]
            print(
                f"statuses: {first['status']}, {again['status']}, "
                f"{other['status']}; compiles={stats['compiles']} "
                f"resident_hits={stats['resident_hits']} "
                f"store_hits={stats['store_hits']}"
            )
            assert first["status"] == "cold", first
            assert again["status"] == "warm", again
            assert other["status"] == "cold", other
            assert stats["compiles"] == 2, stats
            assert stats["resident_hits"] == 1, stats
            assert stats["store_hits"] == 0, stats
            assert first.get("rid") == cold_rid, first

            # -- per-request span trees: all three tiers present -------
            check_span_tree(
                trace_dir, cold_rid,
                {"serve.request", "service.compile", "store.put"},
            )
            check_span_tree(
                trace_dir, warm_rid, {"serve.request"},
                forbidden=frozenset(
                    {"frontend.parse", "service.compile", "store.get"}
                ),
            )
            print(f"span trees OK: {cold_rid} (cold), {warm_rid} (resident)")

            # -- Prometheus export: latency quantiles per verb/status --
            metrics = client.metrics()
            assert metrics.get("ok"), metrics
            prom_text = metrics["prometheus"]
            for needle in (
                "# TYPE repro_serve_latency_ms histogram",
                'repro_serve_latency_ms{op="compile",quantile="0.5"}',
                'repro_serve_latency_ms{op="compile",quantile="0.95"}',
                'repro_serve_latency_ms{op="compile",quantile="0.99"}',
                'op="compile",status="cold"',
                'op="compile",status="warm"',
                'le="+Inf"',
                "repro_serve_status_total",
            ):
                assert needle in prom_text, (
                    f"prometheus export missing {needle!r}"
                )
            print("prometheus export OK: quantile series per verb+status")

            # -- repro top renders from live polls ---------------------
            snap_a = poll_snapshot(client)
            snap_b = poll_snapshot(client)
            frame = render_top(snap_a, snap_b)
            assert "hit-rate" in frame and "p99 ms" in frame, frame
            assert cold_rid in frame, "recent requests missing in top"
            print("repro top snapshot OK:")
            print(
                "\n".join("  | " + ln for ln in frame.splitlines()[:6])
            )

            # -- run: one oracle per resident key, a compare per request
            names = []
            for _ in range(3):
                ran = client.run(source, options=dict(OPTIONS), workers=2)
                assert ran.get("ok") and ran["status"] == "warm", ran
                assert ran["match"] is True, ran
                names.append(check_span_tree(
                    trace_dir, client.last_rid,
                    {"serve.request", "serve.run"},
                ))
            assert all(
                any(n.startswith("task.") for n in ns) for ns in names
            ), "a traced run must carry its per-task spans"
            paid = ["serve.oracle" in ns for ns in names]
            assert paid == [True, False, False], paid
            print("run OK: 3 matching runs, the first computed the oracle")

            client.shutdown()
            proc.wait(timeout=30)

            # -- request log: every request is one structured line -----
            with open(log_path, encoding="utf-8") as fh:
                entries = [json.loads(ln) for ln in fh]
            by_rid = {e["rid"]: e for e in entries}
            assert cold_rid in by_rid and warm_rid in by_rid, by_rid
            assert by_rid[cold_rid]["status"] == "cold"
            assert by_rid[warm_rid]["status"] == "warm"
            assert by_rid[warm_rid]["tier"] == "memory"
            assert by_rid[cold_rid]["compile_ms"] > 0
            assert "queue_wait_ms" in by_rid[cold_rid]
            print(f"request log OK: {len(entries)} entries")

            # -- restart on the same cache dir: the disk-warm contract --
            proc = start_server(env, store_dir, log_path, trace_dir)
            host, port = wait_for_announce(proc)
            client = ServeClient(host, port)
            disk = client.compile(source, options=dict(OPTIONS))
            disk_rid = client.last_rid
            stats = client.stats()["counters"]
            assert disk.get("ok") and disk["status"] == "warm", disk
            assert stats["store_hits"] == 1, stats
            assert stats["compiles"] == 0, stats
            assert stats["resident_hits"] == 0, stats
            check_span_tree(
                trace_dir, disk_rid,
                {"serve.request", "service.compile", "store.get"},
            )
            client.shutdown()
            proc.wait(timeout=30)
            print(f"restart OK: {disk_rid} answered warm from disk")

            if args.artifacts:
                os.makedirs(args.artifacts, exist_ok=True)
                shutil.copy(
                    log_path,
                    os.path.join(args.artifacts, "SMOKE_requests.jsonl"),
                )
                with open(
                    os.path.join(args.artifacts, "SMOKE_metrics.prom"),
                    "w",
                    encoding="utf-8",
                ) as fh:
                    fh.write(prom_text)
                print(f"artifacts written to {args.artifacts}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print(
        "serve smoke OK: 3 compile requests, exactly 2 compiles, 3 runs on "
        "1 oracle, resident and disk-warm tiers and telemetry contract "
        "verified"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
