"""``repro serve``: protocol, resident kernels, store reuse, dedupe."""

from __future__ import annotations

import asyncio
import json
import re
import sys

import pytest

from repro.interp.executor import MAX_WORKERS
from repro.service import server as server_mod
from repro.service.server import serve

from ..conftest import TWO_NEST_COPY
from ..test_cli import HISTOGRAM_KERNEL
from .test_compile import (
    BACKWARD_IN_BLOCK,
    DOTPROD,
    _forged_verdicts,
    _tampered,
)

DISTINCT = TWO_NEST_COPY + "\n// distinct kernel\n"

OPTIONS = {"check": False, "verify": False, "workers": 2}


async def _request(host: str, port: int, payload: dict) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass
    return json.loads(line)


async def _with_server(cache_dir, body):
    """Start an in-process server, run ``body(host, port, server)``,
    always shut the server down."""
    loop = asyncio.get_running_loop()
    ready: asyncio.Future = loop.create_future()
    task = asyncio.ensure_future(
        serve(
            port=0,
            cache_dir=cache_dir,
            workers=4,
            ready=ready,
            announce=lambda *_: None,
        )
    )
    host, port, server = await asyncio.wait_for(ready, 30)
    try:
        return await body(host, port, server)
    finally:
        await _request(host, port, {"op": "shutdown"})
        await asyncio.wait_for(task, 30)


def _compile_req(source: str) -> dict:
    return {
        "op": "compile",
        "source": source,
        "params": {"N": 8},
        "options": dict(OPTIONS),
    }


def test_ping_and_unknown_op(tmp_path):
    async def body(host, port, server):
        pong = await _request(host, port, {"op": "ping"})
        assert pong == {"ok": True, "pong": True}
        bad = await _request(host, port, {"op": "frobnicate"})
        assert not bad["ok"] and "unknown" in bad["error"]

    asyncio.run(_with_server(str(tmp_path), body))


def test_two_identical_plus_one_distinct_pay_two_compiles(tmp_path):
    """The tier-1 smoke contract: a repeat is answered from the kernel
    the process holds, only genuinely new keys compile."""

    async def body(host, port, server):
        first = await _request(host, port, _compile_req(TWO_NEST_COPY))
        again = await _request(host, port, _compile_req(TWO_NEST_COPY))
        other = await _request(host, port, _compile_req(DISTINCT))
        assert first["ok"] and again["ok"] and other["ok"]
        assert first["status"] == "cold"
        assert again["status"] == "warm"
        assert other["status"] == "cold"
        assert first["key"] == again["key"] != other["key"]
        stats = await _request(host, port, {"op": "stats"})
        assert again["cache_status"] == "warm"  # this request's, not the first's
        assert stats["counters"]["compiles"] == 2
        assert stats["counters"]["resident_hits"] == 1
        assert stats["counters"]["store_hits"] == 0
        assert stats["store"]["entries"] == 2
        assert stats["resident"] == 2

    asyncio.run(_with_server(str(tmp_path), body))


def test_eight_concurrent_identical_requests_one_compile(tmp_path):
    """N simultaneous identical requests pay exactly one compile — the
    rest await the same in-flight future."""

    async def body(host, port, server):
        results = await asyncio.gather(
            *(_request(host, port, _compile_req(TWO_NEST_COPY)) for _ in range(8))
        )
        assert all(r["ok"] for r in results)
        assert len({r["key"] for r in results}) == 1
        statuses = sorted(r["status"] for r in results)
        assert statuses.count("cold") == 1
        assert statuses.count("inflight") == 7
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["compiles"] == 1
        assert stats["counters"]["inflight_hits"] == 7
        assert stats["inflight"] == 0  # pending compiles, not map size
        assert stats["resident"] == 1

    asyncio.run(_with_server(str(tmp_path), body))


def test_run_op_executes_and_checksums(tmp_path):
    async def body(host, port, server):
        req = dict(_compile_req(TWO_NEST_COPY))
        req.update({"op": "run", "backend": "threads", "workers": 2})
        first = await _request(host, port, req)
        assert first["ok"] and first["match"] is True
        assert set(first["checksums"]) == {"A", "B"}
        # the second run replays the resident kernel, bit-identically
        again = await _request(host, port, req)
        assert again["status"] == "warm"
        assert again["checksums"] == first["checksums"]

    asyncio.run(_with_server(str(tmp_path), body))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_run_of_a_nan_kernel_matches(tmp_path):
    """``match`` is bit identity with the oracle: values that are NaN
    (``0/0`` per cell) match themselves, on every backend."""
    nan_kernel = (
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " S: A[i][j] = (A[i][j] - A[i][j]) / (A[i][j] - A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: B[i][j] = g(A[i][j], B[i][j]);"
    )

    async def body(host, port, server):
        for backend in ("serial", "threads"):
            req = dict(_compile_req(nan_kernel))
            req.update({"op": "run", "backend": backend, "workers": 2})
            reply = await _request(host, port, req)
            assert reply["ok"] and reply["match"] is True, backend

    asyncio.run(_with_server(str(tmp_path), body))


def test_no_cache_serves_direct(tmp_path):
    async def body(host, port, server):
        first = await _request(host, port, _compile_req(TWO_NEST_COPY))
        again = await _request(host, port, _compile_req(TWO_NEST_COPY))
        assert first["status"] == "direct"
        # residency lives in the server, not in the store
        assert again["status"] == "warm"
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["compiles"] == 1
        assert stats["counters"]["resident_hits"] == 1
        assert "store" not in stats

    asyncio.run(_with_server(None, body))


@pytest.mark.parametrize("stored", [True, False], ids=["store", "direct"])
def test_a_resident_kernel_keeps_no_dependence_table(tmp_path, stored):
    """The resident entry holds the interpreter and so its SCoP; the
    dependence relations of the compile — and of the first lowering, which
    plans fusion on a direct compile — do not stay with it."""

    async def body(host, port, server):
        compiled = await _request(host, port, _compile_req(TWO_NEST_COPY))
        assert compiled["status"] == ("cold" if stored else "direct")
        interp = _resident_interp(server, compiled["key"])
        assert not interp.scop.dependence_table()
        ran = await _request(host, port, _run_req())
        assert ran["status"] == "warm" and ran["match"] is True
        assert _resident_interp(server, ran["key"]) is interp
        assert not interp.scop.dependence_table()

    asyncio.run(_with_server(str(tmp_path) if stored else None, body))


@pytest.mark.parametrize("stored", [True, False], ids=["store", "direct"])
def test_a_served_key_derives_its_dependences_once(
    tmp_path, monkeypatch, stored
):
    """One compile and three runs of a key derive the SCoP's dependence
    table once: the compile plans fusion (the per-statement kernels and
    the chain-fusion verdicts) while the table is there, so no replay
    asks a dependence question again."""
    from repro.scop import deps

    from ..conftest import Counter

    derivations = Counter(monkeypatch, deps, "_derive")

    async def body(host, port, server):
        compiled = await _request(host, port, _compile_req(TWO_NEST_COPY))
        assert compiled["status"] == ("cold" if stored else "direct")
        assert derivations.calls == 1
        for _ in range(3):
            ran = await _request(host, port, _run_req())
            assert ran["ok"] and ran["match"] is True
        assert derivations.calls == 1
        interp = _resident_interp(server, compiled["key"])
        assert interp.fused_program.legal_pairs  # planned at compile

    asyncio.run(_with_server(str(tmp_path) if stored else None, body))


def test_malformed_request_reports_error_and_keeps_serving(tmp_path):
    async def body(host, port, server):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"this is not json\n")
        await writer.drain()
        resp = json.loads(await reader.readline())
        assert not resp["ok"]
        writer.close()
        # shape errors are diagnostics, never interpreter internals
        good = _compile_req(TWO_NEST_COPY)
        run = dict(good, op="run", backend="serial")
        for bad, what in (
            ([1, 2], "JSON object"),
            ({"source": TWO_NEST_COPY}, "'op'"),
            ({"op": 7}, "'op'"),
            ({"op": "compile"}, "'source'"),
            (dict(good, source=["x"]), "'source'"),
            (dict(good, params={"N": "x"}), "'params'"),
            (dict(good, params={"N": True}), "'params'"),
            (dict(good, params=[8]), "'params'"),
            (dict(good, options="fast"), "'options'"),
            (dict(good, options={"turbo": 1}), "'options'"),
            (dict(run, workers=0), "'workers'"),
            (dict(run, workers=0, backend="threads"), "'workers'"),
            (dict(run, workers="4"), "'workers'"),
            (dict(run, workers=MAX_WORKERS + 1, backend="processes"),
             "'workers'"),
            (dict(run, backend="bogus"), "'backend'"),
            (dict(run, backend=7), "'backend'"),
        ):
            resp = await _request(host, port, bad)
            assert not resp["ok"], bad
            assert resp["error"].startswith("bad request: "), resp
            assert what in resp["error"], resp
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["errors"] == 17
        assert stats["counters"]["compiles"] == 0  # refused before any work
        assert stats["resident"] == 0
        pong = await _request(host, port, {"op": "ping"})
        assert pong["ok"]

    asyncio.run(_with_server(str(tmp_path), body))


def test_an_old_clients_reduce_deps_is_a_bad_request(tmp_path, capsys):
    """``reduce_deps`` is no option since every plan's schedule is
    reduced: a client that still sends it gets a bad request before any
    key or compile, on ``compile`` and ``run`` alike, and the CLI flag
    is an argparse usage error."""
    from repro.cli import main

    async def body(host, port, server):
        options = dict(OPTIONS, reduce_deps=True)
        for op in ("compile", "run"):
            req = dict(_compile_req(TWO_NEST_COPY), op=op, options=options)
            resp = await _request(host, port, req)
            assert resp["error"] == (
                "bad request: 'options': unknown TransformOptions "
                "fields: ['reduce_deps']"
            ), (op, resp)
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["errors"] == 2
        assert stats["counters"]["compiles"] == 0
        assert stats["resident"] == 0

    asyncio.run(_with_server(str(tmp_path), body))
    kernel = tmp_path / "kernel.c"
    kernel.write_text(TWO_NEST_COPY)
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(kernel), "--param", "N=8", "--reduce-deps"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage: " in err and "--reduce-deps" in err


def test_retired_options_are_bad_requests(tmp_path):
    """Options that are no ``TransformOptions`` field are refused, not
    dropped from the key."""
    retired = {
        "static_checks": True,
        "portfolio": True,
        "overhead": 0.5,
        "cost_model": {"per_iteration": {}, "default": 1.0},
        "tune": True,
    }

    async def body(host, port, server):
        for name, value in retired.items():
            options = dict(OPTIONS, **{name: value})
            req = dict(_compile_req(TWO_NEST_COPY), options=options)
            resp = await _request(host, port, req)
            assert resp["error"] == (
                "bad request: 'options': unknown TransformOptions "
                f"fields: [{name!r}]"
            ), resp
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["compiles"] == 0

    asyncio.run(_with_server(str(tmp_path), body))


def test_request_line_limit(tmp_path):
    """A kernel source beyond asyncio's 64 KiB default is served; a line
    over REQUEST_LIMIT is refused, counted and logged, and only that
    connection is closed."""

    async def body(host, port, server):
        padded = TWO_NEST_COPY + "// " + "x" * (100 << 10) + "\n"
        big = await _request(host, port, _compile_req(padded))
        assert big["ok"] and big["status"] == "cold"

        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"x" * (server_mod.REQUEST_LIMIT + 1) + b"\n")
        await writer.drain()
        resp = json.loads(await reader.readline())
        assert not resp["ok"]
        assert resp["error"].startswith("request too large: ")
        assert await reader.read() == b""  # the server hung up
        writer.close()

        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["errors"] == 1
        r = await _request(host, port, {"op": "requests"})
        assert any(
            "request too large" in row.get("error", "")
            for row in r["requests"]
        )

    asyncio.run(_with_server(str(tmp_path), body))


def test_stalled_oversized_line_is_refused_after_the_drain_deadline(
    tmp_path, monkeypatch
):
    """A client that sends more than REQUEST_LIMIT bytes and then stalls
    without a newline is answered, counted and hung up on once
    OVERSIZE_DRAIN_S has passed — it does not hold the connection."""
    monkeypatch.setattr(server_mod, "OVERSIZE_DRAIN_S", 0.2, raising=False)

    async def body(host, port, server):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"x" * (server_mod.REQUEST_LIMIT + 1))  # no newline
            await writer.drain()
            resp = json.loads(await asyncio.wait_for(reader.readline(), 10))
            assert not resp["ok"]
            assert resp["error"].startswith("request too large: ")
            assert await asyncio.wait_for(reader.read(), 10) == b""
        finally:
            writer.close()

        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["errors"] == 1

    asyncio.run(_with_server(str(tmp_path), body))


# ----------------------------------------------------------------------
# resident kernels: count-based, no wall clocks
# ----------------------------------------------------------------------
def _variant(k: int) -> str:
    return TWO_NEST_COPY + f"\n// variant {k}\n"


def _reduction_req(op: str = "compile", **extra) -> dict:
    return {
        "op": op,
        "source": DOTPROD,
        "params": {"N": 32},
        "options": dict(OPTIONS, privatize=True),
        **extra,
    }


def test_resident_repeat_skips_parse_store_and_lowering(tmp_path):
    """After one compile of a key, further compile/run requests for it
    construct nothing: no parse, no store read, no compile tier, and
    after the first run no lowering and no oracle computation."""
    verbs = ("compile", "run", "compile", "run", "run", "compile")

    async def body(host, port, server, log_path, trace_dir):
        first = await _request(host, port, _compile_req(TWO_NEST_COPY))
        assert first["status"] == "cold"
        for n, verb in enumerate(verbs):
            req = dict(_compile_req(TWO_NEST_COPY), op=verb, rid=f"rep-{n}")
            resp = await _request(host, port, req)
            assert resp["ok"] and resp["status"] == "warm", resp
            assert resp.get("match", True) is True
        r = await _request(host, port, {"op": "requests"})
        rows = {row["rid"]: row for row in r["requests"]}
        lowered = oracles = 0
        for n, verb in enumerate(verbs):
            row = rows[f"rep-{n}"]
            assert row["tier"] == "memory"
            names = set(row["span_names"])
            assert not names & {
                "frontend.parse", "scop.extract", "store.get",
                "store.put", "service.compile",
            }, (n, names)
            lowered += "exec.lower" in names
            oracles += "serve.oracle" in names
            if verb == "run":
                assert "serve.run" in names
        # the first run
        assert {"exec.lower", "serve.oracle"} <= set(rows["rep-1"]["span_names"])
        assert lowered == 1 and oracles == 1
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["compiles"] == 1
        assert stats["counters"]["resident_hits"] == len(verbs)
        assert stats["counters"]["store_hits"] == 0
        m = await _request(host, port, {"op": "metrics"})
        gauges = m["metrics"]["gauges"]
        assert gauges["serve.counter.resident_hits"] == len(verbs)
        assert gauges["serve.queue_depth"] == 0

    asyncio.run(_with_telemetry_server(tmp_path, body))


def _battery_kernels():
    from repro.workloads import TABLE9

    return {
        "P5": dict(_compile_req(TABLE9["P5"].source(8)), params={}),
        "histogram": {
            "op": "compile",
            "source": HISTOGRAM_KERNEL,
            "params": {"N": 8},
            "options": dict(OPTIONS, privatize=True),
        },
    }


@pytest.mark.parametrize("backend", ["serial", "threads"])
@pytest.mark.parametrize("kernel", ["P5", "histogram"])
def test_concurrent_runs_of_one_resident_kernel(
    tmp_path, monkeypatch, kernel, backend
):
    """Simultaneous first runs share one interpreter, one lowered plan
    and one oracle computation, and must each answer what a fresh server
    answers once — each from a compare of its own replay."""
    import repro.interp

    compared = []
    real_matches = repro.interp.privatized_matches

    def counting(plan, sequential, privatized):
        compared.append(privatized)
        return real_matches(plan, sequential, privatized)

    monkeypatch.setattr(repro.interp, "privatized_matches", counting)
    req = dict(
        _battery_kernels()[kernel], op="run", backend=backend, workers=2
    )

    async def fresh(host, port, server):
        return await _request(host, port, req)

    async def body(host, port, server):
        assert (await _request(host, port, dict(req, op="compile")))["ok"]
        return (
            await asyncio.wait_for(
                asyncio.gather(*(_request(host, port, req) for _ in range(8))),
                120,
            ),
            await _request(host, port, {"op": "stats"}),
            await _request(host, port, {"op": "requests"}),
        )

    reference = asyncio.run(_with_server(str(tmp_path / "fresh"), fresh))
    assert reference["ok"] and reference["match"] is True
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results, stats, ring = asyncio.run(
            _with_server(str(tmp_path / "resident"), body)
        )
    finally:
        sys.setswitchinterval(interval)
    for resp in results:
        assert resp["ok"] and resp["status"] == "warm", resp
        assert resp["match"] is True
        assert resp["checksums"] == reference["checksums"]
    assert stats["counters"]["compiles"] == 1
    assert stats["counters"]["resident_hits"] == 8
    runs = [row for row in ring["requests"] if row["op"] == "run"]
    assert len(runs) == 8
    assert sum("serve.oracle" in row["span_names"] for row in runs) == 1
    # the reduction compares group-aware, once per request (+ the fresh one)
    assert len(compared) == (9 if kernel == "histogram" else 0)
    assert len({id(out) for out in compared}) == len(compared)


def test_failed_compile_is_not_retained(tmp_path):
    async def body(host, port, server):
        real, calls = server._compile_sync, []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("compile blew up")
            return real(*args)

        server._compile_sync = flaky
        failed = await _request(host, port, _compile_req(TWO_NEST_COPY))
        assert not failed["ok"] and "compile blew up" in failed["error"]
        assert len(server.resident) == 0
        again = await _request(host, port, _compile_req(TWO_NEST_COPY))
        assert again["ok"] and again["status"] == "cold"  # re-attempted
        assert len(calls) == 2 and len(server.resident) == 1

    asyncio.run(_with_server(str(tmp_path), body))


def test_resident_bound_evicts_to_the_verified_disk_path(
    tmp_path, monkeypatch
):
    """RESIDENT_KERNELS + 1 keys: the oldest is dropped and its next
    request is a load from disk again — store read and proof
    re-verification included."""
    from repro.schedule import legality

    monkeypatch.setattr(server_mod, "RESIDENT_KERNELS", 3)
    verified = []
    real_verify = legality.verify_privatization

    def counting(scop, proof):
        verified.append(proof)
        return real_verify(scop, proof)

    monkeypatch.setattr(legality, "verify_privatization", counting)

    async def body(host, port, server, log_path, trace_dir):
        assert (await _request(host, port, _reduction_req()))["status"] == "cold"
        at_cold = len(verified)  # the cold compile checks its own proof
        hit = await _request(host, port, _reduction_req(rid="resident"))
        assert hit["status"] == "warm" and hit["privatized"]
        assert len(verified) == at_cold  # built here, not read back
        for k in range(3):
            resp = await _request(host, port, _compile_req(_variant(k)))
            assert resp["status"] == "cold"
            assert len(server.resident) <= 3
        back = await _request(host, port, _reduction_req(rid="evicted"))
        assert back["status"] == "warm" and back["privatized"]
        assert len(verified) > at_cold  # off the disk: verified again
        assert len(server.resident) == 3
        r = await _request(host, port, {"op": "requests"})
        rows = {row["rid"]: row for row in r["requests"]}
        assert "store.get" not in rows["resident"]["span_names"]
        assert rows["resident"]["tier"] == "memory"
        assert {"store.get", "service.compile", "frontend.parse"} <= set(
            rows["evicted"]["span_names"]
        )
        assert "tier" not in rows["evicted"]
        stats = await _request(host, port, {"op": "stats"})
        assert stats["counters"]["compiles"] == 4
        assert stats["counters"]["store_hits"] == 1
        assert stats["counters"]["resident_hits"] == 1

    asyncio.run(_with_telemetry_server(tmp_path, body))


def test_pending_compile_is_never_evicted(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "RESIDENT_KERNELS", 2)

    async def body(host, port, server):
        pending = asyncio.get_running_loop().create_future()
        server.resident["still-compiling"] = pending  # the LRU position
        try:
            for k in range(4):
                resp = await _request(host, port, _compile_req(_variant(k)))
                assert resp["status"] == "cold"
                assert "still-compiling" in server.resident
                assert len(server.resident) <= 2
            stats = await _request(host, port, {"op": "stats"})
            assert stats["inflight"] == 1 and stats["resident"] == 2
            health = await _request(host, port, {"op": "health"})
            assert health["inflight_compiles"] == 1
        finally:
            del server.resident["still-compiling"]
            pending.cancel()

    asyncio.run(_with_server(str(tmp_path), body))


def test_disk_is_the_trust_boundary_not_the_resident_object(tmp_path):
    """Tampering with the stored proof of a resident reduction kernel
    cannot reach the object this process verified; a process that must
    load it from disk re-verifies, refuses it and recompiles."""
    from repro.service import options_from_dict
    from repro.store import ArtifactStore, artifact_key
    from repro.store.disk import session_counters

    run = _reduction_req("run", backend="threads", workers=2)

    async def second_server(host, port, server):
        before = session_counters().get("replay_failures", 0)
        resp = await _request(host, port, _reduction_req())
        assert resp["ok"] and resp["status"] == "cold" and resp["privatized"]
        assert session_counters().get("replay_failures", 0) == before + 1

    async def body(host, port, server):
        first = await _request(host, port, run)
        assert first["status"] == "cold" and first["match"] is True
        store = ArtifactStore(str(tmp_path))
        key = artifact_key(
            DOTPROD, {"N": 32}, options_from_dict(run["options"])
        )
        assert key == first["key"]
        store.put(key, _tampered(store.get(key)))
        for _ in range(2):
            resp = await _request(host, port, run)
            assert resp["status"] == "warm" and resp["match"] is True
            assert resp["checksums"] == first["checksums"]
        await _with_server(str(tmp_path), second_server)

    asyncio.run(_with_server(str(tmp_path), body))


def test_forged_fusion_verdict_is_served_as_a_mismatch(tmp_path):
    """A forged "legal" verdict in a stored fusion plan merges a chain
    that reorders a dependence; the run's oracle compare reports it on a
    per-row replay — a traced request's, which collects events.  An
    untraced replay runs the chain as one stream run (serial) or one
    claim (threads, processes) over its whole domain — program order —
    and still matches."""
    from repro.driver import transform
    from repro.service import options_from_dict
    from repro.store import ArtifactStore, artifact_key

    options = {"workers": 2}
    opts, params = options_from_dict(options), {"N": 4}
    cache_dir = str(tmp_path / "cache")  # the telemetry server's
    transform(BACKWARD_IN_BLOCK, params, opts, cache_dir=cache_dir)
    store = ArtifactStore(cache_dir)
    key = artifact_key(BACKWARD_IN_BLOCK, params, opts)
    req = {
        "op": "run", "source": BACKWARD_IN_BLOCK, "params": params,
        "options": options, "backend": "threads",
    }

    async def honest(host, port, server, *_):
        resp = await _request(host, port, req)
        assert resp["status"] == "warm" and resp["match"] is True

    async def per_row(host, port, server, *_):
        resp = await _request(host, port, req)
        assert resp["ok"] and resp["key"] == key
        assert resp["status"] == "warm" and resp["match"] is False

    async def whole(host, port, server):
        for backend in ("serial", "threads", "processes"):
            resp = await _request(host, port, dict(req, backend=backend))
            assert resp["ok"] and resp["key"] == key
            assert resp["match"] is True, backend

    asyncio.run(_with_telemetry_server(tmp_path, honest))
    store.put(key, _forged_verdicts(store.get(key)))
    asyncio.run(_with_telemetry_server(tmp_path, per_row))
    asyncio.run(_with_server(cache_dir, whole))


# ----------------------------------------------------------------------
# the resident oracle: computed once, compared on every request
# ----------------------------------------------------------------------
def _run_req(source: str = TWO_NEST_COPY, **extra) -> dict:
    return {**_compile_req(source), "op": "run", "backend": "serial", **extra}


def _resident_interp(server, key: str):
    return server.resident[key].result()[0]


async def _oracle_gauge(host, port) -> int:
    m = await _request(host, port, {"op": "metrics"})
    return m["metrics"]["gauges"]["serve.resident_oracle_bytes"]


def test_match_and_checksums_come_from_each_requests_replay(tmp_path):
    """Only the reference is kept: a resident plan that starts writing
    wrong cells is reported by the very next run.  That run is a per-row
    replay — a traced request's, which collects events — and runs the
    broken row itself.  An untraced threads or processes replay runs the
    ``S+T`` chain as one claim over the union rectangles taken at
    lowering, which is program order, and still matches."""

    async def body(host, port, server, *_):
        good = await _request(host, port, _run_req())
        assert good["match"] is True
        interp = _resident_interp(server, good["key"])
        (plan,) = interp._exec_plans.values()
        payload = plan.rows[-1].payload  # its block no longer executes
        payload["iters"] = payload["iters"][:0]
        payload["rects"] = ()
        bad = await _request(host, port, _run_req(backend="processes"))
        assert bad["ok"] and bad["status"] == "warm"
        assert bad["match"] is False
        assert bad["checksums"] != good["checksums"]
        server.telemetry.trace_dir = None  # untraced from here on
        for backend in ("threads", "processes"):
            whole = await _request(host, port, _run_req(backend=backend))
            assert whole["match"] is True, backend
            assert whole["checksums"] == good["checksums"], backend

    asyncio.run(_with_telemetry_server(tmp_path, body))


@pytest.mark.parametrize("keep", [True, False])
def test_oracle_is_computed_once_per_resident_kernel_within_the_bound(
    tmp_path, monkeypatch, keep
):
    """K runs of a resident key: one oracle computation while its arrays
    fit ``ORACLE_KEEP_BYTES``, K (and nothing retained) above it."""
    from repro.interp import interp as interp_mod

    if not keep:
        monkeypatch.setattr(interp_mod, "ORACLE_KEEP_BYTES", 0)
    runs = 5

    async def body(host, port, server):
        compiled = await _request(host, port, _compile_req(TWO_NEST_COPY))
        interp = _resident_interp(server, compiled["key"])
        interp.run_sequential(interp.new_store())  # builds the function
        real, calls = interp._sequential, []

        def counting(store, funcs):
            calls.append(store)
            return real(store, funcs)

        interp._sequential = counting
        assert await _oracle_gauge(host, port) == 0
        replies = [
            await _request(host, port, _run_req(rid=f"k-{n}"))
            for n in range(runs)
        ]
        assert all(r["match"] is True for r in replies)
        assert len({json.dumps(r["checksums"]) for r in replies}) == 1
        assert len(calls) == (1 if keep else runs)
        ring = await _request(host, port, {"op": "requests"})
        rows = {row["rid"]: row for row in ring["requests"]}
        paid = ["serve.oracle" in rows[f"k-{n}"]["span_names"] for n in range(runs)]
        assert paid == ([True] + [False] * (runs - 1) if keep else [True] * runs)
        nbytes = interp.new_store().nbytes
        assert interp.oracle_bytes == (nbytes if keep else 0)
        assert await _oracle_gauge(host, port) == (nbytes if keep else 0)

    asyncio.run(_with_server(str(tmp_path), body))


@pytest.mark.parametrize("keep", [True, False])
def test_inputs_are_built_once_per_resident_kernel_within_the_bound(
    tmp_path, monkeypatch, keep
):
    """K runs of a resident key replay copies of one frozen input store
    while it fits ``ORACLE_KEEP_BYTES`` (K builds, nothing kept above
    it); the gauge weighs what is kept, apart from the oracle."""
    from repro.interp import ArrayStore
    from repro.interp import interp as interp_mod

    if not keep:
        monkeypatch.setattr(interp_mod, "ORACLE_KEEP_BYTES", 0)
    runs, builds = 5, []
    real = ArrayStore.for_scop

    def counting(scop, init="index"):
        builds.append(init)
        return real(scop, init)

    async def body(host, port, server):
        compiled = await _request(host, port, _compile_req(TWO_NEST_COPY))
        interp = _resident_interp(server, compiled["key"])
        monkeypatch.setattr(ArrayStore, "for_scop", staticmethod(counting))
        replies = [
            await _request(host, port, _run_req(rid=f"k-{n}"))
            for n in range(runs)
        ]
        assert all(r["match"] is True for r in replies)
        assert len({json.dumps(r["checksums"]) for r in replies}) == 1
        # within the bound the oracle's store and every replay's are
        # copies; above it each run builds for its oracle and its replay
        assert len(builds) == (1 if keep else 2 * runs)
        nbytes = real(interp.scop).nbytes
        assert interp.input_bytes == (nbytes if keep else 0)
        m = await _request(host, port, {"op": "metrics"})
        gauges = m["metrics"]["gauges"]
        assert gauges["serve.resident_input_bytes"] == (nbytes if keep else 0)
        assert gauges["serve.resident_oracle_bytes"] == (nbytes if keep else 0)

    asyncio.run(_with_server(str(tmp_path), body))


def test_evicting_a_kernel_drops_its_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(server_mod, "RESIDENT_KERNELS", 1)

    async def body(host, port, server):
        assert (await _request(host, port, _run_req()))["match"] is True
        assert await _oracle_gauge(host, port) > 0
        other = await _request(host, port, _compile_req(DISTINCT))
        assert list(server.resident) == [other["key"]]
        assert await _oracle_gauge(host, port) == 0

    asyncio.run(_with_server(str(tmp_path), body))


def test_run_row_without_trace_dir_counts_tasks_instead_of_spanning_them(
    tmp_path,
):
    """Per-task spans are a trace product: with no trace dir the request
    tree of a resident run is the same size for any task count."""

    async def body(host, port, server):
        for n in (4, 16):
            for rep in range(2):  # the second run lowers and computes nothing
                req = dict(_run_req(rid=f"n{n}-{rep}"), params={"N": n})
                req.update(backend="threads", workers=2)
                assert (await _request(host, port, req))["match"] is True
        ring = await _request(host, port, {"op": "requests"})
        rows = {row["rid"]: row for row in ring["requests"]}
        small, large = rows["n4-1"], rows["n16-1"]
        for row in (small, large):
            assert not [n for n in row["span_names"] if n.startswith("task.")]
            assert set(row["span_names"]) == {
                "serve.request", "serve.run", "exec.measured",
            }
        assert small["tasks"] < large["tasks"]
        assert small["spans"] == large["spans"] == 3

    asyncio.run(_with_server(str(tmp_path), body))


# ----------------------------------------------------------------------
# service-grade telemetry: new verbs, rid propagation, request traces
# ----------------------------------------------------------------------
def test_metrics_verb_exposes_latency_series(tmp_path):
    async def body(host, port, server):
        await _request(host, port, _compile_req(TWO_NEST_COPY))
        await _request(host, port, _compile_req(TWO_NEST_COPY))
        m = await _request(host, port, {"op": "metrics"})
        assert m["ok"]
        hists = m["metrics"]["histograms"]
        assert "serve.latency_ms{op=compile}" in hists
        assert "serve.latency_ms{op=compile,status=cold}" in hists
        assert "serve.latency_ms{op=compile,status=warm}" in hists
        per_op = hists["serve.latency_ms{op=compile}"]
        assert per_op["count"] == 2
        for q in ("p50", "p95", "p99"):
            assert per_op[q] > 0
        prom = m["prometheus"]
        assert "# TYPE repro_serve_latency_ms histogram" in prom
        assert 'quantile="0.99"' in prom
        assert 'le="+Inf"' in prom
        # live store/server gauges folded into the scrape
        assert "repro_store_entries" in prom
        assert "repro_serve_queue_depth" in prom

    asyncio.run(_with_server(str(tmp_path), body))


def test_health_and_requests_verbs(tmp_path):
    async def body(host, port, server):
        await _request(host, port, {"op": "ping", "rid": "req-ping-1"})
        h = await _request(host, port, {"op": "health"})
        assert h["ok"]
        assert h["uptime_s"] >= 0
        assert h["requests_total"] >= 1
        assert h["errors_total"] == 0
        assert h["counters"]["requests"] >= 1
        r = await _request(host, port, {"op": "requests", "n": 8})
        assert r["ok"]
        rids = [row["rid"] for row in r["requests"]]
        assert "req-ping-1" in rids  # client-proposed rid adopted

    asyncio.run(_with_server(str(tmp_path), body))


def test_client_rid_echoed_only_when_sent(tmp_path):
    async def body(host, port, server):
        plain = await _request(host, port, {"op": "ping"})
        assert "rid" not in plain  # legacy shape untouched
        tagged = await _request(
            host, port, {"op": "ping", "rid": "my-rid"}
        )
        assert tagged["rid"] == "my-rid"

    asyncio.run(_with_server(str(tmp_path), body))


@pytest.mark.parametrize(
    "rid", ["../../x", "a/b", "", "x" * 65, 7, ["../x"], {"a": 1}]
)
def test_malformed_rid_is_replaced_and_writes_nothing_outside_trace_dir(
    tmp_path, rid
):
    """A client ``rid`` names the trace file: anything but
    ``[A-Za-z0-9_-]{1,64}`` is dropped for a server-assigned id."""
    import os

    def files():
        return sorted(
            os.path.relpath(os.path.join(d, f), tmp_path)
            for d, _, fs in os.walk(tmp_path)
            for f in fs
        )

    async def body(host, port, server, log_path, trace_dir):
        before = files()
        resp = await _request(host, port, {"op": "ping", "rid": rid})
        assert resp["ok"]
        assigned = resp["rid"]
        assert assigned != rid
        assert re.fullmatch(r"[A-Za-z0-9_-]{1,64}", assigned)
        # the one new file is this request's trace, inside trace_dir
        assert set(files()) - set(before) - {"requests.jsonl"} == {
            os.path.join("traces", f"request-{assigned}.json")
        }
        rows = await _request(host, port, {"op": "requests"})
        assert assigned in [row["rid"] for row in rows["requests"]]

    asyncio.run(_with_telemetry_server(tmp_path, body))


def test_serve_client_generates_rids(tmp_path):
    async def body(host, port, server):
        from repro.service.client import ServeClient

        loop = asyncio.get_running_loop()
        client = ServeClient(host, port)
        resp = await loop.run_in_executor(None, client.ping)
        assert resp is True
        assert client.last_rid is not None
        r = await _request(host, port, {"op": "requests"})
        assert client.last_rid in [row["rid"] for row in r["requests"]]

    asyncio.run(_with_server(str(tmp_path), body))


def test_error_requests_land_in_log_and_metrics(tmp_path):
    async def body(host, port, server):
        bad = await _request(
            host, port, {"op": "compile", "rid": "bad-1"}
        )  # no source
        assert not bad["ok"] and bad["error"].startswith("bad request")
        r = await _request(host, port, {"op": "requests"})
        row = next(x for x in r["requests"] if x["rid"] == "bad-1")
        assert row["ok"] is False and "error" in row
        m = await _request(host, port, {"op": "metrics"})
        errors = [
            k for k in m["metrics"]["counters"]
            if k.startswith("serve.errors_total")
        ]
        assert errors

    asyncio.run(_with_server(str(tmp_path), body))


async def _with_telemetry_server(tmp_path, body):
    """Like ``_with_server`` but with request log + trace dir wired."""
    log_path = str(tmp_path / "requests.jsonl")
    trace_dir = str(tmp_path / "traces")
    loop = asyncio.get_running_loop()
    ready: asyncio.Future = loop.create_future()
    task = asyncio.ensure_future(
        serve(
            port=0,
            cache_dir=str(tmp_path / "cache"),
            workers=4,
            ready=ready,
            announce=lambda *_: None,
            log_path=log_path,
            trace_dir=trace_dir,
        )
    )
    host, port, server = await asyncio.wait_for(ready, 30)
    try:
        return await body(host, port, server, log_path, trace_dir)
    finally:
        await _request(host, port, {"op": "shutdown"})
        await asyncio.wait_for(task, 30)


def test_request_trace_nests_store_and_compile_tiers(tmp_path):
    """The acceptance contract: a request's root span parents the
    service/store/compile span tree, exported per request."""
    import os

    async def disk_warm(host, port, server, log_path, trace_dir):
        warm = await _request(
            host, port, dict(_compile_req(TWO_NEST_COPY), rid="t-warm")
        )
        assert warm["status"] == "warm"
        r = await _request(host, port, {"op": "requests"})
        return r["requests"], trace_dir

    async def body(host, port, server, log_path, trace_dir):
        cold = await _request(
            host, port, dict(_compile_req(TWO_NEST_COPY), rid="t-cold")
        )
        assert cold["status"] == "cold"
        r = await _request(host, port, {"op": "requests"})
        # the disk-warm leg: a second server process on the same cache
        # dir (this one would answer from its resident kernel)
        warm_rows, warm_traces = await _with_telemetry_server(
            tmp_path, disk_warm
        )
        rows = {row["rid"]: row for row in r["requests"] + warm_rows}
        cold_names = set(rows["t-cold"]["span_names"])
        # serve tier, service tier and store tier all present
        assert {"serve.request", "service.compile", "store.put"} <= cold_names
        warm_names = set(rows["t-warm"]["span_names"])
        assert {"serve.request", "store.get"} <= warm_names
        assert "store.put" not in warm_names  # warm answers don't write

        from repro.bench.trace import validate_trace_document

        for rid in ("t-cold", "t-warm"):
            path = os.path.join(trace_dir, f"request-{rid}.json")
            doc = json.loads(open(path).read())
            assert validate_trace_document(doc) == []
            events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
            roots = [e for e in events if e["name"] == "serve.request"]
            assert len(roots) == 1
            # every other event sits inside the root's time range
            root = roots[0]
            lo, hi = root["ts"], root["ts"] + root["dur"]
            for e in events:
                assert lo <= e["ts"] and e["ts"] + e["dur"] <= hi

    asyncio.run(_with_telemetry_server(tmp_path, body))


def test_run_request_trace_contains_runtime_task_spans(tmp_path):
    import os

    async def body(host, port, server, log_path, trace_dir):
        req = dict(_compile_req(TWO_NEST_COPY))
        req.update(
            {"op": "run", "backend": "threads", "workers": 2, "rid": "t-run"}
        )
        resp = await _request(host, port, req)
        assert resp["ok"] and resp["match"] is True
        doc = json.loads(
            open(os.path.join(trace_dir, "request-t-run.json")).read()
        )
        names = {
            e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert "serve.run" in names
        assert any(n.startswith("task.") for n in names)
        ring = await _request(host, port, {"op": "requests"})
        row = next(r for r in ring["requests"] if r["rid"] == "t-run")
        assert row["tasks"] > 0 and row["spans"] > row["tasks"]

    asyncio.run(_with_telemetry_server(tmp_path, body))


def test_request_log_and_final_metrics_snapshot(tmp_path):
    import os

    async def body(host, port, server, log_path, trace_dir):
        await _request(host, port, _compile_req(TWO_NEST_COPY))
        await _request(host, port, {"op": "ping", "rid": "p1"})
        return log_path

    log_path = asyncio.run(_with_telemetry_server(tmp_path, body))
    entries = [
        json.loads(ln) for ln in open(log_path).read().splitlines()
    ]
    ops = [e["op"] for e in entries]
    assert "compile" in ops and "ping" in ops
    for e in entries:
        assert {"rid", "op", "ts", "ok", "wall_ms"} <= set(e)
    # shutdown persisted the last-session metrics next to the artifacts
    from repro.store import load_metrics_snapshot

    snap = load_metrics_snapshot(str(tmp_path / "cache"))
    assert snap is not None
    assert snap["counters"]["requests"] >= 3
    assert any(
        k.startswith("serve.latency_ms") for k in snap["metrics"]["histograms"]
    )


def test_final_snapshot_writes_each_series_once(tmp_path):
    """``metrics-last.json`` is the live ``metrics`` verb's registry: no
    series key under two kinds, the store series as gauges of this
    server's store."""

    async def body(host, port, server, log_path, trace_dir):
        await _request(host, port, _compile_req(TWO_NEST_COPY))
        live = await _request(host, port, {"op": "metrics"})
        return live["metrics"], server.store.stats().counters

    live, store_counters = asyncio.run(_with_telemetry_server(tmp_path, body))
    from repro.store import load_metrics_snapshot

    metrics = load_metrics_snapshot(str(tmp_path / "cache"))["metrics"]
    kinds: dict[str, list[str]] = {}
    for kind, series in metrics.items():
        for key in series:
            kinds.setdefault(key, []).append(kind)
    assert {k: v for k, v in kinds.items() if len(v) > 1} == {}
    for name, value in store_counters.items():
        assert metrics["gauges"][f"store.{name}"] == value
        assert f"store.{name}" in live["gauges"]


def test_no_telemetry_keeps_legacy_behaviour(tmp_path):
    async def body(host, port, server):
        pong = await _request(host, port, {"op": "ping", "rid": "x"})
        assert pong == {"ok": True, "pong": True}  # no rid echo
        m = await _request(host, port, {"op": "metrics"})
        assert not m["ok"] and "telemetry" in m["error"]
        h = await _request(host, port, {"op": "health"})
        assert h["ok"]  # health degrades gracefully
        r = await _request(host, port, {"op": "requests"})
        assert not r["ok"]

    async def harness():
        loop = asyncio.get_running_loop()
        ready: asyncio.Future = loop.create_future()
        task = asyncio.ensure_future(
            serve(
                port=0, cache_dir=str(tmp_path), workers=2,
                ready=ready, announce=lambda *_: None, telemetry=False,
            )
        )
        host, port, server = await asyncio.wait_for(ready, 30)
        try:
            await body(host, port, server)
        finally:
            await _request(host, port, {"op": "shutdown"})
            await asyncio.wait_for(task, 30)

    asyncio.run(harness())
