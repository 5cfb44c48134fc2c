"""``repro serve`` — an asyncio compile(+run) front end over a socket.

Newline-delimited JSON over a local TCP socket.  Requests::

    {"op": "ping"}
    {"op": "compile", "source": "...", "params": {"N": 32},
     "options": { ... TransformOptions fields ... }}
    {"op": "run", "source": "...", "params": {...}, "options": {...},
     "backend": "serial", "workers": 4}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "health"}
    {"op": "requests", "n": 32}
    {"op": "shutdown"}

Every response is one JSON object with ``"ok"`` and, on failure,
``"error"``.  ``compile`` answers carry ``"status"``:

* ``"cold"``    — this request ran Algorithm 1/2 (and stored the result);
* ``"warm"``    — answered without compiling: from the kernel this
  process already holds (a *resident* hit, ``tier: "memory"`` in the
  request log), else from the artifact store;
* ``"inflight"`` — an identical compile was already running; this
  request awaited its future (N simultaneous identical requests pay
  exactly one compile);
* ``"direct"``  — caching disabled (``--no-cache``), compiled in place.

Compiles run on a thread pool so the event loop keeps accepting
requests.  Their futures live in one bounded LRU map, key → future of
``(interpreter, analysis)``, that *keeps* its entries once they resolve:
a repeat of a key this process has answered is served from that object
on the event loop — no parse, no store read, no deserialization, and a
``run`` replays the ``ExecPlan`` already lowered on the resident
interpreter.  The map is only touched on the loop, so it needs no lock.
``run`` replays the compiled kernel on a copy of its initial arrays
(built once per resident kernel and kept frozen with it, see
:meth:`~repro.interp.Interpreter.new_store`), compares that replay's arrays with
the interpreter's sequential oracle (computed on the first ``run`` of a
resident kernel and kept read-only with it, see
:meth:`~repro.interp.Interpreter.oracle`) and returns a SHA-256 checksum
per output array — the bit-identity handshake the store-equivalence
tests build on — on every request, resident or not.  A malformed
request is refused with
``bad request: <what>`` before any work; a request line over
``REQUEST_LIMIT`` bytes with ``request too large: …`` (and the
connection is closed — after ``OVERSIZE_DRAIN_S`` at the latest when
the client stops sending mid-line).

Telemetry (on by default, ``telemetry=False`` to disable): every
request gets an id (a client's ``"rid"`` when it is a string matching
``[A-Za-z0-9_-]{1,64}``, else server-assigned — the reply echoes the one
in force) whose root span parents the whole service span tree — ``service.compile``
→ ``store.get``/``put`` → driver compile phases, and for ``run``
requests ``serve.run`` → ``serve.oracle`` (first run of a key only) and
``exec.*`` — exported per request as a Perfetto trace (``trace_dir``,
which is also what makes a ``run`` collect its per-task ``task.<stmt>``
spans) and as one structured JSONL line (``log_path``).  The
``metrics``/``health``/``requests`` verbs expose
the live registry (latency p50/p95/p99 per verb and cache status,
in-flight gauge, error counters, store hit rate, and the registry in
Prometheus text format) over the same protocol.  On shutdown a final metrics
snapshot is persisted next to the cache dir (``metrics-last.json``) and
surfaced by ``repro store stats``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..driver import analyze, replay, validate_options
from ..interp.executor import BACKEND_ALIASES, MAX_WORKERS
from ..obs import spans as obs_spans
from ..obs.service import RequestTelemetry
from ..store import ArtifactStore
from ..store.disk import save_metrics_snapshot
from .compile import cached_analysis, options_from_dict, plan_fusion

#: Compiled kernels one serving process keeps (LRU over resolved entries;
#: a pending compile is never evicted).
RESIDENT_KERNELS = 64

#: Longest request line accepted, in bytes — sized for real kernel
#: sources (asyncio's 64 KiB default is not).
REQUEST_LIMIT = 8 << 20

#: Seconds an over-limit line gets to reach its newline once the limit
#: has tripped; a client that stalls mid-line is refused and hung up on
#: rather than holding its connection coroutine for ever.
OVERSIZE_DRAIN_S = 10.0


class BadRequest(ValueError):
    """A request refused before any work; ``str()`` is the reply's error."""


def _validate(req) -> None:
    """The protocol's shape check, in one place (raises BadRequest)."""

    def refuse(what: str):
        raise BadRequest(f"bad request: {what}")

    def is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    if not isinstance(req, dict):
        refuse("the request must be a JSON object")
    if not isinstance(req.get("op"), str):
        refuse("'op' must be a string")
    if req["op"] not in ("compile", "run"):
        return
    if not isinstance(req.get("source"), str):
        refuse("'source' must be a string")
    params, options = req.get("params"), req.get("options")
    if params is not None and not (
        isinstance(params, dict) and all(map(is_int, params.values()))
    ):
        refuse("'params' must be an object of integers")
    if options is not None and not isinstance(options, dict):
        refuse("'options' must be an object")
    workers = req.get("workers")
    if workers is not None and not (
        is_int(workers) and 1 <= workers <= MAX_WORKERS
    ):
        refuse(f"'workers' must be an integer from 1 to {MAX_WORKERS}")
    backend = req.get("backend")
    if backend is not None and not (
        isinstance(backend, str) and backend in BACKEND_ALIASES
    ):
        refuse("'backend' must be one of " + ", ".join(BACKEND_ALIASES))


def _checksums(store) -> dict[str, str]:
    """SHA-256 per array of one execution's output store."""
    return {
        name: hashlib.sha256(
            view.data.tobytes(order="C")
        ).hexdigest()
        for name, view in sorted(store.arrays.items())
    }


class ReproServer:
    """One serving process: a store, a thread pool, the resident kernels."""

    def __init__(
        self,
        store: ArtifactStore | None,
        workers: int = 4,
        telemetry: RequestTelemetry | None = None,
    ):
        self.store = store
        self.executor = ThreadPoolExecutor(max_workers=max(1, workers))
        #: key -> future of (interp, analysis), least recently used
        #: first; resolved entries stay (bounded by RESIDENT_KERNELS),
        #: failed ones are dropped; loop-only state
        self.resident: OrderedDict[str, asyncio.Future] = OrderedDict()
        self.counters: dict[str, int] = {
            "requests": 0,
            "compiles": 0,
            "store_hits": 0,
            "resident_hits": 0,
            "inflight_hits": 0,
            "errors": 0,
        }
        self.telemetry = telemetry
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    def _compile_sync(
        self, source: str, params: dict, options, root_id: int,
        t_submit: float,
    ):
        """Blocking compile (executor thread): store-aware when enabled.

        ``root_id`` is the requesting client's root span id — adopting
        it here is what nests ``service.compile``/``store.*``/driver
        phase spans under the request.  ``t_submit`` (perf_counter at
        executor submission) yields the queue wait.
        """
        from ..interp import Interpreter

        t_start = time.perf_counter()
        with obs_spans.parented(root_id):
            interp = Interpreter.from_source(
                source, params, fuse=options.fuse
            )
            if self.store is not None:
                analysis, status = cached_analysis(
                    interp, source, params, options, self.store
                )
            else:
                with obs_spans.span("service.compile", status="direct"):
                    analysis = analyze(interp, options)
                    plan_fusion(interp, options, analysis)
                interp.scop.dependence_table().clear()
                status = "direct"
        timings = {
            "queue_wait_ms": round((t_start - t_submit) * 1e3, 3),
            "compile_ms": round((time.perf_counter() - t_start) * 1e3, 3),
        }
        return interp, analysis, status, timings

    def _pending(self) -> int:
        """Compiles still running (unresolved futures of the map)."""
        return sum(not f.done() for f in self.resident.values())

    def _evict(self) -> None:
        """Drop least-recently-used *resolved* kernels down to the bound."""
        excess = len(self.resident) - RESIDENT_KERNELS
        if excess > 0:
            done = [k for k, f in self.resident.items() if f.done()]
            for key in done[:excess]:
                del self.resident[key]

    async def _compiled(self, req: dict, rtel=None):
        """(key, interp, analysis, status) through the resident map."""
        from ..store import artifact_key

        source = req["source"]
        params = dict(req.get("params") or {})
        try:
            options = options_from_dict(req.get("options") or {})
            validate_options(options)
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"bad request: 'options': {exc}") from exc
        key = artifact_key(source, params, options)

        existing = self.resident.get(key)
        if existing is not None:
            self.resident.move_to_end(key)
            if existing.done():
                status, tier, counter = "warm", "memory", "resident_hits"
            else:
                status, tier, counter = "inflight", None, "inflight_hits"
            self.counters[counter] += 1
            interp, analysis = await asyncio.shield(existing)
            if rtel is not None:
                rtel.set(key=key, status=status, tier=tier)
            return key, interp, analysis, status

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self.resident[key] = future
        self._evict()
        try:
            interp, analysis, status, timings = await loop.run_in_executor(
                self.executor,
                self._compile_sync,
                source,
                params,
                options,
                rtel.root_id if rtel is not None else 0,
                time.perf_counter(),
            )
        except BaseException as exc:
            # A failed compile is not retained: the next request retries.
            del self.resident[key]
            future.set_exception(exc)
            # Don't let "exception never retrieved" warnings fire when
            # nobody else awaited this future.
            future.exception()
            raise
        future.set_result((interp, analysis))
        self._evict()
        if status in ("cold", "direct"):
            self.counters["compiles"] += 1
        elif status == "warm":
            self.counters["store_hits"] += 1
        if rtel is not None:
            rtel.set(key=key, status=status, **timings)
        return key, interp, analysis, status

    # ------------------------------------------------------------------
    async def _handle_request(self, req: dict, rtel=None) -> dict[str, Any]:
        self.counters["requests"] += 1
        _validate(req)
        op = req["op"]
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            out: dict[str, Any] = {
                "ok": True,
                "counters": dict(self.counters),
                "inflight": self._pending(),
                "resident": len(self.resident),
            }
            if self.store is not None:
                out["store"] = self.store.stats().as_dict()
            if self.telemetry is not None:
                out["telemetry"] = self.telemetry.health()
            return out
        if op == "metrics":
            if self.telemetry is None:
                return {"ok": False, "error": "telemetry disabled"}
            reg = self._registry_snapshot()
            return {
                "ok": True,
                "metrics": reg.as_dict(),
                "prometheus": reg.export_prometheus(),
            }
        if op == "health":
            out = (
                self.telemetry.health()
                if self.telemetry is not None
                else {"ok": True}
            )
            out["counters"] = dict(self.counters)
            out["inflight_compiles"] = self._pending()
            return out
        if op == "requests":
            if self.telemetry is None:
                return {"ok": False, "error": "telemetry disabled"}
            n = req.get("n")
            return {
                "ok": True,
                "requests": self.telemetry.requests(
                    int(n) if n is not None else None
                ),
            }
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True, "stopping": True}
        if op == "compile":
            key, _, analysis, status = await self._compiled(req, rtel)
            return {
                "ok": True,
                "key": key,
                "status": status,
                "cache_status": status,
                "tasks": analysis.num_tasks,
                "privatized": analysis.privatized,
                "summary": analysis.info.summary(),
            }
        if op == "run":
            key, interp, analysis, status = await self._compiled(req, rtel)
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self.executor, self._run_sync, interp, analysis, req, rtel
            )
            result.update({"ok": True, "key": key, "status": status})
            return result
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _registry_snapshot(self):
        """The telemetry registry with live store/server gauges folded in."""
        reg = self.telemetry.registry
        if self.store is not None:
            st = self.store.stats()
            reg.gauge("store.entries", st.entries)
            reg.gauge("store.bytes", st.bytes)
            looked = st.counters.get("hits", 0) + st.counters.get(
                "misses", 0
            )
            for name, value in st.counters.items():
                reg.gauge(f"store.{name}", value)
            if looked:
                reg.gauge(
                    "store.hit_rate",
                    round(st.counters.get("hits", 0) / looked, 4),
                )
        for name, value in self.counters.items():
            reg.gauge(f"serve.counter.{name}", value)
        reg.gauge("serve.queue_depth", self._pending())
        reg.gauge("serve.resident_kernels", len(self.resident))
        interps = [f.result()[0] for f in self.resident.values() if f.done()]
        reg.gauge(
            "serve.resident_oracle_bytes",
            sum(interp.oracle_bytes for interp in interps),
        )
        reg.gauge(
            "serve.resident_input_bytes",
            sum(interp.input_bytes for interp in interps),
        )
        return reg

    def _run_sync(self, interp, analysis, req: dict, rtel=None) -> dict[str, Any]:
        """One replay of a compiled analysis, compared with the
        interpreter's oracle; returns this replay's checksums + match.

        Per-task runtime events are collected only for a request whose
        trace is written (``rtel.traced``): they are a trace product,
        and the request row carries the task count either way.
        """
        backend = req.get("backend", "serial")
        workers = req.get("workers") or 4
        root_id = rtel.root_id if rtel is not None else 0
        traced = rtel is not None and rtel.traced
        t0 = time.perf_counter()
        with obs_spans.parented(root_id):
            with obs_spans.span(
                "serve.run", backend=backend, workers=workers
            ):
                out, stats, (match, _detail) = replay(
                    interp, analysis, backend, workers,
                    collect_events=traced,
                    oracle=interp.oracle("serve.oracle"),
                )
        run_ms = (time.perf_counter() - t0) * 1e3
        if rtel is not None:
            rtel.set(
                run_ms=round(run_ms, 3),
                backend=backend,
                match=bool(match),
                tasks=stats.tasks,
            )
            rtel.attach_runtime(stats.events)  # None unless traced
        return {
            "match": bool(match),
            "wall_s": run_ms / 1e3,
            "checksums": _checksums(out),
        }

    # ------------------------------------------------------------------
    @staticmethod
    async def _read_line(reader) -> bytes | None:
        """The next request line (``b""`` at EOF), or ``None`` for one
        over ``REQUEST_LIMIT`` — discarded through its newline, so the
        refusal is written to a client that has finished sending, but for
        at most ``OVERSIZE_DRAIN_S``: a client that stalls mid-line is
        refused then.  A normal read has no deadline."""
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial
        except asyncio.LimitOverrunError:
            pass

        async def drain() -> None:
            # the connection closes after the refusal, so whatever
            # follows the newline in a chunk is dropped with it
            while True:
                chunk = await reader.read(1 << 16)
                if not chunk or b"\n" in chunk:
                    return

        try:
            await asyncio.wait_for(drain(), OVERSIZE_DRAIN_S)
        except asyncio.TimeoutError:
            pass
        return None

    async def handle_connection(self, reader, writer):
        try:
            while True:
                line = await self._read_line(reader)
                if line == b"":
                    break
                req, error = None, None
                if line is None:
                    error = (
                        "request too large: one request line may not "
                        f"exceed {REQUEST_LIMIT} bytes"
                    )
                else:
                    try:
                        req = json.loads(line)
                    except ValueError as exc:
                        error = f"{type(exc).__name__}: {exc}"
                fields = req if isinstance(req, dict) else {}
                rtel = None
                if self.telemetry is not None:
                    rtel = self.telemetry.begin(
                        str(fields.get("op", "?")), rid=fields.get("rid")
                    )
                    rtel.set(bytes_in=len(line) if line else None)
                if error is None:
                    try:
                        resp = await self._handle_request(req, rtel)
                    except BadRequest as exc:
                        error = str(exc)
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                if error is not None:
                    self.counters["errors"] += 1
                    resp = {"ok": False, "error": error}
                if rtel is not None and "rid" in fields:
                    resp.setdefault("rid", rtel.rid)
                payload = json.dumps(resp).encode() + b"\n"
                if rtel is not None:
                    rtel.set(bytes_out=len(payload))
                    rtel.finish(
                        ok=bool(resp.get("ok")), error=resp.get("error")
                    )
                writer.write(payload)
                await writer.drain()
                if line is None or self._shutdown.is_set():
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------
    def final_snapshot(self) -> dict[str, Any]:
        """The metrics document persisted as ``metrics-last.json``: the
        registry the live ``metrics`` verb answers with, store series
        written once, as gauges of this server's store."""
        doc: dict[str, Any] = {
            "saved_at": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime()
            ),
            "counters": dict(self.counters),
        }
        if self.telemetry is not None:
            reg = self._registry_snapshot()
            doc["uptime_s"] = round(self.telemetry.uptime_s(), 3)
            doc["metrics"] = reg.as_dict()
        if self.store is not None:
            doc["store"] = self.store.stats().as_dict()
        return doc


async def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str | None = None,
    workers: int = 4,
    ready: "asyncio.Future | None" = None,
    announce=print,
    telemetry: bool = True,
    log_path: str | None = None,
    trace_dir: str | None = None,
) -> None:
    """Run the server until a ``shutdown`` request arrives.

    ``port=0`` binds an ephemeral port; the bound address is announced
    on stdout (and through ``ready`` when the caller passes a future —
    the in-process test harness does).  With ``telemetry`` (default),
    span recording is enabled for the process, every request is traced
    and logged (``log_path``/``trace_dir``), and the final metrics
    snapshot lands in ``<cache_dir>/metrics-last.json``.
    """
    store = ArtifactStore(cache_dir) if cache_dir is not None else None
    rtel = None
    spans_were_enabled = obs_spans.enabled()
    if telemetry:
        rtel = RequestTelemetry(log_path=log_path, trace_dir=trace_dir)
        obs_spans.enable()
    server = ReproServer(store, workers=workers, telemetry=rtel)
    tcp = await asyncio.start_server(
        server.handle_connection, host=host, port=port, limit=REQUEST_LIMIT
    )
    bound = tcp.sockets[0].getsockname()
    announce(f"repro serve listening on {bound[0]}:{bound[1]}")
    if ready is not None and not ready.done():
        ready.set_result((bound[0], bound[1], server))
    try:
        async with tcp:
            await server._shutdown.wait()
    finally:
        server.executor.shutdown(wait=True)
        if store is not None and rtel is not None:
            save_metrics_snapshot(store.root, server.final_snapshot())
        if rtel is not None:
            rtel.close()
            if not spans_were_enabled:
                obs_spans.disable()
