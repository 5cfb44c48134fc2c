"""The served path: a real ``python -m repro serve`` child, spoken to
over its public newline-JSON protocol, under a closed loop of clients.

Closed loop: each client sends its next request only after the previous
reply is parsed, so a slower server receives less load.  Callers of a
compile service wait for their artifact, which is what this models.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import socket
import subprocess
import sys
import threading
import time

#: a request that takes longer than this failed (the per-op deadline)
REQUEST_DEADLINE_S = 30.0
START_DEADLINE_S = 60.0


class ServerChild:
    """Owns one ``repro serve`` process and its cache directory."""

    def __init__(self, checkout: str, cache_dir: str, workers: int):
        self.checkout = checkout
        self.cache_dir = cache_dir
        self.workers = workers
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> float:
        """Spawn, wait for the announcement and one pong; returns the
        seconds from spawn to a serving process."""
        env = dict(os.environ)
        src = os.path.join(self.checkout, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["PYTHONUNBUFFERED"] = "1"  # the announcement must not sit in a pipe buffer
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", self.cache_dir,
                "--workers", str(self.workers),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=self.checkout,
        )
        deadline = time.monotonic() + START_DEADLINE_S
        while self.address is None:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], max(0.0, remaining)
            )
            if not ready:
                raise TimeoutError("repro serve did not announce in time")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.poll()} "
                    "before announcing"
                )
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
        if not self.request({"op": "ping"}).get("pong"):
            raise RuntimeError("repro serve did not answer ping")
        return time.perf_counter() - t0

    def request(self, payload: dict, timeout: float = REQUEST_DEADLINE_S) -> dict:
        """One request on its own connection (as ``ServeClient`` does)."""
        with socket.create_connection(self.address, timeout=timeout) as sock:
            sock.sendall(json.dumps(payload).encode() + b"\n")
            chunks = []
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        if not chunks:
            raise ConnectionError("empty response from repro serve")
        return json.loads(b"".join(chunks))

    def peak_rss_mb(self) -> float:
        """The child's high-water RSS, read from outside (Linux)."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except (OSError, ValueError, AttributeError):
            pass
        return 0.0

    def stop(self) -> None:
        """Shut down politely, then by signal; always reaps the child and
        removes its cache directory."""
        proc, self.proc = self.proc, None
        try:
            if proc is not None and proc.poll() is None:
                try:
                    if self.address is not None:
                        self.request({"op": "shutdown"}, timeout=5.0)
                    proc.wait(timeout=10.0)
                except (OSError, ValueError, subprocess.TimeoutExpired):
                    proc.terminate()
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            if proc is not None and proc.stdout is not None:
                proc.stdout.close()
        finally:
            self.address = None
            shutil.rmtree(self.cache_dir, ignore_errors=True)


def _payload(case, verb: str, workers: int) -> dict:
    payload = {
        "op": verb,
        "source": case.source,
        "params": case.params,
        "options": case.options,
    }
    if verb == "run":
        payload.update(backend="serial", workers=workers)
    return payload


def reply_ok(reply: dict, verb: str, expected_sums: dict) -> bool:
    """A reply counts only if the server said ok and, for ``run``, both
    its own oracle and the ledger's reference checksums agree."""
    if not reply.get("ok"):
        return False
    if reply.get("status") not in ("cold", "warm", "inflight"):
        return False
    if verb == "run":
        return bool(reply.get("match")) and reply.get("checksums") == expected_sums
    return True


def _ask(server: ServerChild, prep, verb: str, workers: int, rid: str):
    """One timed request: ``(ok, reply, start ns, end ns)``.  A transport
    error or a deadline is a reply that is not ok."""
    payload = _payload(prep.case, verb, workers)
    # the server echoes a client rid and files its own account of the
    # request under it (read back by the traced pass)
    payload["rid"] = rid
    start_ns = time.perf_counter_ns()
    try:
        reply = server.request(payload)
        ok = reply_ok(reply, verb, prep.served_sums)
    except (OSError, ValueError) as exc:
        ok, reply = False, {"error": repr(exc)}
    return ok, reply, start_ns, time.perf_counter_ns()


def cold_compiles(server: ServerChild, prepared, tally, workers: int) -> list:
    """Compile every kernel once against the empty store; per-kernel ms."""
    out = []
    for k, prep in enumerate(prepared):
        tally.attempted += 1
        ok, reply, start_ns, end_ns = _ask(
            server, prep, "compile", workers, f"ledger-cold-{k}"
        )
        out.append((end_ns - start_ns) / 1e6)
        if not (ok and reply.get("status") == "cold"):
            tally.fail(
                f"served cold compile {prep.case.id}",
                reply.get("error") or f"status {reply.get('status')!r}",
            )
    return out


def closed_loop(
    server: ServerChild,
    prepared,
    tally,
    sequences,
    start: int,
    count: int,
    workers: int,
    on_reply=None,
) -> list:
    """One closed-loop burst: client ``k`` sends requests
    ``sequences[k][start : start + count]``, each only after the previous
    reply is parsed.  Returns ``[(verb, case index, status, ms), ...]``
    for the requests answered correctly; the rest count as failed.

    ``on_reply(client, verb, case_index, start_ns, end_ns, reply)`` is
    the traced pass's hook; it runs outside the timed interval.
    """
    lock = threading.Lock()
    good: list[tuple[str, int, str, float]] = []
    errors: list[str] = []

    def client(k: int) -> None:
        for n in range(start, start + count):
            verb, ci = sequences[k][n]
            prep = prepared[ci]
            ok, reply, start_ns, end_ns = _ask(
                server, prep, verb, workers, f"ledger-{k}-{n}"
            )
            with lock:
                if ok:
                    good.append(
                        (verb, ci, reply["status"], (end_ns - start_ns) / 1e6)
                    )
                else:
                    errors.append(
                        f"served {verb} {prep.case.id}: "
                        f"{reply.get('error') or 'wrong answer'}"
                    )
            if on_reply is not None:
                on_reply(k, verb, ci, start_ns, end_ns, reply)

    threads = [
        threading.Thread(target=client, args=(k,), name=f"ledger-client-{k}")
        for k in range(len(sequences))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    tally.attempted += len(good) + len(errors)
    for err in errors:
        tally.fail(err)
    return good
