#!/usr/bin/env python
"""Which functions of ``src/repro`` does the product actually call?

Sizes a deletion from traffic instead of from reading: a temporary
``sitecustomize.py`` on ``PYTHONPATH`` installs a ``sys.setprofile`` /
``threading.setprofile`` hook in **every** Python process started below
this one (CLI commands, the ``repro serve`` children of the smoke and of
the ledger, pool workers — forked ones inherit the hook, spawned ones
re-import it), and each process appends the ``(file, first line)`` of
every ``src/repro`` function the first time it is entered.  The tool then
runs the product — all 13 subcommands with every ``run`` flag and
backend (``profile`` also on a chain-merged Table 9 kernel),
``tools/serve_smoke.py`` plus one ``serve`` + ``top --once`` pair, the
examples, the measuring tools, the figure regenerators under
``benchmarks/`` (the nightly smoke step) and the four ledger workloads
(both passes) — and prints, per module, the
lines that sit inside functions nothing called.  It asserts nothing and
exits 0; the nightly CI job uploads the table.

A function "called" only by the test suite counts as uncalled here on
purpose: tests keep code correct, they do not make it needed.

Usage::

    python tools/traffic_trace.py
        [--groups cli,serve,examples,tools,benchmarks,ledger]
        [--names PREFIX] [--out traffic.txt]
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
sys.path.insert(0, os.path.join(REPO, "src"))
KERNELS = os.path.join("examples", "kernels")

#: body of the temporary ``sitecustomize.py``; the output directory and
#: the source root are baked in as literals (no environment variable).
HOOK = """\
import os, sys, threading

_OUT = {out!r}
_SRC = {src!r}
_seen = set()
_sink = [None, None]  # (pid, fd): a forked worker opens its own file


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    path = os.path.abspath(code.co_filename)
    if not path.startswith(_SRC):
        return
    pid = os.getpid()
    if _sink[0] != pid:
        _sink[:] = [pid, os.open(
            os.path.join(_OUT, "%d.calls" % pid),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
        )]
    # one O_APPEND write per line: safe across threads and after kill
    os.write(_sink[1], ("%s\\t%d\\n" % (path, code.co_firstlineno)).encode())


sys.setprofile(_hook)
threading.setprofile(_hook)
"""

#: ``repro top`` needs a live server: a no-cache ``repro serve`` child,
#: one ``top --once`` against its announced port, then SIGTERM.
SERVE_AND_TOP = """\
import re, subprocess, sys

srv = subprocess.Popen(
    [sys.executable, "-u", "-m", "repro", "serve", "--port", "0", "--no-cache"],
    stdout=subprocess.PIPE, text=True,
)
try:
    port = re.search(r":(\\d+)", srv.stdout.readline()).group(1)
    subprocess.run(
        [sys.executable, "-m", "repro", "top", "--port", port, "--once"],
        check=True, timeout=60,
    )
finally:
    srv.terminate()
    srv.wait(timeout=60)
"""


def product_commands(tmp: str) -> dict[str, list[list[str]]]:
    """The traffic, by group; every path it writes is under ``tmp``."""
    from repro.workloads import TABLE9

    py = sys.executable

    def repro(*args: str) -> list[str]:
        return [py, "-m", "repro", *args]

    def k(name: str) -> str:
        return os.path.join(KERNELS, name + ".c")

    n12 = ("--param", "N=12")
    store = os.path.join(tmp, "store")
    # P5's four nests fuse into S1+S2+S3+S4 chains: its profile expands
    # merged events back onto the unfused graph
    p5 = os.path.join(tmp, "p5.c")
    with open(p5, "w", encoding="utf-8") as fh:
        fh.write(TABLE9["P5"].source(12))
    run = [
        (),
        ("--hybrid",),
        ("--timeline",),
        ("--coarsen", "3"),
        ("--workers", "2", "--exec-backend", "serial"),
        ("--workers", "2", "--exec-backend", "threads"),
        ("--workers", "2", "--exec-backend", "processes"),
        ("--hybrid", "--workers", "2", "--exec-backend", "processes"),
        ("--exec-backend", "threads",
         "--trace", os.path.join(tmp, "trace.json"),
         "--metrics", os.path.join(tmp, "metrics.json")),
        ("--fuse", "on"),
        ("--fuse", "off"),
        ("--cache-dir", store),
        ("--cache-dir", store),  # the warm load
        ("--cache-dir", store, "--no-cache"),
    ]
    cli = [repro("run", k("listing1"), *n12, *flags) for flags in run]
    cli += [
        repro("run", k("listing3"), *n12),
        repro("run", k("reversed"), *n12),
        repro("run", k("subswap"), *n12),  # the all-kinds fallback
        repro("run", k("histogram"), *n12, "--privatize"),
        repro("run", k("histogram"), *n12, "--privatize", "--hybrid",
              "--exec-backend", "threads", "--cache-dir", store),
        repro("run", k("histogram"), *n12, "--privatize", "--hybrid",
              "--exec-backend", "threads", "--cache-dir", store),
        repro("run", k("sumstencil"), *n12, "--privatize",
              "--privatize-parts", "3", "--exec-backend", "processes",
              "--workers", "2"),
        repro("run", k("dotprod"), *n12, "--privatize"),
        repro("run", k("subswap"), *n12, "--privatize"),
        repro("analyze", k("listing1"), *n12),
        repro("analyze", k("listing3"), *n12, "--stats"),
        repro("analyze", k("reversed"), *n12, "--format", "json"),
        repro("analyze", k("listing1"), *n12, "--format", "sarif"),
        repro("analyze", k("histogram"), *n12, "--portfolio"),
        repro("analyze", k("listing1"), *n12, "--cache-dir", store),
        repro("lint", k("listing1"), *n12),
        repro("lint", k("dotprod"), *n12, "--deep"),
        repro("lint", k("listing3"), *n12, "--deep", "--format", "json"),
        repro("lint", k("subswap"), *n12, "--deep", "--format", "sarif"),
        repro("profile", k("listing1"), *n12, "--workers", "2"),
        repro("profile", k("listing3"), *n12, "--workers", "2",
              "--backend", "serial", "--policy", "cp", "--fuse", "off",
              "--format", "json", "--out", os.path.join(tmp, "profile.json")),
        repro("profile", k("listing1"), *n12, "--workers", "2",
              "--backend", "processes", "--policy", "lifo",
              "--cache-dir", store),
        repro("profile", p5, "--backend", "serial", "--format", "json"),
        repro("codegen", k("listing1"), *n12),
        repro("codegen", k("subswap"), "--param", "N=8"),
        repro("deps", k("listing3"), *n12, "--dot"),
        repro("table9"),
        repro("report", "--out", os.path.join(tmp, "evaluation"),
              "--sizes", "8", "--matrix-size", "6"),
        repro("figure10", "--sizes", "8", "--workers", "2"),
        repro("figure10", "--sizes", "8", "--workers", "2", "--measured"),
        repro("figure11", "--matrix-size", "6", "--workers", "2"),
        repro("figure11", "--matrix-size", "6", "--workers", "2",
              "--measured"),
        repro("store", "stats", "--cache-dir", store),
        repro("store", "gc", "--cache-dir", store, "--max-entries", "1"),
        repro("store", "clear", "--cache-dir", store),
    ]
    def tool(name: str, *args: str) -> list[str]:
        return [py, os.path.join("tools", name), *args]

    return {
        "cli": cli,
        # `serve` runs inside the smoke: a real server child answering
        # cold / resident / disk-warm requests
        "serve": [
            tool("serve_smoke.py", "--artifacts", os.path.join(tmp, "smoke")),
            [py, "-c", SERVE_AND_TOP],
        ],
        "examples": [
            [py, os.path.relpath(path, REPO)]
            for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py")))
        ],
        "tools": [
            tool("kernel_crossover.py", "--seconds", "0.01"),
            tool("sched_overhead.py", "--repeats", "5"),
            tool("portfolio_report.py", "--out",
                 os.path.join(tmp, "portfolio.json")),
        ],
        "benchmarks": [
            [py, "-m", "pytest", "benchmarks/", "-q", "--benchmark-disable",
             "-p", "no:cacheprovider"],
        ],
        "ledger": [
            [py, os.path.join("ledger", "run.py"), "--workload", name]
            for name in ("coarse_p", "fine_p", "opaque_stage", "reduction")
        ],
    }


def functions_of(path: str) -> list[tuple[int, int, str]]:
    """``(first line, last line, qualified name)`` of every ``def`` in a
    file; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                out.append((first, child.end_lineno, name))
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
            walk(child, name)

    walk(tree, "")
    return out


def collect(calls_dir: str) -> set[tuple[str, int]]:
    called = set()
    for path in glob.glob(os.path.join(calls_dir, "*.calls")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                name, _, lineno = line.rstrip("\n").rpartition("\t")
                if name:
                    called.add((name, int(lineno)))
    return called


def tabulate(called: set[tuple[str, int]], names: str | None) -> str:
    """Per-module and per-package lines inside functions nothing called
    (a nested ``def`` of an uncalled function is counted once)."""
    rows = []
    uncalled_names = []
    for path in sorted(
        glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)
    ):
        rel = os.path.relpath(path, SRC)
        with open(path, encoding="utf-8") as fh:
            total = sum(1 for _ in fh)
        funcs = functions_of(path)
        dead_lines: set[int] = set()
        dead = 0
        for first, last, name in funcs:
            if (path, first) in called:
                continue
            dead += 1
            dead_lines.update(range(first, last + 1))
            if names is not None and rel.startswith(names):
                uncalled_names.append(f"  {rel}:{first} {name} ({last - first + 1})")
        rows.append((rel, total, len(funcs), dead, len(dead_lines)))

    packages: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for rel, *counts in rows:
        head = rel.split(os.sep)[0] if os.sep in rel else "(top level)"
        for k, v in enumerate(counts):
            packages[head][k] += v

    fmt = "{:<36} {:>7} {:>6} {:>9} {:>10}"
    header = fmt.format("module", "lines", "defs", "uncalled", "unc.lines")
    lines = [header, "-" * len(header)]
    for rel, *counts in sorted(rows, key=lambda r: (-r[4], r[0])):
        if counts[3]:
            lines.append(fmt.format(rel, *counts))
    lines += ["", fmt.format("package", "lines", "defs", "uncalled", "unc.lines"),
              "-" * len(header)]
    for head, counts in sorted(packages.items(), key=lambda kv: -kv[1][3]):
        lines.append(fmt.format(head + ("/" if head[0] != "(" else ""), *counts))
    lines.append(fmt.format("src/repro", *map(sum, zip(*packages.values()))))
    if uncalled_names:
        lines += ["", f"uncalled functions under {names!r} (lines):"]
        lines += uncalled_names
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--groups", default="cli,serve,examples,tools,benchmarks,ledger",
        help="comma-separated traffic groups to run (default: all; the "
        "ledger group is ~2 min)",
    )
    ap.add_argument(
        "--names", default=None, metavar="PREFIX",
        help="also list the uncalled functions of modules whose path "
        "under src/repro starts with PREFIX (e.g. presburger/)",
    )
    ap.add_argument("--out", help="also write the table here")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    failed = []
    with tempfile.TemporaryDirectory(prefix="repro-traffic-") as tmp:
        hook_dir = os.path.join(tmp, "hook")
        calls_dir = os.path.join(tmp, "calls")
        os.makedirs(hook_dir)
        os.makedirs(calls_dir)
        with open(
            os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8"
        ) as fh:
            fh.write(HOOK.format(out=calls_dir, src=SRC + os.sep))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(REPO, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env.pop("REPRO_CACHE_DIR", None)  # only the stores named below
        groups = product_commands(tmp)
        count = 0
        for group in args.groups.split(","):
            for cmd in groups[group]:
                count += 1
                proc = subprocess.run(
                    cmd, cwd=REPO, env=env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    text=True,
                )
                if proc.returncode:
                    tail = (proc.stderr or "").strip().splitlines()[-1:]
                    failed.append(
                        f"  exit {proc.returncode}: {' '.join(cmd[1:])}"
                        + (f"  ({tail[0]})" if tail else "")
                    )
        called = collect(calls_dir)
        processes = len(os.listdir(calls_dir))

    text = (
        f"traffic: {count} commands ({args.groups}), {processes} traced "
        f"processes, {len(called)} functions entered, "
        f"{time.perf_counter() - t0:.0f} s\n\n" + tabulate(called, args.names)
    )
    if failed:
        text += "\n\ncommands that exited non-zero (their traffic still counts):\n"
        text += "\n".join(failed)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
