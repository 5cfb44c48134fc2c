"""Shared fixtures: the paper's kernels and small SCoP factories."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seed",
        type=int,
        default=20220822,
        help="seed of the differential fuzz harness (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-samples",
        type=int,
        default=48,
        help="number of random programs per fuzz test "
        "(raise to 200+ for a thorough run)",
    )
    parser.addoption(
        "--fuzz-reduce",
        action="store_true",
        default=False,
        help="run the 200-sample campaign on the lowered plans' reduced "
        "schedules, hybrid off and on: reachability of the unreduced "
        "quotient and a random-order replay (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-privatize",
        action="store_true",
        default=False,
        help="run the 200-sample privatized-parallel vs sequential "
        "execution agreement campaign (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-fuse",
        action="store_true",
        default=False,
        help="run the 2x200-sample fused-closure vs interpreter "
        "bit-equality differential campaign (tests/fuzz)",
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden codegen files instead of comparing",
    )


def pytest_collection_modifyitems(config, items):
    # tier-2 tests only run when explicitly selected (e.g. ``-m tier2``),
    # so the ROADMAP tier-1 verify line stays fast and unchanged.
    if "tier2" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="tier-2: run with -m tier2")
    for item in items:
        if "tier2" in item.keywords:
            item.add_marker(skip)

from repro.interp import Interpreter
from repro.scop import extract_scop
from repro.lang import parse

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);

for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""

LISTING3 = LISTING1 + """
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    U: C[i][j] = h(A[2*i][2*j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
"""

TWO_NEST_COPY = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: A[i][j] = f(A[i][j]);
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    T: B[i][j] = g(A[i][j], B[i][j]);
"""


#: (label, backend, fuse) — fused kernels on all three backends plus
#: the loop forms only (``fuse="off"``); the one execution battery of
#: the suite.
EXEC_CONFIGS = (
    ("interp-serial", "serial", "off"),
    ("fused-serial", "serial", "auto"),
    ("fused-threads", "threads", "auto"),
    ("fused-processes", "processes", "auto"),
)


#: ``repro.interp.fused.LOOP_FORM_POINTS`` values that force one kernel
#: form on every rectangle, whatever its size.
KERNEL_FORMS = {"slices": 0, "loops": 1 << 62}


@pytest.fixture(params=sorted(KERNEL_FORMS))
def kernel_form(request, monkeypatch):
    """Run the test once with every fused rectangle in slice form and
    once with every one in loop form (forked process workers inherit
    the patched constant)."""
    from repro.interp import fused

    monkeypatch.setattr(
        fused, "LOOP_FORM_POINTS", KERNEL_FORMS[request.param]
    )
    return request.param


def compile_for_exec(source, fuse, params=None, coarsen=16, funcs=None):
    """``(interp, info)`` of ``source``: what ``execute_measured`` takes."""
    from repro.pipeline import detect_pipeline, flow_then_all_kinds

    interp = Interpreter.from_source(source, params or {}, funcs, fuse=fuse)
    info, _ = flow_then_all_kinds(
        lambda kinds: detect_pipeline(
            interp.scop, kinds=kinds, coarsen=coarsen
        )
    )
    return interp, info


def run_measured(source, backend, fuse, params=None, workers=2, coarsen=16):
    """``execute_measured`` of ``source`` on a fresh interpreter."""
    from repro.interp import execute_measured

    interp, info = compile_for_exec(source, fuse, params, coarsen)
    return execute_measured(interp, info, backend=backend, workers=workers)


def run_whole_blocks(interp):
    """Execute every statement as one whole block (program order) through
    ``run_block`` — the statement's kernel over the block's rectangles,
    unlike ``run_sequential``, which never touches the block kernels."""
    store = interp.new_store()
    for stmt in interp.scop.statements:
        interp.run_block(store, stmt.name, stmt.points.points)
    return store


def fused_statements(interp):
    """Statements whose kernels have a slice form."""
    return {
        s.name
        for s in interp.scop.statements
        if interp.fused_program.get(s.name).fn is not None
    }


def assert_all_configs_match_sequential(
    source, params=None, coarsen=16, replays=1, funcs=None
):
    """Every ``EXEC_CONFIGS`` run is bit-identical to ``run_sequential``
    — each of ``replays`` runs of the one lowered plan per config."""
    from repro.interp import execute_measured

    oracle = Interpreter.from_source(source, params or {}, funcs)
    seq = oracle.run_sequential(oracle.new_store())
    for label, backend, fuse in EXEC_CONFIGS:
        interp, info = compile_for_exec(source, fuse, params, coarsen, funcs)
        for k in range(replays):
            store, stats = execute_measured(
                interp, info, backend=backend, workers=2
            )
            assert seq.equal(store), f"{label} run {k + 1} diverged"
            assert (stats.backend, stats.fuse) == (backend, fuse)


@pytest.fixture
def listing1_scop():
    return extract_scop(parse(LISTING1), {"N": 20})


@pytest.fixture
def listing1_scop_small():
    return extract_scop(parse(LISTING1), {"N": 10})


@pytest.fixture
def listing3_scop():
    return extract_scop(parse(LISTING3), {"N": 16})


@pytest.fixture
def listing1_interp():
    return Interpreter.from_source(LISTING1, {"N": 12})


@pytest.fixture
def listing3_interp():
    return Interpreter.from_source(LISTING3, {"N": 12})


@pytest.fixture
def copy_scop():
    return extract_scop(parse(TWO_NEST_COPY), {"N": 8})


def dense_reach(graph):
    """The reference reachability: ``R[a, b]`` is True iff task ``a``
    precedes task ``b`` along the graph's edges (strictly, so the
    diagonal is False).  A tasks × tasks matrix, for test-sized graphs."""
    import numpy as np

    reach = np.zeros((len(graph), len(graph)), dtype=bool)
    for tid in reversed(graph.topological_order()):
        for s in graph.succs[tid]:
            reach[tid, s] = True
            reach[tid] |= reach[s]
    return reach


class Counter:
    """Wrap ``owner.name`` so calls are counted (and still happen) — the
    one spy of the count guards; worker threads may call it at once.
    ``kwargs`` holds each call's keyword arguments, in call order."""

    def __init__(self, monkeypatch, owner, name):
        import threading

        self.calls = 0
        self.kwargs: list[dict] = []
        lock = threading.Lock()
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            with lock:
                self.calls += 1
                self.kwargs.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def unique_axis0_calls(monkeypatch):
    """The ``numpy.unique(..., axis=0)`` calls made while the test runs —
    the generic row sort the packed row keys replace (one entry each)."""
    import numpy as np

    real, calls = np.unique, []

    def counting(*args, **kwargs):
        if kwargs.get("axis") == 0:
            calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.fixture
def executions(monkeypatch):
    """Counts of every way ``transform`` — called directly or behind
    ``repro.cli.main`` — can execute the program."""
    import repro.tasking
    from repro.interp import plan as plan_mod
    from repro.interp import privexec

    seen = {"oracle": 0, "graph": 0, "replay": []}

    def counted(owner, name, note):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            note(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def bump(key):
        return lambda *a, **k: seen.__setitem__(key, seen[key] + 1)

    counted(Interpreter, "run_sequential", bump("oracle"))
    counted(repro.tasking, "execute", bump("graph"))
    for owner in (plan_mod, privexec):  # privexec binds it at import
        counted(
            owner, "run_plan",
            lambda interp, plan, backend, *a, **k: seen["replay"].append(
                backend
            ),
        )
    return seen
