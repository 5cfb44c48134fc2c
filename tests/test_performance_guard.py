"""Performance regression guards: counts first, three loose walls.

Most guards here count the work they protect (Presburger ops,
``np.unique(axis=0)`` calls, depend-in slots, privatized member rows
in flight at once) and repeat exactly.  The walls left are the three
whose measured time is well over 10 ms and at least 3x inside its
bound, so a loaded shared host does not trip them: the N=64 analysis
budget (about 0.5 s against 15 s), quadratic-not-cubic growth (t64/t16
about 13 against 64) and the no-op ``--privatize`` budget (well under
a second against 5 s).  They only trip on algorithmic regressions (e.g.
the quadratic block-grouping this suite once caught).

Memory is guarded the same way: the N=64 analysis pins the 4-chain
cover the legality check's reachability is sized by, and a tier-2 guard
holds a fresh process's cold verified P5@96 to 256 MB peak RSS.

Dispatch, instrumentation and request telemetry are guarded by counts
elsewhere; their walls are the ledger's (``docs/performance.md``,
"Counts, not walls"):

* fused dispatch and coarse vs fine blocking —
  ``tests/interp/test_plan.py::test_p5_dispatch_counts_at_fine_and_coarse_blocking``
  (one ``run_rects`` call per untraced serial replay, one per stream
  with fuse off, equal elided rectangles);
* disabled instrumentation —
  ``tests/interp/test_plan.py::test_untraced_replay_enters_one_span_and_one_collector_lookup``
  (one ``span()`` and one ``obs_runtime.current()`` per replay);
* request telemetry —
  ``tests/service/test_serve.py::test_run_row_without_trace_dir_counts_tasks_instead_of_spanning_them``
  (three spans per request at any task count).
"""

import time

import pytest

from repro.bench import build_scop, pipeline_task_graph
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.presburger import cache
from repro.workloads import TABLE9


def timed(fn, *args):
    t0 = time.monotonic()
    result = fn(*args)
    return result, time.monotonic() - t0


def test_analysis_scales_to_n64_within_budget():
    kern = TABLE9["P5"]
    scop = build_scop(kern.source(64))
    assert len(scop) == 4
    for stmt in scop.statements:
        stmt.points  # warm enumeration
    graph, elapsed = timed(pipeline_task_graph, scop, kern.cost_model(1))
    assert len(graph) > 10_000
    # the legality check's reachability is tasks x chains: one chain
    # per statement here, where a dense closure was 16k x 16k
    chain, _, reach = graph.chain_reach()
    assert reach.shape == (len(graph), 4)
    for name in ("S1", "S2", "S3", "S4"):
        tids = [t.task_id for t in graph if t.statement == name]
        assert len(set(chain[tids])) == 1
    # budget tightened from 30s once the op cache landed (~2.4s cached,
    # ~4.8s uncached on the reference machine)
    assert elapsed < 15.0, f"analysis took {elapsed:.1f}s (was ~2.4s)"


@pytest.mark.tier2
def test_cold_verified_p5_at_n96_peaks_within_256_mb(tmp_path):
    """A fresh process's cold verified ``transform`` of P5@96 (36,864
    tasks) stays within 256 MB peak RSS, as ``tools/compile_scaling.py``
    measures it; a dense reachability matrix alone took 1.36 GB."""
    import subprocess
    import sys
    from pathlib import Path

    tool = Path(__file__).resolve().parents[1] / "tools" / "compile_scaling.py"
    out = tmp_path / "scaling.txt"
    subprocess.run(
        [sys.executable, str(tool), "--sizes", "96", "--out", str(out)],
        check=True, capture_output=True,
    )
    n, tasks, chains, *_, peak_mb = out.read_text().splitlines()[-1].split()
    assert (int(n), int(tasks), int(chains)) == (96, 36_864, 4)
    assert float(peak_mb) <= 256, out.read_text()


@pytest.mark.tier2
def test_cold_verified_hybrid_p5_at_n48_peaks_within_500_mb(tmp_path):
    """A fresh process's cold verified hybrid ``transform`` of P5@48
    (9,216 tasks) stays within 500 MB peak RSS: a relaxed source's
    tokens sit on its frontier, where prefix tokens took 362 MB at
    P5@32 already."""
    import subprocess
    import sys
    from pathlib import Path

    tool = Path(__file__).resolve().parents[1] / "tools" / "compile_scaling.py"
    out = tmp_path / "scaling.txt"
    subprocess.run(
        [sys.executable, str(tool), "--hybrid", "--sizes", "48",
         "--out", str(out)],
        check=True, capture_output=True,
    )
    n, tasks, *_, peak_mb = out.read_text().splitlines()[-1].split()
    assert (int(n), int(tasks)) == (48, 9_216)
    assert float(peak_mb) <= 500, out.read_text()


def test_cache_is_effective_on_p5_analysis():
    """The memoized op cache must actually hit on the Table 9 hot path."""
    kern = TABLE9["P5"]
    with cache.overridden(enabled=True):
        cache.cache_clear()
        scop = build_scop(kern.source(24))
        pipeline_task_graph(scop, kern.cost_model(1))
        st = cache.stats()
    assert st.calls > 0
    assert st.hits > 0, cache.format_stats()
    # on this path roughly 3 of 4 memoized calls hit; guard loosely
    assert st.hit_rate > 0.25, cache.format_stats()


#: memoized Presburger calls of one cold ``analyze`` (detection + the
#: legality re-derivation) at N=20, coarsen=60, as (calls, hits, misses)
#: per op.  The counts repeat exactly, so they are pinned — as a ratchet:
#: ``COLD_ANALYZE_OPS`` is what this commit does (156 / 156 / 138 calls in
#: all; no ``PointRelation.union`` since each access relation is one
#: canonicalisation, no ``PointRelation.after`` since the batched
#: dependence table composes no relation) and may only be re-recorded
#: downwards;
#: ``PARENT_COLD_ANALYZE_OPS`` is what an earlier commit did (374 / 374 /
#: 343), before every dependence
#: question was asked once per SCoP, pipeline maps were returned as
#: computed and blockings were built from end sets.  Two earlier commits
#: pinned the same work at 277 / 297 / 318 ``np.unique(axis=0)`` calls and
#: then at none: the kernel under the algebra changed, not the algebra.
_OPS = (
    "PointRelation.after", "PointRelation.domain", "PointRelation.inverse",
    "PointRelation.lexmax_per_domain", "PointRelation.range",
    "PointRelation.restrict_domain", "PointRelation.union",
    "PointSet.difference", "PointSet.intersect", "PointSet.union",
    "enumeration.basic_set", "pipeline.prefix_lexmax",
)
COLD_ANALYZE_OPS = {
    "P5": (
        (0, 0, 0), (48, 42, 6), (16, 11, 5), (24, 22, 2), (26, 24, 2),
        (6, 5, 1), (0, 0, 0), (4, 3, 1), (14, 12, 2), (8, 7, 1),
        (4, 0, 4), (6, 5, 1),
    ),
    "P6": (
        (0, 0, 0), (48, 38, 10), (16, 9, 7), (24, 19, 5), (26, 21, 5),
        (6, 5, 1), (0, 0, 0), (4, 2, 2), (14, 10, 4), (8, 6, 2),
        (4, 0, 4), (6, 4, 2),
    ),
    "P9": (
        (0, 0, 0), (44, 30, 14), (14, 5, 9), (20, 12, 8), (23, 15, 8),
        (5, 3, 2), (0, 0, 0), (4, 1, 3), (13, 7, 6), (6, 2, 4),
        (4, 0, 4), (5, 2, 3),
    ),
}
PARENT_COLD_ANALYZE_OPS = {
    "P5": (
        (66, 18, 48), (72, 66, 6), (88, 79, 9), (36, 34, 2), (38, 36, 2),
        (6, 5, 1), (14, 0, 14), (4, 3, 1), (26, 24, 2), (8, 7, 1),
        (4, 0, 4), (12, 11, 1),
    ),
    "P6": (
        (66, 18, 48), (72, 62, 10), (88, 77, 11), (36, 31, 5), (38, 33, 5),
        (6, 5, 1), (14, 0, 14), (4, 2, 2), (26, 22, 4), (8, 6, 2),
        (4, 0, 4), (12, 10, 2),
    ),
    "P9": (
        (66, 18, 48), (64, 46, 18), (85, 72, 13), (30, 22, 8), (33, 21, 12),
        (5, 3, 2), (13, 0, 13), (4, 1, 3), (23, 13, 10), (6, 2, 4),
        (4, 0, 4), (10, 7, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(COLD_ANALYZE_OPS))
def test_cold_analysis_sorts_no_rows_generically(name, unique_axis0_calls):
    """Count-based, no wall clock: the whole cold compile of a Table 9
    kernel runs on packed row keys (zero ``np.unique(axis=0)`` calls),
    does exactly the Presburger work recorded for it, and no op is
    called — or computed — more often than at the parent commit."""
    from repro.driver import TransformOptions, analyze

    with cache.overridden(enabled=True):
        cache.cache_clear()
        interp = Interpreter.from_source(TABLE9[name].source(20), {})
        analysis = analyze(interp, TransformOptions(coarsen=60))
        st = cache.stats()
    assert analysis.legality is not None and analysis.legality.ok
    assert unique_axis0_calls == []
    assert set(st.ops) <= set(_OPS), sorted(st.ops)
    counts = {}
    for op in _OPS:  # an op never called has no entry
        s = st.ops.get(op, cache.OpStats())
        counts[op] = (s.calls, s.hits, s.misses)
    assert counts == dict(zip(_OPS, COLD_ANALYZE_OPS[name]))
    for op, (calls, _, misses) in zip(_OPS, PARENT_COLD_ANALYZE_OPS[name]):
        assert counts[op][0] <= calls and counts[op][2] <= misses, op
    assert sum(c for c, _, _ in counts.values()) < 0.6 * sum(
        c for c, _, _ in PARENT_COLD_ANALYZE_OPS[name]
    )


def test_cold_p5_derives_dependences_once_and_blocks_each_statement_once(
    monkeypatch,
):
    """Count-based: a cold verified P5@14 derives the SCoP's dependence
    table once (detection and legality read it), and the legality check
    calls ``block_of_rows`` once per statement, not once per relation
    side."""
    import repro.driver as driver
    from repro.driver import TransformOptions, transform
    from repro.pipeline.blocking import Blocking
    from repro.scop import deps
    from tests.conftest import Counter

    derivations = Counter(monkeypatch, deps, "_derive")
    inside, blocked = [False], []
    real_check, real_block = driver.check_legality, Blocking.block_of_rows

    def checking(*args, **kwargs):
        inside[0] = True
        try:
            return real_check(*args, **kwargs)
        finally:
            inside[0] = False

    def block_of_rows(self, iters):
        if inside[0]:
            blocked.append(self.statement)
        return real_block(self, iters)

    monkeypatch.setattr(driver, "check_legality", checking)
    monkeypatch.setattr(Blocking, "block_of_rows", block_of_rows)
    result = transform(TABLE9["P5"].source(14), {}, TransformOptions())
    assert result.verified and result.legality.ok
    assert derivations.calls == 1
    assert sorted(blocked) == ["S1", "S2", "S3", "S4"]


def test_chain_reach_fills_plain_pipelines_without_a_per_task_step(
    monkeypatch,
):
    """Count-based: on every plain Table 9 pipeline each statement's
    blocks are one chain, filled at once; no task takes a step of its
    own (``TaskGraph._walk``), and a privatized cold compile covers its
    graph with chains once for both of its checks."""
    from pathlib import Path

    from repro.driver import TransformOptions, transform
    from repro.schedule import generate_task_ast
    from repro.tasking import TaskGraph
    from tests.conftest import Counter

    walks = Counter(monkeypatch, TaskGraph, "_walk")
    for name, kern in sorted(TABLE9.items()):
        scop = build_scop(kern.source(10))
        ast = generate_task_ast(detect_pipeline(scop))
        graph = TaskGraph.from_task_ast(ast)
        assert graph.chain_reach()[2].shape[1] <= len(scop.statements), name
    assert walks.calls == 0
    covers = Counter(monkeypatch, TaskGraph, "_chain_cover")
    kernels = Path(__file__).resolve().parents[1] / "examples" / "kernels"
    result = transform(
        (kernels / "histogram.c").read_text(), {"N": 16},
        TransformOptions(privatize=True),
    )
    assert result.verified and result.privatization.groups
    assert covers.calls == 1


def test_analysis_roughly_quadratic_not_cubic():
    """Doubling N (4x points) must not blow cost up ~8x repeatedly."""
    kern = TABLE9["P1"]

    def run(n):
        scop = build_scop(kern.source(n))
        for stmt in scop.statements:
            stmt.points
        _, elapsed = timed(pipeline_task_graph, scop, kern.cost_model(1))
        return max(elapsed, 1e-3)

    t16, t32, t64 = run(16), run(32), run(64)
    # allow generous constant-factor noise; reject ~O(points^2) growth,
    # where each doubling of N would multiply time by ~16.
    assert t64 / t16 < 64, (t16, t32, t64)


#: depend-in slots of every Table 9 kernel at N=10 before and after the
#: transitive reduction of its checked graph (the counts the pair-level
#: pass that ran before scheduling reported)
SLOTS_AT_N10 = {
    "P1": (100, 100), "P2": (25, 25), "P3": (300, 200), "P4": (102, 86),
    "P5": (600, 300), "P6": (420, 210), "P7": (93, 59), "P8": (300, 300),
    "P9": (170, 110), "P10": (210, 210),
}


def test_reduction_never_adds_slots_on_any_kernel():
    """Transitive reduction is a pure win: on every Table 9 kernel the
    reduced depend-in slot count is <= the original, pinned per kernel,
    and at least three kernels cut >= 25%."""
    from repro.obs.metrics import task_graph_stats
    from repro.schedule import generate_task_ast
    from repro.tasking import TaskGraph

    slots = {}
    for name, kern in TABLE9.items():
        interp = Interpreter.from_source(kern.source(10), {})
        ast = generate_task_ast(detect_pipeline(interp.scop))
        stats = task_graph_stats(TaskGraph.from_task_ast(ast))
        slots[name] = (
            stats["depend_in_slots"], stats["depend_in_slots_reduced"]
        )
    assert slots == SLOTS_AT_N10
    big_cuts = [n for n, (was, now) in slots.items() if now <= 0.75 * was]
    assert len(big_cuts) >= 3, slots


def test_privatized_histogram_beats_sequential_on_latency():
    """Privatization wins on a latency-bound kernel by overlapping the
    member rows of one group — counted, not timed.  Once armed, the
    first two ``compute`` calls wait for each other: on the privatized
    threads replay they meet only if two member rows are in flight at
    once.  A scheduling regression (members re-chained, a join
    serializing the whole graph) leaves the first call waiting alone
    until its timeout, and the test fails whatever the host's load."""
    import threading

    from tests.conftest import HISTOGRAM_LATENCY, blocking_compute
    from repro.interp import execute_privatized
    from repro.schedule import plan_privatization, privatize_info
    from repro.scop import DepKind

    armed, met, lock = threading.Event(), threading.Event(), threading.Lock()
    arrivals, waits = [], []

    def compute(*args):
        if armed.is_set():
            with lock:
                arrivals.append(threading.get_ident())
                first_two = len(arrivals) <= 2
                if len(arrivals) == 2:
                    met.set()
            if first_two:
                waits.append(met.wait(timeout=10.0))
        return blocking_compute(*args)

    workers, parts = 4, 4
    n = 2 * workers * 2
    interp = Interpreter.from_source(
        HISTOGRAM_LATENCY,
        {"N": n},
        funcs={"compute": compute},
        fuse="off",
    )
    plan = plan_privatization(interp.scop)
    assert plan.groups, "latency histogram must privatize"
    info = detect_pipeline(
        interp.scop, kinds=tuple(DepKind), validate=False
    )
    pinfo = privatize_info(info, plan, parts=parts)

    seq = interp.run_sequential(interp.new_store())
    armed.set()
    out, _ = execute_privatized(
        interp, pinfo, plan, backend="threads", workers=workers
    )
    assert seq.equal(out)
    assert len(arrivals) == 2 * n
    assert waits == [True, True], "no two member rows ran at once"
    assert len(set(arrivals[:2])) == 2


def test_privatize_flag_is_a_noop_without_proofs():
    """``--privatize`` on a kernel with no verified reduction groups
    must fall through to the standard pipeline: same task graph, no
    privates, and the extra planning cost stays negligible."""
    from repro.driver import TransformOptions, transform
    from tests.conftest import LISTING1

    params = {"N": 12}
    plain = transform(LISTING1, params, TransformOptions(verify=False))
    t0 = time.monotonic()
    priv = transform(
        LISTING1, params, TransformOptions(verify=False, privatize=True)
    )
    wall = time.monotonic() - t0
    assert priv.privatization is not None
    assert not priv.privatization.groups
    assert len(priv.graph) == len(plain.graph)
    assert priv.graph.num_edges == plain.graph.num_edges
    # planning over an empty candidate set must not dominate: the whole
    # transform (analysis included) stays well under a second
    assert wall < 5.0, f"no-op --privatize transform took {wall:.2f}s"


def test_parsing_p5_builds_no_tokens(monkeypatch):
    """Count-based: the one-pass parser reads the lexer's matches by
    index, so parsing P5@14 builds no ``Token`` and one
    ``SourceLocation`` per AST node (``tokenize`` builds one of each
    per token, 325 here)."""
    from repro.lang import parse
    from repro.lang.errors import SourceLocation
    from repro.lang.tokens import Token
    from tests.conftest import Counter
    from tests.lang.test_parser import located

    tokens = Counter(monkeypatch, Token, "__init__")
    locations = Counter(monkeypatch, SourceLocation, "__init__")
    program = parse(TABLE9["P5"].source(14))
    assert tokens.calls == 0
    assert locations.calls == len(located(program)) - 1  # not Program
