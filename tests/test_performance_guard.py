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


#: Presburger computations of one cold ``analyze`` (detection + the
#: legality re-derivation) at N=20, coarsen=60, per op, as the counter
#: of :mod:`repro.presburger.cache` reads them.  The counts repeat
#: exactly, so they are pinned — as a ratchet: ``COLD_ANALYZE_OPS`` is
#: what this commit computes (83 / 83 / 75 in all: a relation's domain,
#: range and per-input lexmax are computed once per relation and kept on
#: it; Equation 4 finds each target end's block with one ``first_geq``
#: and reads ``T⁻¹`` off the monotone ``T``, so it restricts and inverts
#: no relation; no ``PointRelation.after`` since the batched dependence
#: table composes no relation) and may only be re-recorded downwards;
#: ``CACHED_ANALYZE_CALLS`` is what an earlier commit *called* when a
#: process-wide op cache answered repeats (156 / 156 / 138), an upper
#: bound of what it computed.  Earlier still the same work was 374 /
#: 374 / 343 calls, before every dependence question was asked once per
#: SCoP.  Two earlier commits pinned it at 277 / 297 / 318
#: ``np.unique(axis=0)`` calls and then at none: the kernel under the
#: algebra changed, not the algebra.
_OPS = (
    "PointRelation.after", "PointRelation.domain", "PointRelation.inverse",
    "PointRelation.lexmax_per_domain", "PointRelation.range",
    "PointRelation.restrict_domain", "PointRelation.union",
    "PointSet.difference", "PointSet.intersect", "PointSet.union",
    "enumeration.basic_set", "pipeline.prefix_lexmax",
)
COLD_ANALYZE_OPS = {
    "P5": (0, 14, 10, 15, 14, 0, 0, 4, 8, 8, 4, 6),
    "P6": (0, 14, 10, 15, 14, 0, 0, 4, 8, 8, 4, 6),
    "P9": (0, 13, 9, 13, 13, 0, 0, 4, 8, 6, 4, 5),
}
CACHED_ANALYZE_CALLS = {
    "P5": (0, 48, 16, 24, 26, 6, 0, 4, 14, 8, 4, 6),
    "P6": (0, 48, 16, 24, 26, 6, 0, 4, 14, 8, 4, 6),
    "P9": (0, 44, 14, 20, 23, 5, 0, 4, 13, 6, 4, 5),
}


@pytest.mark.parametrize("name", sorted(COLD_ANALYZE_OPS))
def test_cold_analysis_sorts_no_rows_generically(name, unique_axis0_calls):
    """Count-based, no wall clock: the whole cold compile of a Table 9
    kernel runs on packed row keys (zero ``np.unique(axis=0)`` calls),
    does exactly the Presburger work recorded for it, and no op computes
    more often than the op cache was once called."""
    from repro.driver import TransformOptions, analyze

    cache.cache_clear()
    interp = Interpreter.from_source(TABLE9[name].source(20), {})
    analysis = analyze(interp, TransformOptions(coarsen=60))
    ops = cache.op_call_counts()
    assert analysis.legality is not None and analysis.legality.ok
    assert unique_axis0_calls == []
    assert set(ops) <= set(_OPS), sorted(ops)
    counts = tuple(ops.get(op, 0) for op in _OPS)
    assert counts == COLD_ANALYZE_OPS[name]
    for op, n, calls in zip(_OPS, counts, CACHED_ANALYZE_CALLS[name]):
        assert n <= calls, op
    assert cache.stats().calls == sum(counts)


_KEPT_FACTS = ("domain", "range", "lexmax_per_domain")


def _kept_fact_reads(monkeypatch, name):
    """Cold P-kernel analysis at N=24 with every read of a relation's
    kept facts recorded (the relations stay referenced, so their ids
    stay distinct); returns the reads and the op counter."""
    from repro.presburger import PointRelation

    reads = {fact: [] for fact in _KEPT_FACTS}
    for fact in _KEPT_FACTS:
        real = getattr(PointRelation, fact)

        def reading(self, _real=real, _seen=reads[fact]):
            _seen.append(self)
            return _real(self)

        monkeypatch.setattr(PointRelation, fact, reading)
    kern = TABLE9[name]
    cache.cache_clear()
    scop = build_scop(kern.source(24))
    pipeline_task_graph(scop, kern.cost_model(1))
    return reads, cache.op_call_counts()


def test_cache_is_effective_on_p5_analysis(monkeypatch):
    """The facts kept on a relation must actually be read again on the
    Table 9 hot path: more reads than computations of them."""
    reads, ops = _kept_fact_reads(monkeypatch, "P5")
    computed = sum(ops.get(f"PointRelation.{fact}", 0) for fact in _KEPT_FACTS)
    assert computed > 0
    assert sum(len(r) for r in reads.values()) > computed, ops
    # ranges are read about twice per relation; guard loosely
    assert len(reads["range"]) > 1.5 * ops["PointRelation.range"], ops


@pytest.mark.parametrize("name", sorted(TABLE9))
def test_kept_facts_are_computed_once_per_relation(monkeypatch, name):
    """Each kept fact is computed exactly once per relation that reads it
    (a per-input lexmax: once per non-empty one, an empty relation is
    its own) during a cold analysis of every Table 9 kernel."""
    reads, ops = _kept_fact_reads(monkeypatch, name)
    for fact, seen in reads.items():
        rels = {id(rel): rel for rel in seen}.values()
        if fact == "lexmax_per_domain":
            rels = [rel for rel in rels if not rel.is_empty()]
        assert ops.get(f"PointRelation.{fact}", 0) == len(rels), fact


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
