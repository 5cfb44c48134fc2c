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
    # budget tightened from 30s once the op cache landed (~2.4s cached,
    # ~4.8s uncached on the reference machine)
    assert elapsed < 15.0, f"analysis took {elapsed:.1f}s (was ~2.4s)"


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
#: ``COLD_ANALYZE_OPS`` is what this commit does (206 / 206 / 185 calls in
#: all) and may only be re-recorded downwards; ``PARENT_COLD_ANALYZE_OPS``
#: is what its parent did (374 / 374 / 343), before every dependence
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
        (18, 0, 18), (48, 42, 6), (34, 25, 9), (24, 22, 2), (26, 24, 2),
        (6, 5, 1), (14, 0, 14), (4, 3, 1), (14, 12, 2), (8, 7, 1),
        (4, 0, 4), (6, 5, 1),
    ),
    "P6": (
        (18, 0, 18), (48, 38, 10), (34, 23, 11), (24, 19, 5), (26, 21, 5),
        (6, 5, 1), (14, 0, 14), (4, 2, 2), (14, 10, 4), (8, 6, 2),
        (4, 0, 4), (6, 4, 2),
    ),
    "P9": (
        (17, 0, 17), (44, 30, 14), (31, 18, 13), (20, 12, 8), (23, 15, 8),
        (5, 3, 2), (13, 0, 13), (4, 1, 3), (13, 7, 6), (6, 2, 4),
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
    counts = {op: (s.calls, s.hits, s.misses) for op, s in st.ops.items()}
    assert counts == dict(zip(_OPS, COLD_ANALYZE_OPS[name]))
    for op, (calls, _, misses) in zip(_OPS, PARENT_COLD_ANALYZE_OPS[name]):
        assert counts[op][0] <= calls and counts[op][2] <= misses, op
    assert sum(c for c, _, _ in counts.values()) < 0.6 * sum(
        c for c, _, _ in PARENT_COLD_ANALYZE_OPS[name]
    )


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


def test_reduction_never_adds_slots_on_any_kernel():
    """Transitive reduction is a pure win: on every Table 9 kernel the
    reduced depend-in slot count is <= the original, the exact and index
    paths agree, and at least three kernels cut >= 25%."""
    from repro.pipeline import reduce_dependencies
    from repro.pipeline.reduce import _reduce_exact

    ratios = {}
    for name, kern in TABLE9.items():
        interp = Interpreter.from_source(kern.source(10), {})
        info = detect_pipeline(interp.scop)
        _, by_index = reduce_dependencies(info)
        _, by_exact = _reduce_exact(info)
        assert by_index.slots_after <= by_index.slots_before, name
        assert by_index.slots_after == by_exact.slots_after, name
        ratios[name] = by_index.ratio
    big_cuts = [name for name, r in ratios.items() if r >= 0.25]
    assert len(big_cuts) >= 3, ratios


def test_privatized_histogram_beats_sequential_on_latency():
    """Privatization wins on a latency-bound kernel by overlapping the
    member rows of one group — counted, not timed.  Once armed, the
    first two ``compute`` calls wait for each other: on the privatized
    threads replay they meet only if two member rows are in flight at
    once.  A scheduling regression (members re-chained, a join
    serializing the whole graph) leaves the first call waiting alone
    until its timeout, and the test fails whatever the host's load."""
    import threading

    from repro.bench.execution import (
        blocking_compute,
        histogram_latency_source,
    )
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
        histogram_latency_source(n),
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
