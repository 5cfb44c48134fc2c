"""Tests for the process pool and the hardening of thread runs.

Plan replays must run on worker *processes* over the shared-memory
store, bit-identical to the sequential oracle, and refuse what cannot
cross the process boundary; ``OmpTaskSystem.run`` must deduplicate
dependency slots and release its threads even when a task fails.
"""

import multiprocessing
from pathlib import Path

import pytest

from repro.interp import Interpreter, execute_measured, execute_privatized
from repro.interp.privexec import privatized_ast
from repro.pipeline import detect_pipeline
from repro.tasking import OmpTaskSystem
from repro.workloads import TABLE9
from tests.conftest import LISTING1, compile_for_exec
from tests.interp.test_plan import pin_verdict
from tests.interp.test_privatized_exec import privatized_setup

HISTOGRAM = (
    Path(__file__).resolve().parents[2] / "examples" / "kernels"
    / "histogram.c"
).read_text()


def run_process_backend(source, params, workers=2, coarsen=1):
    """One ``processes`` replay of the lowered plan of ``source``."""
    interp = Interpreter.from_source(source, params)
    info = detect_pipeline(interp.scop, coarsen=coarsen)
    store, stats = execute_measured(
        interp, info, backend="processes", workers=workers
    )
    return interp, store, stats.scheduler


class TestProcessBackendAgrees:
    @pytest.mark.parametrize("name,n", [("P3", 8), ("P5", 10)])
    def test_pkernel(self, name, n):
        interp, store, result = run_process_backend(
            TABLE9[name].source(n), {}
        )
        seq = interp.run_sequential(interp.new_store())
        assert seq.equal(store)
        assert result["tasks"] > 0

    def test_listing1(self):
        interp, store, result = run_process_backend(
            LISTING1, {"N": 10}, coarsen=4
        )
        seq = interp.run_sequential(interp.new_store())
        assert seq.equal(store)
        assert result["workers"] == 2
        assert 1 <= result["max_in_flight"] <= result["tasks"]


class TestProcessBackendDispatch:
    """Workers run the plan's own bodies: an untraced replay dispatches
    claims, a collecting one rows — the units ``threads`` walks.  The
    whole-stream verdict is pinned to "no stream whole"."""

    def test_fused_p5_is_one_claim_in_one_batch(self, monkeypatch):
        pin_verdict(monkeypatch, "none")
        interp, info = compile_for_exec(
            TABLE9["P5"].source(14), "auto", coarsen=1
        )
        oracle = interp.run_sequential(interp.new_store())
        out, stats = execute_measured(
            interp, info, backend="processes", workers=2
        )
        assert oracle.equal(out)
        assert stats.scheduler["claims"] == stats.scheduler["batches"] == 1
        assert stats.scheduler["tasks"] == 196
        assert stats.scheduler["whole"] == 0
        out, stats = execute_measured(
            interp, info, backend="processes", workers=2, collect_events=True
        )
        assert oracle.equal(out)
        assert stats.scheduler["claims"] == stats.scheduler["tasks"] == 196
        assert sorted(e.tid for e in stats.events.events) == list(range(196))

    def test_whole_streams_are_one_claim_each(self, monkeypatch):
        """Fuse-off P5 with every stream claimed whole: from the second
        replay on, the workers run the serial elision's four stream
        runs."""
        pin_verdict(monkeypatch, "all")
        interp, info = compile_for_exec(
            TABLE9["P5"].source(14), "off", coarsen=1
        )
        for claims, whole in ((4 * 196, 0), (4, 4)):
            out, stats = execute_measured(
                interp, info, backend="processes", workers=2
            )
            assert interp.oracle().equal(out)
            assert stats.scheduler["claims"] == claims
            assert stats.scheduler["whole"] == whole
            assert stats.scheduler["tasks"] == 4 * 196


@pytest.fixture
def spawn_only(monkeypatch):
    """Hide ``fork`` from ``run_processes``: the pool starts its workers
    with ``spawn``, which pickles the plan's rows, kernels and claims."""
    methods = [
        m for m in multiprocessing.get_all_start_methods() if m != "fork"
    ]
    if "spawn" not in methods:
        pytest.skip("no spawn start method")
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: methods
    )
    started = []
    get_context = multiprocessing.get_context

    def recording(method=None):
        started.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recording)
    yield
    assert started and set(started) == {"spawn"}


@pytest.mark.usefixtures("spawn_only")
class TestSpawnedWorkers:
    def test_fused_p5_claim(self):
        interp, info = compile_for_exec(
            TABLE9["P5"].source(9), "auto", coarsen=1
        )
        out, stats = execute_measured(
            interp, info, backend="processes", workers=2
        )
        assert interp.run_sequential(interp.new_store()).equal(out)
        assert stats.scheduler["claims"] == 1 < stats.scheduler["tasks"]

    def test_privatized_histogram_remap_rows_and_join(self):
        interp, plan, pinfo = privatized_setup(HISTOGRAM, 8, parts=3)
        out, stats = execute_privatized(
            interp, pinfo, plan, backend="processes", workers=2
        )
        lowered = interp.exec_plan(
            pinfo, privatized_ast(interp, pinfo, plan)
        )
        assert any("remap" in row.payload for row in lowered.rows)
        assert any("combine" in row.payload for row in lowered.rows)
        assert interp.run_sequential(interp.new_store()).equal(out)
        assert stats.privatization["privates"] >= 2

    def test_collecting_replay(self):
        interp, info = compile_for_exec(LISTING1, "auto", {"N": 10}, 4)
        out, stats = execute_measured(
            interp, info, backend="processes", workers=2, collect_events=True
        )
        assert interp.run_sequential(interp.new_store()).equal(out)
        assert len(stats.events.events) == stats.tasks > 1


class TestPoolSize:
    """The pool has ``min(workers, units)`` processes: under ``fork`` it
    starts every one on its first submission.  A fake executor records
    the size and starts nothing (its futures complete at once)."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        from concurrent.futures import Future

        from repro.tasking import backends

        sizes = []

        class FakePool:
            def __init__(self, max_workers, **_kwargs):
                sizes.append(max_workers)

            def submit(self, *_args):
                done = Future()
                done.set_result(None)
                return done

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(backends, "ProcessPoolExecutor", FakePool)
        return sizes

    @pytest.mark.parametrize("fuse,workers", [("auto", 10**6), ("off", 3)])
    def test_sized_by_units(self, pool_sizes, monkeypatch, fuse, workers):
        pin_verdict(monkeypatch, "none")
        interp, info = compile_for_exec(
            TABLE9["P5"].source(14), fuse, coarsen=1
        )
        _out, stats = execute_measured(
            interp, info, backend="processes", workers=workers
        )
        units = stats.scheduler["claims"]
        assert pool_sizes == [min(workers, units)]
        assert stats.scheduler["workers"] == pool_sizes[0]
        assert (units, pool_sizes[0]) == (
            (1, 1) if fuse == "auto" else (4 * 196, 3)
        )


class TestProcessBackendChecks:
    def test_mismatched_deps_rejected(self):
        system = OmpTaskSystem(write_num=1)
        with pytest.raises(ValueError, match="equal length"):
            system.create_task(
                lambda p: None, {"iters": [(0,)]}, 0, 0,
                in_depend=[0], in_idx=[], statement="S1",
            )
        assert len(system) == 0

    def test_bad_construction(self):
        interp = Interpreter.from_source(TABLE9["P1"].source(8), {})
        info = detect_pipeline(interp.scop)
        with pytest.raises(ValueError, match="workers must be positive"):
            execute_measured(interp, info, backend="processes", workers=0)

    def test_unpicklable_funcs_rejected_with_clear_error(self):
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) S: A[i][0] = myfn(A[i][0]);",
            {},
            funcs={"myfn": lambda x: x + 1},
        )
        info = detect_pipeline(interp.scop)
        with pytest.raises(RuntimeError, match="picklable"):
            execute_measured(interp, info, backend="processes", workers=1)

    def test_same_statement_blocks_chain(self):
        """Blocks of one chained statement run in order: each row of its
        stream waits on the previous one (what the workers are sent)."""
        interp = Interpreter.from_source(
            TABLE9["P1"].source(8), {}, fuse="off"
        )
        plan = interp.exec_plan(detect_pipeline(interp.scop))
        preds = plan.schedule.preds()
        rows = [t for t, r in enumerate(plan.rows) if r.stream == "S1"]
        assert len(rows) > 1
        for t0, t1 in zip(rows, rows[1:]):
            assert t0 in preds[t1]


class TestFuturesBackendHardening:
    def test_duplicate_deps_deduplicated(self):
        system = OmpTaskSystem(write_num=1)
        log = []
        system.create_task(lambda p: log.append(p), "up", 0, 0)
        system.create_task(
            lambda p: log.append(p),
            "down",
            out_depend=1,
            out_idx=0,
            in_depend=[0, 0, 0],
            in_idx=[0, 0, 0],
        )
        assert system.graph.preds[1] == {0}
        system.run(workers=2)
        assert log == ["up", "down"]

    def test_no_threads_leak_after_success(self):
        import threading

        system = OmpTaskSystem(write_num=1)
        system.create_task(lambda p: None, None, 0, 0)
        before = threading.active_count()
        result = system.run(workers=2)
        assert threading.active_count() <= before
        assert result.ok and result.completion_order == (0,)

    def test_no_threads_leak_after_failure(self):
        import threading

        system = OmpTaskSystem(write_num=1)

        def boom(p):
            raise RuntimeError("task failed")

        system.create_task(boom, None, 0, 0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="task failed"):
            system.run(workers=2)
        # Work-stealing workers are joined before run() returns, on the
        # failure path too — nothing may outlive the call.
        assert threading.active_count() <= before
