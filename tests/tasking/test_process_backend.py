"""Tests for the process pool and the hardening of thread runs.

Plan replays must run on worker *processes* over the shared-memory
store, bit-identical to the sequential oracle, and refuse what cannot
cross the process boundary; ``OmpTaskSystem.run`` must deduplicate
dependency slots and release its threads even when a task fails.
"""

import pytest

from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline
from repro.tasking import OmpTaskSystem
from repro.workloads import TABLE9
from tests.conftest import LISTING1


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
