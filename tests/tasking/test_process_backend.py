"""Tests for the process backend and the FuturesBackend hardening.

The generated task programs must run unchanged on worker *processes*
over the shared-memory store, bit-identical to the sequential oracle;
the thread backend must deduplicate dependency slots and release its
pool even when a task fails.
"""

import pytest

from repro.codegen import emit_task_program, load_task_program
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.tasking import FuturesBackend, ProcessBackend
from repro.workloads import TABLE9
from tests.conftest import LISTING1


def run_process_backend(source, params, workers=2, coarsen=1):
    """Drive ProcessBackend through the *emitted* task program source."""
    interp = Interpreter.from_source(source, params)
    info = detect_pipeline(interp.scop, coarsen=coarsen)
    store = interp.new_store()
    module = load_task_program(emit_task_program(info))
    backend = ProcessBackend(
        write_num=module.WRITE_NUM, interpreter=interp,
        store=store, workers=workers,
    )
    # The callback never runs locally — ProcessBackend re-executes blocks
    # by statement name inside the workers; exploding here proves it.
    def run_block(statement, iters):
        raise AssertionError("ProcessBackend must not run blocks in-process")

    module.build_tasks(backend, run_block)
    result = backend.run()
    return interp, store, result


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
    @pytest.fixture
    def backend(self):
        interp = Interpreter.from_source(TABLE9["P1"].source(8), {})
        return ProcessBackend(
            write_num=1, interpreter=interp,
            store=interp.new_store(), workers=1,
        )

    def test_requires_statement(self, backend):
        with pytest.raises(ValueError, match="statement"):
            backend.create_task(
                lambda p: None, {"iters": [(0,)]}, out_depend=0, out_idx=0
            )

    def test_requires_payload_shape(self, backend):
        with pytest.raises(ValueError, match="payload shape"):
            backend.create_task(
                lambda p: None, "not-a-dict", 0, 0, statement="S1"
            )

    def test_mismatched_deps_rejected(self, backend):
        with pytest.raises(ValueError, match="equal length"):
            backend.create_task(
                lambda p: None, {"iters": [(0,)]}, 0, 0,
                in_depend=[0], in_idx=[], statement="S1",
            )

    def test_bad_construction(self):
        interp = Interpreter.from_source(TABLE9["P1"].source(8), {})
        with pytest.raises(ValueError):
            ProcessBackend(0, interp, interp.new_store())
        with pytest.raises(ValueError):
            ProcessBackend(1, interp, interp.new_store(), workers=0)

    def test_unpicklable_funcs_rejected_with_clear_error(self):
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) S: A[i][0] = myfn(A[i][0]);",
            {},
            funcs={"myfn": lambda x: x + 1},
        )
        store = interp.new_store()
        backend = ProcessBackend(1, interp, store, workers=1)
        backend.create_task(
            lambda p: None, {"iters": [(0,)]}, 0, 0, statement="S"
        )
        with pytest.raises(RuntimeError, match="picklable"):
            backend.run()

    def test_same_statement_blocks_chain(self, backend):
        t0 = backend.create_task(
            lambda p: None, {"iters": [(0,)]}, 0, 0, statement="S1"
        )
        t1 = backend.create_task(
            lambda p: None, {"iters": [(1,)]}, 1, 0, statement="S1"
        )
        assert t0 in backend.schedule().preds()[t1]


class TestFuturesBackendHardening:
    def test_duplicate_deps_deduplicated(self):
        backend = FuturesBackend(write_num=1, workers=2)
        log = []
        backend.create_task(lambda p: log.append(p), "up", 0, 0)
        backend.create_task(
            lambda p: log.append(p),
            "down",
            out_depend=1,
            out_idx=0,
            in_depend=[0, 0, 0],
            in_idx=[0, 0, 0],
        )
        backend.run()
        assert log == ["up", "down"]

    def test_no_threads_leak_after_success(self):
        import threading

        backend = FuturesBackend(write_num=1, workers=2)
        backend.create_task(lambda p: None, None, 0, 0)
        before = threading.active_count()
        stats = backend.run()
        assert threading.active_count() <= before
        assert stats["tasks"] == 1 and stats["policy"] == "work-stealing"

    def test_no_threads_leak_after_failure(self):
        import threading

        backend = FuturesBackend(write_num=1, workers=2)

        def boom(p):
            raise RuntimeError("task failed")

        backend.create_task(boom, None, 0, 0)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="task failed"):
            backend.run()
        # Work-stealing workers are joined before run() returns, on the
        # failure path too — nothing may outlive the call.
        assert threading.active_count() <= before
