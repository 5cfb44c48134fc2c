"""Tests for the alternative tasking backends (tasking-layer independence).

The generated task programs must run unchanged against the OpenMP-like
reference system, the serial backend, and the futures backend, producing
bit-identical arrays — the paper's Section 7 portability claim.
"""

import pytest

from repro.codegen import emit_task_program, load_task_program
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.tasking import FuturesBackend, OmpTaskSystem, SerialBackend
from repro.workloads import TABLE9
from tests.conftest import LISTING1


def run_with_backend(interp, info, backend):
    store = interp.new_store()

    def run_block(statement, iters):
        interp.compiled[statement](store, interp.funcs, iters)

    module = load_task_program(emit_task_program(info))
    module.build_tasks(backend, run_block)
    backend.run(workers=4)
    return store


@pytest.fixture(scope="module")
def setup():
    interp = Interpreter.from_source(LISTING1, {"N": 12})
    info = detect_pipeline(interp.scop)
    seq = interp.run_sequential(interp.new_store())
    return interp, info, seq


class TestBackendsAgree:
    def test_serial(self, setup):
        interp, info, seq = setup
        store = run_with_backend(interp, info, SerialBackend(write_num=2))
        assert seq.equal(store)

    def test_futures(self, setup):
        interp, info, seq = setup
        store = run_with_backend(
            interp, info, FuturesBackend(write_num=2, workers=4)
        )
        assert seq.equal(store)

    def test_omp_reference(self, setup):
        interp, info, seq = setup
        store = run_with_backend(interp, info, OmpTaskSystem(write_num=2))
        assert seq.equal(store)

    def test_pkernel_on_all_backends(self):
        interp = Interpreter.from_source(TABLE9["P3"].source(8), {})
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        for backend in (
            SerialBackend(3),
            FuturesBackend(3, workers=3),
            OmpTaskSystem(3),
        ):
            assert seq.equal(run_with_backend(interp, info, backend))


class TestSerialBackend:
    def test_executes_immediately(self):
        backend = SerialBackend(write_num=1)
        log = []
        backend.create_task(lambda p: log.append(p), "a", 0, 0)
        assert log == ["a"]
        backend.create_task(lambda p: log.append(p), "b", 1, 0)
        assert log == ["a", "b"]
        assert len(backend) == 2

    def test_records_statements(self):
        backend = SerialBackend(write_num=1)
        backend.create_task(lambda p: None, None, 0, 0, statement="S")
        assert backend.executed == ["S"]

    def test_arg_checks(self):
        with pytest.raises(ValueError):
            SerialBackend(0)
        backend = SerialBackend(1)
        with pytest.raises(ValueError):
            backend.create_task(lambda p: None, None, 0, 0, in_depend=[1],
                                in_idx=[])


class TestFuturesBackend:
    def test_dependency_ordering(self):
        backend = FuturesBackend(write_num=1, workers=2)
        log = []

        def slow(p):
            import time

            time.sleep(0.02)
            log.append(p)

        backend.create_task(slow, "first", out_depend=0, out_idx=0)
        backend.create_task(
            lambda p: log.append(p),
            "second",
            out_depend=1,
            out_idx=0,
            in_depend=[0],
            in_idx=[0],
        )
        backend.run()
        assert log == ["first", "second"]

    def test_self_chain(self):
        backend = FuturesBackend(write_num=1, workers=4)
        log = []

        def f(p):
            log.append(p)

        # 200 tasks of one function: the no-op chain the retired
        # bench_runtime_overhead.py timed
        for k in range(200):
            backend.create_task(f, k, out_depend=k, out_idx=0)
        backend.run()
        assert len(backend) == 200 and log == list(range(200))

    def test_failure_propagates(self):
        backend = FuturesBackend(write_num=1, workers=2)

        def boom(p):
            raise RuntimeError("task failed")

        backend.create_task(boom, None, 0, 0)
        with pytest.raises(RuntimeError, match="task failed"):
            backend.run()

    def test_failure_poisons_dependents(self):
        backend = FuturesBackend(write_num=1, workers=2)
        ran = []

        def boom(p):
            raise RuntimeError("upstream")

        backend.create_task(boom, None, 0, 0)
        backend.create_task(
            lambda p: ran.append(1), None, 1, 0, in_depend=[0], in_idx=[0]
        )
        with pytest.raises(RuntimeError, match="upstream"):
            backend.run()
        assert ran == []

    def test_slot_range_checked(self):
        backend = FuturesBackend(write_num=2, workers=1)
        with pytest.raises(ValueError):
            backend.slot(0, 5)
