"""Generated task programs on the one ``CreateTask`` layer.

The generated task programs run unchanged against
:class:`~repro.tasking.OmpTaskSystem` — on the calling thread alone or on
work-stealing threads — producing arrays bit-identical to the sequential
interpreter (the paper's Section 7 portability claim is the
``create_task`` signature itself: ``examples/custom_backend.py`` wraps
it).  Plan replays never come through here; they are tested in
``tests/interp/test_plan.py``.
"""

import pytest

from repro.codegen import emit_task_program, load_task_program
from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline
from repro.tasking import OmpTaskSystem
from repro.workloads import TABLE9
from tests.conftest import LISTING1


def run_with_backend(interp, info, backend, workers=4):
    store = interp.new_store()

    def run_block(statement, iters):
        interp.compiled[statement](store, interp.funcs, iters)

    module = load_task_program(emit_task_program(info))
    module.build_tasks(backend, run_block)
    backend.run(workers=workers)
    return store


@pytest.fixture(scope="module")
def setup():
    interp = Interpreter.from_source(LISTING1, {"N": 12})
    info = detect_pipeline(interp.scop)
    seq = interp.run_sequential(interp.new_store())
    return interp, info, seq


class TestBackendsAgree:
    def test_serial(self, setup):
        """One worker: every task on the calling thread."""
        interp, info, seq = setup
        store = run_with_backend(
            interp, info, OmpTaskSystem(write_num=2), workers=1
        )
        assert seq.equal(store)

    def test_futures(self, setup):
        interp, info, seq = setup
        store = run_with_backend(
            interp, info, OmpTaskSystem(write_num=2), workers=4
        )
        assert seq.equal(store)

    def test_omp_reference(self, setup):
        interp, info, seq = setup
        store = run_with_backend(interp, info, OmpTaskSystem(write_num=2))
        assert seq.equal(store)

    def test_pkernel_on_all_backends(self):
        """The generated program on 1 and 3 workers, and the lowered plan
        of the same analysis on every replay backend."""
        interp = Interpreter.from_source(TABLE9["P3"].source(8), {})
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        for workers in (1, 3):
            store = run_with_backend(
                interp, info, OmpTaskSystem(3), workers=workers
            )
            assert seq.equal(store)
        for backend in ("serial", "threads", "processes"):
            out, _ = execute_measured(interp, info, backend=backend, workers=2)
            assert seq.equal(out)


class TestSerialBackend:
    def test_records_statements(self):
        system = OmpTaskSystem(write_num=1)
        system.create_task(lambda p: None, None, 0, 0, statement="S")
        assert [t.statement for t in system.graph.tasks] == ["S"]

    def test_arg_checks(self):
        with pytest.raises(ValueError):
            OmpTaskSystem(0)
        system = OmpTaskSystem(1)
        with pytest.raises(ValueError):
            system.create_task(lambda p: None, None, 0, 0, in_depend=[1],
                               in_idx=[])


class TestFuturesBackend:
    """``OmpTaskSystem.run`` on work-stealing threads: ordering, the
    ``funcCount`` chain and failure propagation."""

    def test_dependency_ordering(self):
        system = OmpTaskSystem(write_num=1)
        log = []

        def slow(p):
            import time

            time.sleep(0.02)
            log.append(p)

        system.create_task(slow, "first", out_depend=0, out_idx=0)
        system.create_task(
            lambda p: log.append(p),
            "second",
            out_depend=1,
            out_idx=0,
            in_depend=[0],
            in_idx=[0],
        )
        system.run(workers=2)
        assert log == ["first", "second"]

    def test_self_chain(self):
        system = OmpTaskSystem(write_num=1)
        log = []

        def f(p):
            log.append(p)

        # 200 tasks of one function: the no-op chain the retired
        # bench_runtime_overhead.py timed
        for k in range(200):
            system.create_task(f, k, out_depend=k, out_idx=0)
        system.run(workers=4)
        assert len(system) == 200 and log == list(range(200))

    def test_failure_propagates(self):
        system = OmpTaskSystem(write_num=1)

        def boom(p):
            raise RuntimeError("task failed")

        system.create_task(boom, None, 0, 0)
        with pytest.raises(RuntimeError, match="task failed"):
            system.run(workers=2)

    def test_failure_poisons_dependents(self):
        system = OmpTaskSystem(write_num=1)
        ran = []

        def boom(p):
            raise RuntimeError("upstream")

        system.create_task(boom, None, 0, 0)
        system.create_task(
            lambda p: ran.append(1), None, 1, 0, in_depend=[0], in_idx=[0]
        )
        with pytest.raises(RuntimeError, match="upstream"):
            system.run(workers=2)
        assert ran == []

    def test_slot_range_checked(self):
        system = OmpTaskSystem(write_num=2)
        with pytest.raises(ValueError):
            system.slot(0, 5)
