#!/usr/bin/env python3
"""Writing your own tasking layer (the paper's portability claim).

Section 7 expects the tasking layer to be replaceable "with minimal
changes".  Concretely: a backend is any object with the CreateTask
signature of Figure 7 —

    create_task(func, task_input, out_depend, out_idx,
                in_depend=(), in_idx=(), cost=1.0, statement=None,
                chain=True)

plus ``run(workers)``.  This example implements a *tracing* backend that
wraps the bundled OpenMP-like layer (``OmpTaskSystem``: full depend
semantics, run on work-stealing threads) and records the dependency
traffic, then runs the generated task program of Listing 1 through it
unchanged.

Run:  python examples/custom_backend.py
"""

from repro.codegen import emit_task_program, load_task_program
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.tasking import OmpTaskSystem

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""


class TracingBackend:
    """Counts depend-clause traffic while delegating to a real backend."""

    def __init__(self, write_num: int, workers: int = 4):
        self.inner = OmpTaskSystem(write_num)
        self.workers = workers
        self.tasks_created = 0
        self.in_dependencies = 0
        self.slots_written: set[int] = set()

    def create_task(self, func, task_input, out_depend, out_idx,
                    in_depend=(), in_idx=(), cost=1.0, statement=None,
                    chain=True):
        self.tasks_created += 1
        self.in_dependencies += len(in_depend)
        self.slots_written.add(self.inner.slot(out_depend, out_idx))
        return self.inner.create_task(
            func, task_input, out_depend, out_idx, in_depend, in_idx,
            cost, statement, chain,
        )

    def run(self, workers: int = 0):
        return self.inner.run(workers or self.workers)


def main() -> None:
    interp = Interpreter.from_source(LISTING1, {"N": 14})
    info = detect_pipeline(interp.scop)
    module = load_task_program(emit_task_program(info))

    seq = interp.run_sequential(interp.new_store())
    store = interp.new_store()

    def run_block(statement, iters):
        interp.compiled[statement](store, interp.funcs, iters)

    backend = TracingBackend(write_num=module.WRITE_NUM, workers=4)
    module.build_tasks(backend, run_block)
    backend.run()

    print(f"tasks created:          {backend.tasks_created}")
    print(f"in-dependencies issued: {backend.in_dependencies}")
    print(f"distinct out slots:     {len(backend.slots_written)}")
    print(f"result matches sequential: {seq.equal(store)}")


if __name__ == "__main__":
    main()
