"""Threaded task runtime (the OpenMP-task execution substitute).

Executes a :class:`~repro.tasking.task.TaskGraph` whose tasks carry
``action`` callables on worker threads, honouring every precedence edge
— functionally what ``omp task depend(...)`` provides.  :func:`execute`
is an adapter: the schedule comes from the graph's own ``preds``, the
calls from ``task.action``, and the run is the one work-stealing
scheduler every thread execution shares
(:func:`repro.tasking.dispatch.run_threads`).  Python threads don't give
the paper's wall-clock speed-ups (GIL), so this runtime exists for
*correctness*: it really runs the computation concurrently and the
tests compare its arrays against the sequential interpreter
bit-for-bit.  Performance numbers come from
:mod:`repro.tasking.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import runtime as obs_runtime
from .dispatch import Schedule, run_threads
from .task import TaskGraph


@dataclass(frozen=True)
class RunResult:
    """Execution record of one threaded run."""

    completion_order: tuple[int, ...]
    errors: tuple[BaseException, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


class TaskRuntimeError(RuntimeError):
    """A task raised; the original exceptions are attached."""

    def __init__(self, errors: tuple[BaseException, ...]):
        self.errors = errors
        super().__init__(f"{len(errors)} task(s) failed: {errors[0]!r}")


def execute(graph: TaskGraph, workers: int = 4) -> RunResult:
    """Run every task's action on ``workers`` threads, respecting edges."""
    graph.validate()
    tasks = graph.tasks
    completion: list[int] = []

    def call(tid: int) -> None:
        action = tasks[tid].action
        try:
            if action is not None:
                action()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            raise TaskRuntimeError((exc,)) from exc
        completion.append(tid)

    run_threads(
        Schedule.from_preds(graph.preds), call, workers,
        lambda tid: tasks[tid].statement, obs_runtime.current(),
    )
    return RunResult(tuple(completion), ())


def bind_interpreter_actions(graph: TaskGraph, interpreter, store) -> None:
    """Attach actions that run each task's block via the interpreter."""
    for task in graph.tasks:
        block = task.block
        if block is None:
            continue
        iters = block.iterations
        stmt = block.statement

        def action(stmt=stmt, iters=iters) -> None:
            interpreter.run_block(store, stmt, iters)

        task.action = action
