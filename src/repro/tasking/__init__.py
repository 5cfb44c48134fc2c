"""Tasking layer: task graphs, OpenMP-style depend semantics, runtime, simulator."""

from .api import OmpTaskSystem
from .dispatch import Schedule
from .runtime import (
    RunResult,
    TaskRuntimeError,
    bind_interpreter_actions,
    execute,
)
from .simulator import SimResult, scaling_curve, simulate
from .task import CyclicTaskGraphError, Task, TaskGraph

__all__ = [
    "CyclicTaskGraphError",
    "Schedule",
    "OmpTaskSystem",
    "RunResult",
    "SimResult",
    "Task",
    "TaskGraph",
    "TaskRuntimeError",
    "bind_interpreter_actions",
    "execute",
    "scaling_curve",
    "simulate",
]
