"""Measured execution of privatized reduction schedules.

:func:`execute_privatized` is the runtime half of the privatization
transformation (:mod:`repro.schedule.privatize`): it re-validates the
plan and replays the lowered task program — one identity-filled private
accumulator per member block, one join task per reduction group; see
:mod:`repro.interp.plan`.  All privatized backends (serial / threads /
processes) produce **bit-identical** accumulators for the same part
count — only the comparison against *sequential*
(:func:`privatized_matches`) needs an associativity-aware tolerance for
sum/product (min/max and exact-integer sums match bitwise there too).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .executor import ExecutionStats
from .interp import Interpreter
from .plan import run_plan
from .store import ArrayStore, same_bits

if TYPE_CHECKING:
    from ..pipeline import PipelineInfo
    from ..schedule.privatize import PrivatizationPlan

#: Accumulator comparisons against *sequential* execution that are exact
#: in float64 regardless of combine order.
EXACT_GROUPS = frozenset({"min", "max"})


def execute_privatized(
    interp: Interpreter,
    info: "PipelineInfo",
    plan: "PrivatizationPlan",
    backend: str = "serial",
    workers: int = 4,
    store: ArrayStore | None = None,
    cost_of_block: Callable | None = None,
    collect_events: bool = False,
    task_ast=None,
) -> tuple[ArrayStore, ExecutionStats]:
    """Run the privatized task program for ``info`` under ``plan``.

    ``info`` must already be the *privatized* pipeline info
    (:func:`repro.schedule.privatize.privatize_info`), i.e. member
    statements re-blocked into chunks, whose AST :func:`privatized_ast`
    relaxes; beside a ``task_ast`` (lowered as it is, already relaxed)
    it is not read and may be ``None``.  The plan is re-validated
    on every call — a tampered group (wrong identity, unverified proof)
    stops execution — and a plan without groups runs the standard
    program.  ``cost_of_block`` is accepted and unused.
    """
    del cost_of_block
    plan.validate()  # tamper guard on the execution path
    if task_ast is None:
        task_ast = privatized_ast(interp, info, plan)
    lowered = interp.exec_plan(info, task_ast)
    return run_plan(interp, lowered, backend, workers, store, collect_events)


def privatized_ast(interp: Interpreter, info, plan):
    """The task AST of ``info`` relaxed under ``plan`` (its members
    unchained, one join row per group), built once per ``(info, plan)``
    and kept with ``interp``'s lowered plans."""

    def build():
        from ..schedule import generate_task_ast, relax

        ast = generate_task_ast(info)
        return info, plan, relax(None, None, ast, plan=plan)

    return interp.cached(("relaxed", id(info), id(plan)), build)[2]


def privatized_matches(
    plan: "PrivatizationPlan",
    sequential: ArrayStore,
    privatized: ArrayStore,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> tuple[bool, str]:
    """Group-aware comparison of a privatized run against sequential.

    Non-accumulator arrays and ``min``/``max`` accumulators must match
    **bit-exactly** (reordering min/max is exact in float64); ``sum`` and
    ``product`` accumulators are compared with an explicit
    associativity-aware tolerance, because the join applies the operator
    in a different (but fixed) order than the sequential loop.
    """
    approx = {
        g.array for g in plan.groups if g.group not in EXACT_GROUPS
    }
    worst = ""
    for name in sorted(sequential.arrays):
        a = sequential.arrays[name].data
        b = privatized.arrays[name].data
        if name in approx:
            if not np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True):
                err = float(np.max(np.abs(a - b)))
                return False, f"{name}: max abs error {err:g} beyond tolerance"
            if not same_bits(a, b):
                worst = f"{name}: within tolerance (reassociated sum/product)"
        elif not same_bits(a, b):
            return False, f"{name}: exact comparison failed"
    return True, worst or "bit-exact"
