"""Measured execution of pipelined task programs.

Everything upstream of this module *analyzes* or *simulates*; here the
task program actually runs against real arrays, timed.
:func:`execute_measured` replays the program's lowered
:class:`~repro.interp.plan.ExecPlan` (cached on the interpreter) on one
of three backends, each of which runs the identical program:

* ``serial`` — the plan's serial elision: its task streams in creation
  order, a topological order of the schedule, each stream of kernel
  rows as one kernel call over the rectangles of its rows' union
  (:func:`~repro.interp.plan.run_stream_runs`); a replay that collects
  runtime events loops over the rows instead
  (:func:`~repro.tasking.dispatch.run_serial`);
* ``threads`` — work stealing over the compiled schedule, the caller as
  worker 0 (:func:`~repro.tasking.dispatch.run_threads`; GIL-limited
  for scalar bodies, overlaps NumPy kernels and blocking calls);
* ``processes`` — ready batches on a worker-process pool over a
  :class:`~repro.interp.store.SharedArrayStore`
  (:func:`~repro.tasking.backends.run_processes`; true multi-core).

It returns the mutated store plus an :class:`ExecutionStats` record
carrying wall time and the fused coverage of the plan — blocks whose
statement's kernel has no slice form ran its loop form, and the
per-statement ``fused_fallback`` records say why.  Bench traces embed
this record (see ``repro.bench.trace``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .interp import Interpreter
from .store import ArrayStore

if TYPE_CHECKING:
    from ..obs.runtime import RuntimeTrace

BACKENDS = ("serial", "threads", "processes")
#: Accepted spellings for each backend name.
BACKEND_ALIASES = {
    "serial": "serial",
    "thread": "threads",
    "threads": "threads",
    "threading": "threads",
    "process": "processes",
    "processes": "processes",
}


@dataclass(frozen=True)
class ExecutionStats:
    """What one measured execution did and how long it took."""

    backend: str
    workers: int
    wall_time: float
    blocks_total: int
    iterations_total: int
    #: tasks the backend dispatched (rows of the plan: a merged chain is
    #: one task per block index, a reduction adds its join tasks)
    tasks: int = 0
    scheduler: dict | None = None  # backend dispatch statistics
    #: live runtime events of the run (None unless collect_events);
    #: per-task timestamps are on the parent's monotonic clock — worker
    #: processes report ``monotonic_ns`` rebased through a calibrated
    #: per-worker offset, never raw ``perf_counter`` values
    events: "RuntimeTrace | None" = None
    #: privatized-reduction summary (arrays, parts, join labels) when
    #: the run came from :func:`repro.interp.privexec.execute_privatized`
    privatization: dict | None = None
    #: resolved fuse mode of the interpreter that ran
    fuse: str = "off"
    #: blocks / statement instances whose kernel has a slice form (chain
    #: members count individually so coverage stays comparable)
    blocks_fused: int = 0
    iterations_fused: int = 0
    #: per-statement kernel forms planned for this run: "fused" (a
    #: slice form, loop form on small rectangles) / "interp" (loop form)
    dispatch_modes: dict[str, str] = field(default_factory=dict)
    #: per-statement slice-form refusals:
    #: {stmt: {"reason": ..., "code": RPA06x}}
    fused_fallback: dict[str, dict] = field(default_factory=dict)
    #: merged block-chains executed as single tasks, e.g. (("S", "T"),)
    fused_chains: tuple[tuple[str, ...], ...] = ()
    #: backend task id -> unfused-graph task ids it executed (empty when
    #: no chains were merged, i.e. ids already align); lets collected
    #: events be expanded back onto the unfused task graph
    task_members: tuple[tuple[int, ...], ...] = ()

    @property
    def fused_block_coverage(self) -> float:
        """Fraction of blocks whose kernel has a slice form."""
        return self.blocks_fused / self.blocks_total if (
            self.blocks_total
        ) else 0.0

    @property
    def fused_iteration_coverage(self) -> float:
        """Fraction of statement instances whose kernel has a slice form."""
        return self.iterations_fused / self.iterations_total if (
            self.iterations_total
        ) else 0.0

    def as_dict(self) -> dict:
        """JSON-ready form for traces and bench reports."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "fuse": self.fuse,
            "wall_time_s": self.wall_time,
            "blocks_total": self.blocks_total,
            "blocks_fused": self.blocks_fused,
            "iterations_total": self.iterations_total,
            "iterations_fused": self.iterations_fused,
            "fused_block_coverage": round(self.fused_block_coverage, 4),
            "fused_iteration_coverage": round(
                self.fused_iteration_coverage, 4
            ),
            "dispatch_modes": dict(self.dispatch_modes),
            "fused_fallback": dict(self.fused_fallback),
            "fused_chains": [list(c) for c in self.fused_chains],
            "task_members": [list(m) for m in self.task_members],
            "scheduler": self.scheduler,
            "runtime": (
                self.events.summary_dict() if self.events is not None else None
            ),
            "privatization": self.privatization,
        }

    def summary(self) -> str:
        fused = 100.0 * self.fused_iteration_coverage
        return (
            f"{self.backend} ({self.workers} workers, fuse={self.fuse}): "
            f"{self.wall_time * 1e3:.1f} ms, "
            f"{self.blocks_total} blocks, {fused:.0f}% iterations fused"
        )


def plan_coverage(ast, fprog) -> dict:
    """The coverage fields of :class:`ExecutionStats` for running ``ast``
    with the kernel program ``fprog``: a block counts as fused when its
    statement's kernel has a slice form."""
    blocks_total = iters_total = blocks_fused = iters_fused = 0
    dispatch_modes: dict[str, str] = {}
    for nest in ast.nests:
        fused = fprog.get(nest.statement).spec.slice_form
        dispatch_modes[nest.statement] = "fused" if fused else "interp"
        for block in nest.blocks:
            size = len(block.iterations)
            blocks_total += 1
            iters_total += size
            if fused:
                blocks_fused += 1
                iters_fused += size
    return {
        "blocks_total": blocks_total,
        "iterations_total": iters_total,
        "blocks_fused": blocks_fused,
        "iterations_fused": iters_fused,
        "dispatch_modes": dispatch_modes,
        "fused_fallback": fprog.fallbacks(),
    }


def execute_measured(
    interp: Interpreter,
    info,
    backend: str = "serial",
    workers: int = 4,
    store: ArrayStore | None = None,
    cost_of_block: Callable | None = None,
    collect_events: bool = False,
    task_ast=None,
    graph=None,
) -> tuple[ArrayStore, ExecutionStats]:
    """Run the pipelined task program for ``info`` and time it.

    The program is lowered once per ``(interp, task_ast)`` — or per
    ``(interp, info)`` when the lowering generates the AST itself — and
    cached on the interpreter (:meth:`Interpreter.exec_plan`; ``graph``,
    the checked task graph of ``task_ast``, spares the lowering a
    rebuild); every call replays it (:func:`repro.interp.plan.run_plan`).
    The store (a fresh deterministic one unless given) is mutated in
    place and returned with timing/coverage statistics.  Every backend
    executes the identical task program, so results are bit-comparable
    across backends and against :meth:`Interpreter.run_sequential`.
    ``cost_of_block`` is accepted and unused: no execution backend reads
    task costs (only the simulator's graph carries them).
    """
    from .plan import run_plan

    del cost_of_block
    plan = interp.exec_plan(info, task_ast, graph=graph)
    return run_plan(interp, plan, backend, workers, store, collect_events)
