"""The calibrated per-task / per-iteration cost model.

The discrete-event simulator (:func:`repro.tasking.simulate`) charges an
*abstract* overhead per task; ``benchmarks/bench_calibration.py`` sweeps
it to show how robust the figures are to the choice.  Here the overhead
stops being free: two measured one-worker runs of the same kernel at
different granularities pin both parameters of

    ``wall ≈ per_task_s · tasks + per_iter_s · iterations``

because the iteration count is identical while the task count differs —
per-task cost is the slope over tasks, per-iteration cost the remainder.
The model then predicts the makespan of any re-blocking by simulating
its task graph with block cost ``per_iter_s · size`` and overhead
``per_task_s``, which is what the granularity tuner ranks candidates
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..interp import Interpreter
    from ..pipeline import PipelineInfo

#: Floor for fitted parameters — measurement noise must not produce a
#: zero or negative cost (the simulator needs positive work).
_FLOOR_S = 1e-9


@dataclass(frozen=True)
class OverheadModel:
    """Seconds per task and per statement-iteration, plus provenance."""

    per_task_s: float
    per_iter_s: float
    #: (tasks, iterations, wall seconds) of the calibration runs
    samples: tuple[tuple[int, int, float], ...] = ()

    def predict_wall(self, tasks: int, iterations: int) -> float:
        """Serial wall-clock prediction of the linear model."""
        return self.per_task_s * tasks + self.per_iter_s * iterations

    def predict_makespan(self, info: "PipelineInfo", workers: int) -> float:
        """Simulated pipelined makespan (seconds) of one re-blocking."""
        from ..schedule import generate_task_ast
        from ..tasking import TaskGraph, simulate

        graph = TaskGraph.from_task_ast(
            generate_task_ast(info),
            cost_of_block=lambda b: self.per_iter_s * b.size,
        )
        return simulate(
            graph, workers=workers, overhead=self.per_task_s
        ).makespan

    def as_dict(self) -> dict:
        return {
            "per_task_s": self.per_task_s,
            "per_iter_s": self.per_iter_s,
            "samples": [list(s) for s in self.samples],
        }

    @staticmethod
    def from_dict(d: dict) -> "OverheadModel":
        return OverheadModel(
            d["per_task_s"],
            d["per_iter_s"],
            tuple(tuple(s) for s in d["samples"]),
        )

    def __str__(self) -> str:
        return (
            f"OverheadModel(per_task={self.per_task_s * 1e6:.1f}us, "
            f"per_iter={self.per_iter_s * 1e6:.1f}us)"
        )


@dataclass(frozen=True)
class DispatchCostModel:
    """Separate overhead pairs for the two dispatch paths.

    A fused closure in *slice form* pays a higher per-task cost than
    the compiled loop (closure entry, operand gather, one NumPy call
    per operand) but a much lower per-iteration cost.  The executor no
    longer loses below that crossover: ``FusedKernel.run_rects`` runs
    rectangles of at most ``LOOP_FORM_POINTS`` points in the kernel's
    loop form, which costs what a compiled-loop point costs, so the
    tuner need not re-block around 1-iteration blocks.  What the two
    ladders still measure is each path's *linear fit* between the given
    blocking and one block per statement: the fused pair now runs from
    a fine sample that may be all loop form to a coarse one that is all
    slices, so its ``per_task_s`` is dispatch plus the small-rectangle
    floor and :meth:`crossover_iters` says from which block size the
    slice form's per-iteration advantage has paid for it.
    """

    #: compiled-loop dispatch (``fuse="off"``)
    interp: OverheadModel
    #: fused-closure dispatch (``fuse="auto"``/``"on"``)
    fused: OverheadModel

    #: returned by :meth:`crossover_iters` when fused dispatch never
    #: catches up (its per-iteration cost is not actually lower)
    NEVER = 1 << 62

    def crossover_iters(self) -> int:
        """Smallest block size (iterations) where fused dispatch wins.

        Solves ``fused.per_task + s·fused.per_iter <= interp.per_task +
        s·interp.per_iter``: 1 when fused is cheaper even per task,
        :data:`NEVER` when fused's per-iteration cost is not lower.
        """
        import math

        extra_task = self.fused.per_task_s - self.interp.per_task_s
        iter_gain = self.interp.per_iter_s - self.fused.per_iter_s
        if extra_task <= 0:
            return 1
        if iter_gain <= 0:
            return self.NEVER
        return max(1, math.ceil(extra_task / iter_gain))

    def active(self, fuse: str | None) -> OverheadModel:
        """The overhead pair the executor will actually pay."""
        return self.interp if (fuse or "off") == "off" else self.fused

    def as_dict(self) -> dict:
        crossover = self.crossover_iters()
        return {
            "interp": self.interp.as_dict(),
            "fused": self.fused.as_dict(),
            "crossover_iters": (
                None if crossover == self.NEVER else crossover
            ),
        }

    @staticmethod
    def from_dict(d: dict) -> "DispatchCostModel":
        """Inverse of :meth:`as_dict` (``crossover_iters`` is derived)."""
        return DispatchCostModel(
            OverheadModel.from_dict(d["interp"]),
            OverheadModel.from_dict(d["fused"]),
        )

    def __str__(self) -> str:
        crossover = self.crossover_iters()
        where = (
            "never" if crossover == self.NEVER else f">={crossover} iters"
        )
        return (
            f"DispatchCostModel(interp={self.interp}, "
            f"fused={self.fused}, fused wins {where})"
        )


def calibrate_dispatch(
    interp: "Interpreter",
    info: "PipelineInfo",
    repeats: int = 2,
) -> DispatchCostModel:
    """Calibrate both dispatch paths on the same kernel and blocking.

    Builds two sibling interpreters over the caller's program/SCoP —
    one with ``fuse="off"`` (compiled loops), one with fused dispatch —
    and runs :func:`calibrate_overhead` on each, so every parameter is a
    real measurement of the path that would pay it.
    """
    from ..interp import Interpreter

    base = Interpreter(
        interp.program, interp.scop, interp.funcs, fuse="off"
    )
    fused_mode = interp.fuse if interp.fuse != "off" else "auto"
    fused = Interpreter(
        interp.program, interp.scop, interp.funcs, fuse=fused_mode
    )
    return DispatchCostModel(
        interp=calibrate_overhead(base, info, repeats=repeats),
        fused=calibrate_overhead(fused, info, repeats=repeats),
    )


def _measure_one_worker(
    interp: "Interpreter", info: "PipelineInfo", repeats: int
) -> tuple[int, int, float]:
    """Best-of-``repeats`` one-worker wall time of one blocking of the
    kernel, on ``threads``: it dispatches every task, where a ``serial``
    replay runs a fused stream as one call whatever its blocking."""
    from ..interp import execute_measured

    best = None
    for _ in range(max(1, repeats)):
        _, stats = execute_measured(
            interp, info, backend="threads", workers=1
        )
        if best is None or stats.wall_time < best.wall_time:
            best = stats
    return best.blocks_total, best.iterations_total, best.wall_time


def calibrate_overhead(
    interp: "Interpreter",
    info: "PipelineInfo",
    repeats: int = 2,
) -> OverheadModel:
    """Fit the model from two measured one-worker runs of ``info``'s
    kernel.

    The *fine* sample is ``info`` as given; the *coarse* sample collapses
    every statement into a single block (the fewest tasks any coarsening
    can reach), maximizing the task-count lever between the two runs.
    When ``info`` is already maximally coarse the per-task cost cannot be
    observed and falls back to the floor.
    """
    from .tuner import apply_coarsening

    max_blocks = max(
        (b.num_blocks for b in info.blockings.values()), default=1
    )
    fine = _measure_one_worker(interp, info, repeats)
    samples = [fine]
    if max_blocks > 1:
        coarse_info = apply_coarsening(
            info, {name: max_blocks for name in info.blockings}
        )
        coarse = _measure_one_worker(interp, coarse_info, repeats)
        samples.append(coarse)
        dt = fine[0] - coarse[0]
        per_task = (fine[2] - coarse[2]) / dt if dt else 0.0
        per_task = max(_FLOOR_S, per_task)
        per_iter = (coarse[2] - per_task * coarse[0]) / max(1, coarse[1])
    else:
        per_task = _FLOOR_S
        per_iter = fine[2] / max(1, fine[1])
    return OverheadModel(
        per_task_s=per_task,
        per_iter_s=max(_FLOOR_S, per_iter),
        samples=tuple(samples),
    )
