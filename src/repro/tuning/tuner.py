"""The granularity auto-tuner.

Given a detected pipeline at the paper's finest safe blocking, pick a
coarsening factor per statement that minimizes (predicted or measured)
wall time, and apply it through the existing
:meth:`~repro.pipeline.blocking.Blocking.coarsened` machinery with the
dependency relations re-derived by
:func:`repro.pipeline.detect.derive_dependencies`.

``mode="model"`` ranks candidate factors on the calibrated
:class:`~repro.tuning.costmodel.OverheadModel` via the discrete-event
simulator — cheap enough to scan a log-spaced ladder of global factors
and then refine per statement.  ``mode="search"`` measures a real
execution per global candidate on the requested backend instead; slower
but assumption-free.

Every application re-checks legality structurally: coarse ends must be a
subset of the fine ends with the final end preserved (so every block
still ends on an end that dominates the pipeline-map anchors — fine ends
dominate anchors by construction, and coarsening only moves iterations
to *later* ends), and the re-derived task graph must be acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from .costmodel import (
    DispatchCostModel,
    OverheadModel,
    calibrate_dispatch,
    calibrate_overhead,
)

if TYPE_CHECKING:
    from ..interp import Interpreter
    from ..pipeline import PipelineInfo

MODES = ("model", "search")


class CoarseningLegalityError(RuntimeError):
    """A coarsened blocking violated the structural legality conditions."""


@dataclass(frozen=True)
class TunedPlan:
    """What the tuner decided and why."""

    mode: str
    #: statement name -> applied coarsening factor (1 = untouched)
    factors: dict[str, int]
    #: the re-blocked pipeline info the factors produce
    info: "PipelineInfo"
    model: OverheadModel | None
    #: global candidate factor -> predicted (model) or measured (search)
    #: seconds, for the bench reports
    scores: dict[int, float]
    #: both dispatch ladders' calibrations, when fused dispatch was on
    #: (``model`` is then ``dispatch.active(interp.fuse)``)
    dispatch: DispatchCostModel | None = None

    @property
    def tasks(self) -> int:
        return self.info.num_tasks()

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "factors": dict(self.factors),
            "tasks": self.tasks,
            "scores_s": {str(k): v for k, v in sorted(self.scores.items())},
            "model": self.model.as_dict() if self.model else None,
            "dispatch": self.dispatch.as_dict() if self.dispatch else None,
        }

    @staticmethod
    def from_dict(d: dict, info: "PipelineInfo") -> "TunedPlan":
        """Inverse of :meth:`as_dict`, given the re-blocked ``info`` the
        factors produced (``tasks`` is derived from it)."""
        model, dispatch = d["model"], d["dispatch"]
        return TunedPlan(
            mode=d["mode"],
            factors=dict(d["factors"]),
            info=info,
            model=OverheadModel.from_dict(model) if model else None,
            scores={int(k): v for k, v in d["scores_s"].items()},
            dispatch=(
                DispatchCostModel.from_dict(dispatch) if dispatch else None
            ),
        )

    def summary(self) -> str:
        factors = ", ".join(
            f"{name}x{f}" for name, f in sorted(self.factors.items())
        )
        return (
            f"tuned coarsening ({self.mode}): {factors or 'none'} "
            f"-> {self.tasks} tasks"
        )


def apply_coarsening(
    info: "PipelineInfo", factors: Mapping[str, int]
) -> "PipelineInfo":
    """Re-block ``info`` with per-statement factors and re-derive deps.

    Factors are relative to ``info``'s current blocks (missing statements
    keep theirs).  Raises :class:`CoarseningLegalityError` if any coarse
    blocking breaks the structural conditions or the resulting task
    graph is not a DAG.
    """
    import dataclasses

    from ..pipeline.detect import derive_dependencies

    blockings = {}
    for name, blocking in info.blockings.items():
        factor = int(factors.get(name, 1))
        try:
            coarse = blocking.coarsened(factor)
        except (AssertionError, ValueError) as exc:
            raise CoarseningLegalityError(
                f"coarsening {name} by {factor}: {exc}"
            ) from exc
        if factor > 1 and blocking.num_blocks:
            fine_last = blocking.ends.points[-1]
            coarse_last = coarse.ends.points[-1]
            if not (fine_last == coarse_last).all():
                raise CoarseningLegalityError(
                    f"coarsening {name} by {factor} moved the final block "
                    "end — left-over iterations would lose their block"
                )
        blockings[name] = coarse
    in_deps, out_deps = derive_dependencies(
        info.scop, info.pipeline_maps, blockings
    )
    coarse_info = dataclasses.replace(
        info, blockings=blockings, in_deps=in_deps, out_deps=out_deps
    )
    _check_acyclic(coarse_info)
    return coarse_info


def _check_acyclic(info: "PipelineInfo") -> None:
    from ..schedule import generate_task_ast
    from ..tasking import CyclicTaskGraphError, TaskGraph

    try:
        TaskGraph.from_task_ast(generate_task_ast(info))
    except CyclicTaskGraphError as exc:
        raise CoarseningLegalityError(
            f"coarsened task graph is cyclic: {exc}"
        ) from exc


def candidate_factors(info: "PipelineInfo", workers: int) -> list[int]:
    """Log-spaced ladder of global factors, plus the workers-aware pick.

    1 (the paper's finest), powers of two up to the largest statement's
    block count (fully serial per statement), and ``blocks / (2 ·
    workers)`` — roughly two waves per worker, the rule-of-thumb sweet
    spot when per-task overhead dominates.
    """
    max_blocks = max(
        (b.num_blocks for b in info.blockings.values()), default=1
    )
    factors = {1}
    f = 2
    while f < max_blocks:
        factors.add(f)
        f *= 2
    if max_blocks > 1:
        factors.add(max_blocks)
        factors.add(max(1, max_blocks // max(1, 2 * workers)))
    return sorted(factors)


def _measured_wall(
    interp: "Interpreter",
    info: "PipelineInfo",
    backend: str,
    workers: int,
    repeats: int,
) -> float:
    from ..interp import execute_measured

    best = None
    for _ in range(max(1, repeats)):
        _, stats = execute_measured(
            interp, info, backend=backend, workers=workers
        )
        if best is None or stats.wall_time < best:
            best = stats.wall_time
    return best


def auto_tune(
    interp: "Interpreter",
    info: "PipelineInfo",
    workers: int = 4,
    mode: str = "model",
    model: OverheadModel | None = None,
    backend: str = "threads",
    repeats: int = 2,
    dispatch: DispatchCostModel | None = None,
) -> TunedPlan:
    """Pick coarsening factors for ``info`` and return the tuned plan.

    ``mode="model"`` calibrates an :class:`OverheadModel` (unless one is
    passed in), scores every global candidate factor on the simulator,
    then greedily refines each statement's factor by trying its
    neighbours on the ladder.  ``mode="search"`` measures each global
    candidate for real on ``backend`` and keeps the fastest — no
    per-statement refinement, the measurement budget is the ladder.

    When the caller's interpreter has fused dispatch enabled, the model
    mode calibrates *both* ladders (:func:`calibrate_dispatch`) and
    scores with the fused overhead pair — fused closures pay more per
    task and less per iteration, so tuning with the interpreter's pair
    would claim 1-iteration blocks are cheap exactly where they are not.
    """
    if mode not in MODES:
        raise ValueError(f"unknown tuning mode {mode!r}; choose from {MODES}")
    candidates = candidate_factors(info, workers)

    if mode == "search":
        scores = {
            f: _measured_wall(
                interp,
                apply_coarsening(info, {n: f for n in info.blockings}),
                backend,
                workers,
                repeats,
            )
            for f in candidates
        }
        best = min(scores, key=scores.get)
        factors = {name: best for name in info.blockings}
        return TunedPlan(
            mode=mode,
            factors=factors,
            info=apply_coarsening(info, factors),
            model=model,
            scores=scores,
            dispatch=dispatch,
        )

    if model is None:
        if (interp.fuse or "off") != "off":
            if dispatch is None:
                dispatch = calibrate_dispatch(interp, info, repeats=repeats)
            model = dispatch.active(interp.fuse)
        else:
            model = calibrate_overhead(interp, info, repeats=repeats)
    scores = {
        f: model.predict_makespan(
            apply_coarsening(info, {n: f for n in info.blockings}), workers
        )
        for f in candidates
    }
    best = min(scores, key=scores.get)
    factors = {name: best for name in info.blockings}
    best_score = scores[best]

    # One greedy refinement pass: each statement tries the neighbouring
    # ladder rungs while the others keep their factor.
    for name in info.blockings:
        current = factors[name]
        for trial in (max(1, current // 2), current * 2):
            if trial == current:
                continue
            if trial > max(1, info.blockings[name].num_blocks):
                continue
            attempt = dict(factors)
            attempt[name] = trial
            try:
                predicted = model.predict_makespan(
                    apply_coarsening(info, attempt), workers
                )
            except CoarseningLegalityError:
                continue
            if predicted < best_score:
                best_score = predicted
                factors = attempt
    return TunedPlan(
        mode=mode,
        factors=factors,
        info=apply_coarsening(info, factors),
        model=model,
        scores=scores,
        dispatch=dispatch,
    )
