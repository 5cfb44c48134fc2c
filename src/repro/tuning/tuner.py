"""The granularity auto-tuner.

Given a detected pipeline at the paper's finest safe blocking, replay
each rung of a log-spaced ladder of global coarsening factors on the
backend and worker count that the transform's own replay will use, and
keep the fastest.  A rung is applied through the existing
:meth:`~repro.pipeline.blocking.Blocking.coarsened` machinery with the
dependency relations re-derived by
:func:`repro.pipeline.detect.derive_dependencies`.

Every application re-checks legality structurally: coarse ends must be a
subset of the fine ends with the final end preserved (so every block
still ends on an end that dominates the pipeline-map anchors — fine ends
dominate anchors by construction, and coarsening only moves iterations
to *later* ends), and the re-derived task graph must be acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from ..interp import Interpreter
    from ..pipeline import PipelineInfo


class CoarseningLegalityError(RuntimeError):
    """A coarsened blocking violated the structural legality conditions."""


@dataclass(frozen=True)
class TunedPlan:
    """What the tuner measured and what it kept."""

    #: statement name -> applied coarsening factor (1 = untouched)
    factors: dict[str, int]
    #: the re-blocked pipeline info the factors produce
    info: "PipelineInfo"
    #: global candidate factor -> best measured replay wall (ms)
    scores: dict[int, float]
    #: where the rungs were replayed: the transform's replay backend
    backend: str
    workers: int

    @property
    def tasks(self) -> int:
        return self.info.num_tasks()

    def as_dict(self) -> dict:
        return {
            "factors": dict(self.factors),
            "tasks": self.tasks,
            "scores_ms": {str(k): v for k, v in sorted(self.scores.items())},
            "backend": self.backend,
            "workers": self.workers,
        }

    @staticmethod
    def from_dict(d: dict, info: "PipelineInfo") -> "TunedPlan":
        """Inverse of :meth:`as_dict`, given the re-blocked ``info`` the
        factors produced (``tasks`` is derived from it)."""
        return TunedPlan(
            factors=dict(d["factors"]),
            info=info,
            scores={int(k): v for k, v in d["scores_ms"].items()},
            backend=d["backend"],
            workers=d["workers"],
        )

    def summary(self) -> str:
        factors = ", ".join(
            f"{name}x{f}" for name, f in sorted(self.factors.items())
        )
        return (
            f"tuned coarsening ({self.backend}, {self.workers} workers): "
            f"{factors or 'none'} -> {self.tasks} tasks"
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


def auto_tune(
    interp: "Interpreter",
    info: "PipelineInfo",
    backend: str,
    workers: int,
    repeats: int = 2,
) -> TunedPlan:
    """Replay every :func:`candidate_factors` rung of ``info`` on
    ``backend`` at ``workers`` (best of ``repeats`` runs each) and keep
    the fastest."""
    from ..interp import execute_measured

    rungs, scores = {}, {}
    for f in candidate_factors(info, workers):
        rungs[f] = apply_coarsening(info, {n: f for n in info.blockings})
        scores[f] = 1e3 * min(
            execute_measured(
                interp, rungs[f], backend=backend, workers=workers
            )[1].wall_time
            for _ in range(max(1, repeats))
        )
    best = min(scores, key=scores.get)
    return TunedPlan(
        factors={name: best for name in info.blockings},
        info=rungs[best],
        scores=scores,
        backend=backend,
        workers=workers,
    )
