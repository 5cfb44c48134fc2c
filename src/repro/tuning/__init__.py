"""Task-granularity auto-tuning.

The paper's Figure 10 shows pipeline speed-up collapsing once blocks get
small relative to per-task overhead; its granularity knob (coarsening)
is left manual.  :func:`~repro.tuning.tuner.auto_tune` closes the loop
by measurement: it replays each rung of a log-spaced ladder of global
coarsening factors on the backend and worker count the transform's own
replay uses, and keeps the fastest.  Factors are applied through
:meth:`repro.pipeline.blocking.Blocking.coarsened` with a legality
re-check.
"""

from .tuner import (
    CoarseningLegalityError,
    TunedPlan,
    apply_coarsening,
    auto_tune,
    candidate_factors,
)

__all__ = [
    "CoarseningLegalityError",
    "TunedPlan",
    "apply_coarsening",
    "auto_tune",
    "candidate_factors",
]
