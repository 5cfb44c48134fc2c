"""The fused-dispatch cost model: two ladders, one crossover."""

from __future__ import annotations

import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.tuning import (
    DispatchCostModel,
    OverheadModel,
    auto_tune,
    calibrate_dispatch,
)

from ..conftest import TWO_NEST_COPY


def _model(interp_task, interp_iter, fused_task, fused_iter):
    return DispatchCostModel(
        interp=OverheadModel(per_task_s=interp_task, per_iter_s=interp_iter),
        fused=OverheadModel(per_task_s=fused_task, per_iter_s=fused_iter),
    )


def test_crossover_where_fused_pays_more_per_task():
    # 100us extra per task, 4.5us saved per iteration -> 23 iterations
    model = _model(50e-6, 5e-6, 150e-6, 0.5e-6)
    assert model.crossover_iters() == 23
    # at the crossover the fused ladder is no slower
    s = model.crossover_iters()
    assert model.fused.predict_wall(1, s) <= model.interp.predict_wall(1, s)
    # one iteration below it, the interpreter ladder wins
    assert model.fused.predict_wall(1, s - 1) > model.interp.predict_wall(
        1, s - 1
    )


def test_crossover_is_one_when_fused_dominates():
    assert _model(50e-6, 5e-6, 40e-6, 1e-6).crossover_iters() == 1


def test_crossover_never_when_fused_iterations_not_cheaper():
    model = _model(50e-6, 1e-6, 150e-6, 1e-6)
    assert model.crossover_iters() == DispatchCostModel.NEVER
    assert model.as_dict()["crossover_iters"] is None
    assert "never" in str(model)


def test_active_pair_follows_the_fuse_mode():
    model = _model(1.0, 1.0, 2.0, 2.0)
    assert model.active("off") is model.interp
    assert model.active(None) is model.interp
    assert model.active("auto") is model.fused
    assert model.active("on") is model.fused


def test_one_iteration_blocks_lose_under_fused_dispatch():
    """The satellite's point: at 1-iteration blocks a fused closure is
    slower than the interpreter ladder whenever its per-task overhead is
    higher — the tuner must see that, not an averaged pair."""
    model = _model(50e-6, 5e-6, 150e-6, 0.5e-6)
    assert model.fused.predict_wall(100, 100) > model.interp.predict_wall(
        100, 100
    )


@pytest.fixture(scope="module")
def fused_setup():
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 10})
    return interp, detect_pipeline(interp.scop)


def test_calibrate_dispatch_measures_both_ladders(fused_setup):
    interp, info = fused_setup
    model = calibrate_dispatch(interp, info, repeats=1)
    for ladder in (model.interp, model.fused):
        assert ladder.per_task_s > 0
        assert ladder.per_iter_s > 0
        assert ladder.samples
    assert model.crossover_iters() >= 1


def test_fused_per_task_cost_is_measured_where_it_is_paid():
    """P5's four nests fuse into one stream, which a serial replay runs
    as one kernel call at any blocking; the one-worker threads replay
    the ladders are measured on dispatches every block, so the fine and
    the fully coarse sample differ by real per-task cost."""
    from repro.tuning.costmodel import _FLOOR_S
    from repro.workloads import TABLE9

    interp = Interpreter.from_source(TABLE9["P5"].source(14), {})
    info = detect_pipeline(interp.scop, coarsen=1)
    model = calibrate_dispatch(interp, info, repeats=2)
    fine, coarse = model.fused.samples
    assert fine[0] > coarse[0]  # the task-count lever
    assert model.fused.per_task_s > 100 * _FLOOR_S


def test_auto_tune_uses_fused_ladder_when_fusing(fused_setup):
    interp, info = fused_setup
    plan = auto_tune(interp, info, workers=2, mode="model", repeats=1)
    assert plan.dispatch is not None
    assert plan.model is plan.dispatch.fused
    assert plan.as_dict()["dispatch"]["crossover_iters"] is None or (
        plan.as_dict()["dispatch"]["crossover_iters"] >= 1
    )


def test_auto_tune_skips_dispatch_when_fuse_off():
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 10}, fuse="off")
    info = detect_pipeline(interp.scop)
    plan = auto_tune(interp, info, workers=2, mode="model", repeats=1)
    assert plan.dispatch is None
    assert plan.model is not None


def test_auto_tune_accepts_precalibrated_dispatch(fused_setup):
    interp, info = fused_setup
    given = _model(50e-6, 5e-6, 150e-6, 0.5e-6)
    plan = auto_tune(
        interp, info, workers=2, mode="model", dispatch=given, repeats=1
    )
    assert plan.dispatch is given
    assert plan.model is given.fused
