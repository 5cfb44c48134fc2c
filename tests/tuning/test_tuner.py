"""Granularity auto-tuner: the ladder, legality, and measured rungs."""

from __future__ import annotations

import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.tuning import (
    CoarseningLegalityError,
    TunedPlan,
    apply_coarsening,
    auto_tune,
    candidate_factors,
)
from repro.workloads import TABLE9

from ..conftest import TWO_NEST_COPY, Counter


@pytest.fixture(scope="module")
def p5_setup():
    interp = Interpreter.from_source(TABLE9["P5"].source(12), {})
    return interp, detect_pipeline(interp.scop)


def test_apply_coarsening_reblocks_and_rederives(p5_setup):
    _, info = p5_setup
    coarse = apply_coarsening(info, {n: 2 for n in info.blockings})
    assert coarse.num_tasks() < info.num_tasks()
    for name, blocking in coarse.blockings.items():
        fine = info.blockings[name]
        # coarse ends are a subset of the fine ends, final end preserved
        assert len(blocking.ends.difference(fine.ends)) == 0
        assert (
            blocking.ends.points[-1] == fine.ends.points[-1]
        ).all()
    # dependencies were re-derived for the new blocks, not copied
    assert set(coarse.in_deps) == set(info.in_deps)


def test_apply_coarsening_rejects_bad_factor(p5_setup):
    _, info = p5_setup
    name = next(iter(info.blockings))
    with pytest.raises(CoarseningLegalityError):
        apply_coarsening(info, {name: 0})


def test_candidate_factors_ladder(p5_setup):
    _, info = p5_setup
    factors = candidate_factors(info, workers=4)
    assert factors[0] == 1
    assert factors == sorted(set(factors))
    max_blocks = max(b.num_blocks for b in info.blockings.values())
    assert max_blocks in factors
    assert max(1, max_blocks // 8) in factors


def test_auto_tune_search_measures_candidates():
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 6})
    info = detect_pipeline(interp.scop)
    plan = auto_tune(interp, info, "serial", 2, repeats=1)
    assert (plan.backend, plan.workers) == ("serial", 2)
    assert set(plan.scores) == set(candidate_factors(info, 2))
    assert all(wall > 0 for wall in plan.scores.values())
    best = min(plan.scores, key=plan.scores.get)
    assert all(f == best for f in plan.factors.values())


@pytest.mark.parametrize(
    "exec_backend,backend", [("serial", "serial"), (None, "threads")]
)
def test_tune_replays_each_rung_on_the_transforms_backend(
    monkeypatch, exec_backend, backend
):
    """The tuner measures where the transform's replay runs: one
    best-of-``repeats`` per ladder rung, every call on that backend at
    ``options.workers``, and the plan keeps the fastest rung."""
    import repro.interp
    from repro.driver import TransformOptions, transform

    source, workers = TABLE9["P5"].source(12), 3
    ladder = candidate_factors(
        detect_pipeline(Interpreter.from_source(source, {}).scop), workers
    )
    calls = Counter(monkeypatch, repro.interp, "execute_measured")
    result = transform(
        source, {},
        TransformOptions(tune=True, exec_backend=exec_backend,
                         workers=workers),
    )
    plan = result.tuning
    assert calls.calls == len(ladder) * 2  # auto_tune's default repeats
    assert {(kw["backend"], kw["workers"]) for kw in calls.kwargs} == {
        (backend, workers)
    }
    assert (plan.backend, plan.workers) == (backend, workers)
    assert sorted(plan.scores) == ladder
    best = min(plan.scores, key=plan.scores.get)
    assert plan.factors == {name: best for name in result.info.blockings}
    assert result.info is plan.info and result.verified is True


def test_tuned_plan_reporting(p5_setup):
    interp, info = p5_setup
    plan = auto_tune(interp, info, "threads", 2, repeats=1)
    d = plan.as_dict()
    assert (d["backend"], d["workers"]) == ("threads", 2)
    assert d["tasks"] == plan.tasks
    assert d["scores_ms"] == {str(f): ms for f, ms in plan.scores.items()}
    assert TunedPlan.from_dict(d, plan.info) == plan
    assert plan.summary().startswith("tuned coarsening (threads, 2 workers)")


def test_tuned_execution_is_bit_identical(p5_setup):
    """The plan's info executes to the same arrays as the sequential run."""
    from repro.interp import execute_measured

    interp, info = p5_setup
    plan = auto_tune(interp, info, "threads", 2, repeats=1)
    seq = interp.run_sequential(interp.new_store())
    coarsest = apply_coarsening(
        info, {n: max(plan.scores) for n in info.blockings}
    )
    for tuned in (plan.info, coarsest):
        for backend in ("serial", "threads"):
            store, _ = execute_measured(
                interp, tuned, backend=backend, workers=2
            )
            assert seq.equal(store), backend
