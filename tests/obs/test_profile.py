"""Tests for the critical-path profiler."""

import json

import pytest

from repro.obs.profile import ProfileReport, profile_run


def profile_listing1(backend, workers):
    """What ``repro profile`` does: one measured ``transform`` with
    event collection, joined by ``profile_run``."""
    from repro.driver import TransformOptions, transform
    from tests.conftest import LISTING1

    result = transform(
        LISTING1,
        {"N": 12},
        TransformOptions(
            coarsen=3, exec_backend=backend, workers=workers,
            collect_events=True,
        ),
    )
    return profile_run(result.graph, result.simulation, result.execution)


@pytest.fixture(scope="module")
def profiled():
    return profile_listing1("serial", 1)


class TestProfileKernel:
    def test_basic_shape(self, profiled):
        assert profiled.backend == "serial"
        assert profiled.tasks == profiled.events > 0

    def test_critical_path_is_a_chain(self, profiled):
        assert profiled.critical_path
        assert profiled.critical_path_s > 0
        # path durations sum to the reported critical-path length
        total_ms = sum(dur for _, _, _, dur in profiled.critical_path)
        assert total_ms == pytest.approx(
            profiled.critical_path_s * 1e3, rel=1e-6
        )

    def test_critical_path_bounded_by_makespan(self, profiled):
        # serial backend: one worker, so the measured makespan covers
        # every task and the critical path can't exceed it
        assert profiled.critical_path_s <= (
            profiled.measured_makespan_s * 1.01
        )

    def test_statement_shares_sum_to_one(self, profiled):
        shares = [row["share"] for row in profiled.statements.values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        tasks = sum(row["tasks"] for row in profiled.statements.values())
        assert tasks == profiled.tasks

    def test_prediction_and_delta(self, profiled):
        assert profiled.sim_makespan_units > 0
        assert profiled.predicted_makespan_s > 0
        # delta is exactly the relative divergence
        assert profiled.makespan_delta == pytest.approx(
            (profiled.measured_makespan_s - profiled.predicted_makespan_s)
            / profiled.predicted_makespan_s
        )

    def test_slack_rows_non_negative_and_sorted(self, profiled):
        slacks = [s for _, _, _, s in profiled.top_slack]
        assert slacks == sorted(slacks, reverse=True)
        assert all(s >= -1e-9 for s in slacks)

    def test_as_dict_json_roundtrip(self, profiled):
        doc = json.loads(json.dumps(profiled.as_dict()))
        assert doc["tasks"] == profiled.tasks
        assert doc["critical_path"][0]["duration_ms"] >= 0

    def test_format_renders(self, profiled):
        text = profiled.format(top=3)
        assert "critical path" in text
        assert "per-statement self time" in text


class TestProfileRun:
    def test_requires_collected_events(self):
        from repro.bench import build_scop, pipeline_task_graph
        from repro.interp import Interpreter, execute_measured
        from repro.pipeline import detect_pipeline
        from repro.tasking import simulate
        from repro.workloads import CostModel
        from tests.conftest import LISTING1

        graph = pipeline_task_graph(
            build_scop(LISTING1, {"N": 8}), CostModel.uniform(1.0)
        )
        sim = simulate(graph, workers=2)
        interp = Interpreter.from_source(LISTING1, {"N": 8})
        info = detect_pipeline(interp.scop)
        _, stats = execute_measured(interp, info, backend="serial")
        with pytest.raises(ValueError, match="collected events"):
            profile_run(graph, sim, stats)

    def test_threads_profile_has_calibrationless_clocks(self):
        report = profile_listing1("threads", 2)
        assert report.clock_calibration == {}
        assert report.events == report.tasks

    def test_makespan_delta_zero_when_unpredictable(self):
        report = ProfileReport(
            backend="serial", workers=1, tasks=0, events=0,
            measured_wall_s=0.0, measured_makespan_s=0.0,
            critical_path=[], critical_path_s=0.0,
        )
        assert report.makespan_delta == 0.0
