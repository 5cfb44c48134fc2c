"""Tests for Chrome trace export."""

import json

import pytest

from repro.bench import (
    build_scop,
    pipeline_task_graph,
    trace_events,
    trace_json,
    write_trace,
)
from repro.tasking import simulate
from repro.workloads import CostModel
from tests.conftest import LISTING1


@pytest.fixture(scope="module")
def sim_setup():
    scop = build_scop(LISTING1, {"N": 8})
    graph = pipeline_task_graph(scop, CostModel.uniform(1.0))
    return graph, simulate(graph, workers=4)


class TestTraceEvents:
    def test_one_event_per_task(self, sim_setup):
        graph, sim = sim_setup
        events = trace_events(graph, sim)
        assert len(events) == len(graph)
        assert all(e["ph"] == "X" for e in events)

    def test_durations_match_sim(self, sim_setup):
        graph, sim = sim_setup
        for e, task in zip(trace_events(graph, sim), graph.tasks):
            assert e["ts"] == float(sim.start[task.task_id])
            assert e["dur"] == pytest.approx(
                float(sim.finish[task.task_id] - sim.start[task.task_id])
            )
            assert e["tid"] == int(sim.worker[task.task_id])

    def test_predecessors_recorded(self, sim_setup):
        graph, sim = sim_setup
        events = trace_events(graph, sim)
        with_preds = [e for e in events if e["args"]["predecessors"]]
        assert with_preds


class TestTraceDocument:
    def test_valid_json_with_metadata(self, sim_setup):
        graph, sim = sim_setup
        doc = json.loads(trace_json(graph, sim))
        assert doc["otherData"]["tasks"] == len(graph)
        assert doc["otherData"]["workers"] == 4
        names = [
            e for e in doc["traceEvents"] if e.get("name") == "thread_name"
        ]
        assert len(names) == 4

    def test_write_trace(self, sim_setup, tmp_path):
        graph, sim = sim_setup
        path = tmp_path / "trace.json"
        write_trace(str(path), graph, sim)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc

    def test_no_execution_section_by_default(self, sim_setup):
        graph, sim = sim_setup
        doc = json.loads(trace_json(graph, sim))
        assert "execution" not in doc["otherData"]
        assert "presburger_cache" in doc["otherData"]

    def test_execution_dict_embedded(self, sim_setup):
        graph, sim = sim_setup
        record = {"backend": "threads", "workers": 4, "wall_time_s": 0.01}
        doc = json.loads(trace_json(graph, sim, execution=record))
        assert doc["otherData"]["execution"] == record

    def test_execution_stats_embedded(self, sim_setup, tmp_path):
        from repro.interp import Interpreter, execute_measured
        from repro.pipeline import detect_pipeline

        graph, sim = sim_setup
        interp = Interpreter.from_source(LISTING1, {"N": 8})
        info = detect_pipeline(interp.scop, coarsen=4)
        _, stats = execute_measured(interp, info, backend="serial")
        path = tmp_path / "trace.json"
        write_trace(str(path), graph, sim, execution=stats)
        section = json.loads(path.read_text())["otherData"]["execution"]
        assert section["backend"] == "serial"
        assert section["fused_iteration_coverage"] == 1.0

    def test_no_overhead_section_by_default(self, sim_setup):
        graph, sim = sim_setup
        doc = json.loads(trace_json(graph, sim))
        assert "overhead" not in doc["otherData"]
