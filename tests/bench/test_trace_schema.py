"""Chrome trace-event schema validation for every document producer.

The documents must stay loadable by Perfetto/chrome://tracing: every
event carries ``name``/``ph``/``pid``/``tid``, ``ph`` is a known type,
timestamps and durations are non-negative numbers, and complete events
have a duration.  Checked for the simulator-only document and for merged
documents carrying compile spans plus futures/process runtime lanes, on
a small pipeline and on Table 9 kernels P1 and P5.
"""

import json

import pytest

from repro.bench import (
    build_scop,
    pipeline_task_graph,
    trace_json,
    validate_trace_document,
)
from repro.obs.spans import recording
from repro.tasking import simulate
from repro.workloads import TABLE9, CostModel
from tests.conftest import LISTING1

REQUIRED_KEYS = ("name", "ph", "pid", "tid")
#: coverage keys of the ``otherData.execution`` section
EXECUTION_KEYS = {
    "fuse", "blocks_total", "blocks_fused", "iterations_total",
    "iterations_fused", "fused_block_coverage", "fused_iteration_coverage",
    "dispatch_modes", "fused_fallback",
}


def assert_valid(doc):
    problems = validate_trace_document(doc)
    assert problems == [], problems
    # belt and braces: re-check the contract independently of the helper
    for e in doc["traceEvents"]:
        for key in REQUIRED_KEYS:
            assert key in e, e
        assert e["ph"] in {"X", "M", "C", "B", "E", "i"}, e
        if "ts" in e:
            assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0, e
        if e["ph"] == "X":
            assert e["dur"] >= 0, e


class TestSimulatorDocument:
    @pytest.mark.parametrize("kernel", ["P1", "P5"])
    def test_table9_sim_only(self, kernel):
        kern = TABLE9[kernel]
        graph = pipeline_task_graph(
            build_scop(kern.source(8)), kern.cost_model(1)
        )
        sim = simulate(graph, workers=4)
        doc = json.loads(trace_json(graph, sim))
        assert_valid(doc)
        x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(x) == len(graph)
        assert {e["pid"] for e in x} == {0}

    def test_process_metadata_present(self):
        graph = pipeline_task_graph(
            build_scop(LISTING1, {"N": 8}), CostModel.uniform(1.0)
        )
        sim = simulate(graph, workers=2)
        doc = json.loads(trace_json(graph, sim))
        assert_valid(doc)
        names = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name"
        }
        assert names[0] == "simulated schedule"
        sort_keys = {
            e["pid"]: e["args"]["sort_index"]
            for e in doc["traceEvents"]
            if e["name"] == "process_sort_index"
        }
        assert sort_keys[0] == 1


class TestMergedDocuments:
    def _measured(self, source, params, backend, coarsen=1):
        from repro.interp import Interpreter, execute_measured
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast
        from repro.tasking import TaskGraph

        with recording() as rec:
            interp = Interpreter.from_source(source, params)
            info = detect_pipeline(interp.scop, coarsen=coarsen)
            graph = TaskGraph.from_task_ast(generate_task_ast(info))
            sim = simulate(graph, workers=2)
            _, stats = execute_measured(
                interp, info, backend=backend, workers=2,
                collect_events=True,
            )
        return json.loads(
            trace_json(graph, sim, execution=stats, spans=rec.spans)
        )

    @pytest.mark.parametrize("kernel", ["P1", "P5"])
    def test_futures_merged(self, kernel):
        kern = TABLE9[kernel]
        doc = self._measured(kern.source(6), {}, "threads")
        assert_valid(doc)
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1, 2}
        assert "runtime" in doc["otherData"]
        assert "phases" in doc["otherData"]
        execution = doc["otherData"]["execution"]
        assert EXECUTION_KEYS <= set(execution)
        assert not any("vectoriz" in key for key in execution)

    def test_process_merged(self):
        doc = self._measured(LISTING1, {"N": 12}, "processes", coarsen=3)
        assert_valid(doc)
        measured = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 2
        ]
        assert measured
        # calibrated process events carry their OS pid
        assert all("os_pid" in e["args"] for e in measured)
        clocks = doc["otherData"]["runtime"]["clocks"]
        assert clocks and all(
            row["samples"] > 0 for row in clocks.values()
        )

    def test_compile_lane_nests_spans(self):
        doc = self._measured(LISTING1, {"N": 8}, "serial")
        compile_events = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == 1
        ]
        names = {e["name"] for e in compile_events}
        assert "pipeline.detect" in names
        assert "exec.lower" in names  # first run of the plan: a miss
        assert "exec.measured" in names
        # child spans sit inside their parent's [ts, ts+dur] window
        detect = next(
            e for e in compile_events if e["name"] == "pipeline.detect"
        )
        maps = next(
            e for e in compile_events if e["name"] == "pipeline.maps"
        )
        assert detect["ts"] <= maps["ts"]
        assert maps["ts"] + maps["dur"] <= (
            detect["ts"] + detect["dur"] + 1e-3
        )


class TestValidator:
    def test_flags_missing_keys(self):
        doc = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}
        problems = validate_trace_document(doc)
        assert any("missing 'name'" in p for p in problems)
        assert any("missing 'ts'" in p for p in problems)

    def test_flags_negative_and_unknown(self):
        doc = {
            "traceEvents": [
                {"name": "a", "ph": "Q", "pid": 0, "tid": 0},
                {"name": "b", "ph": "X", "pid": 0, "tid": 0,
                 "ts": -1, "dur": -2},
            ]
        }
        problems = validate_trace_document(doc)
        assert any("unknown ph" in p for p in problems)
        assert any("negative ts" in p for p in problems)
        assert any("bad dur" in p for p in problems)

    def test_rejects_non_document(self):
        assert validate_trace_document([]) != []
        assert validate_trace_document({"foo": 1}) != []
