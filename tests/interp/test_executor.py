"""Measured execution: backend selection and the statistics a replay
reports.  Bit-identity of every backend to the sequential oracle is the
replay battery's (``tests/interp/test_plan.py::TestReplayBitIdentity``).
"""

import pytest

from repro.interp import (
    BACKENDS,
    ExecutionStats,
    Interpreter,
    execute_measured,
)
from repro.pipeline import detect_pipeline
from repro.workloads import TABLE9
from tests.conftest import run_measured


class TestExecutionStats:
    def test_unknown_backend_rejected(self):
        interp = Interpreter.from_source(TABLE9["P1"].source(8), {})
        info = detect_pipeline(interp.scop)
        with pytest.raises(ValueError, match="unknown execution backend"):
            execute_measured(interp, info, backend="gpu")
        assert "serial" in BACKENDS

    def test_serial_reports_one_worker(self):
        _, stats = run_measured(TABLE9["P1"].source(8), "serial", "off")
        assert stats.workers == 1
        assert stats.wall_time > 0.0

    def test_coverage_full_on_vectorizable_kernel(self):
        src = (
            "for(i=0; i<8; i++) for(j=0; j<8; j++) S: A[i][j] = f(A[i][j]);"
        )
        _, stats = run_measured(src, "serial", "auto")
        assert stats.blocks_total > 0
        assert stats.fused_iteration_coverage == 1.0
        assert stats.fused_block_coverage == 1.0
        assert stats.fused_fallback == {}

    def test_coverage_zero_when_vectorization_off(self):
        # the deprecated spelling alone selects compiled loops
        interp = Interpreter.from_source(
            TABLE9["P1"].source(8), {}, vectorize="off"
        )
        _, stats = execute_measured(interp, detect_pipeline(interp.scop))
        assert stats.fuse == "off"
        assert stats.blocks_fused == 0
        assert stats.fused_iteration_coverage == 0.0

    def test_fallback_reasons_recorded(self):
        src = (
            "for(i=0; i<8; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=1; i<8; i++) R: C[i][0] = g(C[i-1][0], A[i][0]);"
        )
        _, stats = run_measured(src, "serial", "auto")
        assert 0.0 < stats.fused_iteration_coverage < 1.0
        assert "recurrence" in stats.fused_fallback["R"]["reason"]
        # one coverage figure, counted once
        assert stats.summary().count("%") == 1

    def test_as_dict_is_json_ready(self):
        import json

        _, stats = run_measured(TABLE9["P2"].source(8), "serial", "auto")
        record = stats.as_dict()
        json.dumps(record)
        for key in (
            "backend",
            "workers",
            "fuse",
            "wall_time_s",
            "blocks_total",
            "fused_iteration_coverage",
            "fused_fallback",
        ):
            assert key in record

    def test_summary_readable(self):
        _, stats = run_measured(TABLE9["P1"].source(8), "threads", "auto")
        text = stats.summary()
        assert "threads" in text and "ms" in text

    def test_process_scheduler_stats_attached(self):
        _, stats = run_measured(TABLE9["P3"].source(8), "processes", "off")
        assert stats.scheduler is not None
        assert stats.scheduler["tasks"] == stats.blocks_total
        assert stats.scheduler["workers"] == 2

    def test_stats_is_frozen(self):
        _, stats = run_measured(TABLE9["P1"].source(8), "serial", "off")
        with pytest.raises(AttributeError):
            stats.backend = "threads"
        assert isinstance(stats, ExecutionStats)
