"""Tests for ``repro.bench.execution``: the evaluation's measured runs."""

import json

import pytest

from repro.bench import measured_speedup, run_workload
from repro.bench.execution import LATENCY_S, blocking_compute
from repro.bench.figure10 import run_cell
from repro.bench.figure11 import run_kernel
from repro.workloads import TABLE9, figure11_kernels


@pytest.fixture(scope="module")
def small_workload():
    return run_workload(
        "P1", TABLE9["P1"].source(10), {}, workers=2, coarsen=20, repeats=1
    )


class TestRunWorkload:
    def test_all_configs_present(self, small_workload):
        assert set(small_workload["runs"]) == {
            "scalar-serial",
            "fused-serial",
            "fused-threads",
            "fused-processes",
        }

    def test_dispatch_mode_recorded_per_row(self, small_workload):
        modes = {
            name: run["dispatch_mode"]
            for name, run in small_workload["runs"].items()
        }
        assert modes["scalar-serial"] == "interp"
        # P1 fuses fully, so every fused row dispatches fused closures
        assert modes["fused-serial"] == "fused"
        assert modes["fused-processes"] == "fused"

    def test_every_config_bit_identical(self, small_workload):
        assert small_workload["identical"] is True
        for run in small_workload["runs"].values():
            assert run["identical_to_sequential"] is True

    def test_speedups_computed(self, small_workload):
        for key in (
            "speedup_fused",
            "speedup_threads",
            "speedup_processes",
            "processes_vs_fused_serial",
        ):
            assert small_workload[key] > 0.0

    def test_records_are_json_ready(self, small_workload):
        json.dumps(small_workload)

    def test_fused_serial_covers_p1(self, small_workload):
        assert small_workload["runs"]["fused-serial"][
            "fused_iteration_coverage"
        ] == 1.0
        assert small_workload["runs"]["scalar-serial"][
            "fused_iteration_coverage"
        ] == 0.0


class TestMeasuredSpeedup:
    def test_positive_and_finite(self):
        sp = measured_speedup(
            TABLE9["P1"].source(10), {}, workers=2, repeats=1
        )
        assert 0.0 < sp < 1e6

    def test_base_is_the_serial_replay_of_the_same_plan(self, monkeypatch):
        """Threads over best-serial of ONE interpreter and ONE lowered
        plan: the ratio must not credit block-kernel fusion to
        pipelining."""
        from repro.bench import execution

        calls = []

        def spy(interp, info, backend, workers):
            calls.append((id(interp), id(info), interp.fuse, backend))
            return real(interp, info, backend=backend, workers=workers)

        real = execution.execute_measured
        monkeypatch.setattr(execution, "execute_measured", spy)
        measured_speedup(TABLE9["P1"].source(10), {}, workers=2, repeats=2)
        assert [c[3] for c in calls] == ["serial"] * 2 + ["threads"] * 2
        assert len({c[:3] for c in calls}) == 1
        assert calls[0][2] == "auto"

    def test_figure10_measured_cell(self):
        cell = run_cell(TABLE9["P1"], 8, 4, workers=2, measured=True)
        assert cell.size == 0  # wall-clock mode has no SIZE axis
        assert cell.speedup > 0.0

    def test_figure11_measured_row(self):
        kern = figure11_kernels()[0]
        row = run_kernel(kern, size=6, workers=2, measured=True)
        assert row.pipeline > 0.0
        # Polly columns stay simulated speed-ups (>= 1)
        assert row.polly_8 >= 1.0


class TestBlockingCompute:
    def test_not_elementwise(self):
        from repro.interp import is_elementwise

        assert not is_elementwise(blocking_compute)

    def test_blocks_at_least_latency(self):
        import time

        t0 = time.perf_counter()
        blocking_compute(1.0, 2.0)
        assert time.perf_counter() - t0 >= LATENCY_S
