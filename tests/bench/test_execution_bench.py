"""Tests for ``repro.bench.execution``: the evaluation's measured runs."""

from repro.bench import measured_speedup
from repro.bench.figure10 import run_cell
from repro.bench.figure11 import run_kernel
from repro.workloads import TABLE9, figure11_kernels
from tests.conftest import LATENCY_S, blocking_compute


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
