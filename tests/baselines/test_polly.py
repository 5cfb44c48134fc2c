"""Tests for the Polly/Pluto-like baseline."""

import pytest

from repro.baselines import polly_decisions, polly_task_graph, sequential_time
from repro.bench import build_scop
from repro.tasking import simulate
from repro.workloads import CostModel, MatmulKernel

#: one abstract time unit per iteration
uniform_cost = CostModel.uniform().iter_costs


@pytest.fixture
def mm_scop():
    return build_scop(MatmulKernel(2, "mm").source(8))


@pytest.fixture
def gmm_scop():
    return build_scop(MatmulKernel(2, "gmm").source(8))


class TestDecisions:
    def test_matmul_nests_parallel(self, mm_scop):
        decisions = polly_decisions(mm_scop, uniform_cost)
        assert all(d.parallelized for d in decisions)
        assert all(d.parallel_level == 0 for d in decisions)

    def test_generalized_nests_sequential(self, gmm_scop):
        decisions = polly_decisions(gmm_scop, uniform_cost)
        assert not any(d.parallelized for d in decisions)

    def test_listing1_sequential(self, listing1_scop_small):
        decisions = polly_decisions(listing1_scop_small, uniform_cost)
        assert not any(d.parallelized for d in decisions)

    def test_costs_recorded(self, mm_scop):
        decisions = polly_decisions(mm_scop, uniform_cost)
        assert all(d.total_cost == 64 for d in decisions)


class TestGraph:
    def test_parallel_nest_chunked(self, mm_scop):
        g = polly_task_graph(mm_scop, 4, uniform_cost)
        assert len(g) == 8  # 2 nests x 4 chunks

    def test_barrier_between_nests(self, mm_scop):
        g = polly_task_graph(mm_scop, 2, uniform_cost)
        # chunks of nest 1 depend on all chunks of nest 0
        assert g.preds[2] == {0, 1}
        assert g.preds[3] == {0, 1}

    def test_sequential_nest_single_task(self, gmm_scop):
        g = polly_task_graph(gmm_scop, 4, uniform_cost)
        assert len(g) == 2

    def test_one_thread_no_chunks(self, mm_scop):
        g = polly_task_graph(mm_scop, 1, uniform_cost)
        assert len(g) == 2

    def test_bad_thread_count(self, mm_scop):
        with pytest.raises(ValueError):
            polly_task_graph(mm_scop, 0, uniform_cost)


def polly_speedup(scop, threads, overhead=0.0):
    """Simulated speed-up of the baseline over sequential execution."""
    graph = polly_task_graph(scop, threads, uniform_cost)
    sim = simulate(graph, workers=threads, overhead=overhead)
    return sequential_time(scop, uniform_cost) / sim.makespan


class TestSpeedups:
    def test_parallel_kernel_scales_with_threads(self, mm_scop):
        s2 = polly_speedup(mm_scop, threads=2)
        s4 = polly_speedup(mm_scop, threads=4)
        assert s2 == pytest.approx(2.0)
        assert s4 == pytest.approx(4.0)

    def test_sequential_kernel_gains_nothing(self, gmm_scop):
        assert polly_speedup(gmm_scop, threads=8) == pytest.approx(1.0)

    def test_overhead_reduces_speedup(self, mm_scop):
        with_oh = polly_speedup(mm_scop, threads=4, overhead=1.0)
        without = polly_speedup(mm_scop, threads=4, overhead=0.0)
        assert with_oh < without

    def test_makespan_consistent_with_simulate(self, mm_scop):
        g = polly_task_graph(mm_scop, 4, uniform_cost)
        sim = simulate(g, workers=4)
        assert sim.makespan == pytest.approx(g.total_cost() / 4)
