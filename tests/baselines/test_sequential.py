"""Tests for the sequential baseline."""

import numpy as np

from repro.baselines import nest_costs, polly_task_graph, sequential_time
from repro.tasking import simulate
from repro.workloads import CostModel

#: one abstract time unit per iteration
uniform_cost = CostModel.uniform().iter_costs


class TestCosts:
    def test_uniform_cost(self):
        iters = np.zeros((5, 2), dtype=np.int64)
        assert uniform_cost("S", iters).sum() == 5

    def test_nest_costs_listing1(self, listing1_scop_small):
        costs = nest_costs(listing1_scop_small, uniform_cost)
        assert costs[0] == 81  # 9x9
        assert costs[1] == 16  # 4x4

    def test_sequential_time_is_sum(self, listing1_scop_small):
        assert sequential_time(listing1_scop_small, uniform_cost) == 97

    def test_custom_cost_model(self, listing1_scop_small):
        def double(statement, iters):
            return np.full(iters.shape[0], 2.0)

        assert sequential_time(listing1_scop_small, double) == 194


class TestGraph:
    """One thread of the Polly baseline is the serial program: one task
    per nest, chained."""

    def test_chain_structure(self, listing3_scop):
        g = polly_task_graph(listing3_scop, 1, uniform_cost)
        assert len(g) == 3
        assert g.preds[1] == {0} and g.preds[2] == {1}

    def test_simulated_makespan_equals_total(self, listing3_scop):
        g = polly_task_graph(listing3_scop, 1, uniform_cost)
        sim = simulate(g, workers=8)
        assert sim.makespan == sequential_time(listing3_scop, uniform_cost)
