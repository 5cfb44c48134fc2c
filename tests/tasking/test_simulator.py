"""Tests for the discrete-event list-scheduling simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tasking import TaskGraph, simulate


def chain(costs) -> TaskGraph:
    g = TaskGraph()
    prev = None
    for k, c in enumerate(costs):
        t = g.add_task("S", k, cost=c)
        if prev is not None:
            g.add_edge(prev, t)
        prev = t
    return g


def independent(costs) -> TaskGraph:
    g = TaskGraph()
    for k, c in enumerate(costs):
        g.add_task("S", k, cost=c)
    return g


class TestKnownMakespans:
    def test_chain_is_sequential(self):
        sim = simulate(chain([1, 2, 3]), workers=4)
        assert sim.makespan == 6

    def test_independent_tasks_parallelize(self):
        sim = simulate(independent([1, 1, 1, 1]), workers=4)
        assert sim.makespan == 1

    def test_more_tasks_than_workers(self):
        sim = simulate(independent([1] * 6), workers=2)
        assert sim.makespan == 3

    def test_one_worker_is_total(self):
        g = independent([2, 3, 4])
        sim = simulate(g, workers=1)
        assert sim.makespan == 9

    def test_diamond(self):
        g = TaskGraph()
        a, b, c, d = (g.add_task("x", k, cost=w)
                      for k, w in enumerate([1, 2, 3, 1]))
        g.add_edge(a, b)
        g.add_edge(a, c)
        g.add_edge(b, d)
        g.add_edge(c, d)
        sim = simulate(g, workers=2)
        assert sim.makespan == 5  # 1 + max(2,3) + 1

    def test_overhead_added_per_task(self):
        sim = simulate(independent([1, 1]), workers=1, overhead=0.5)
        assert sim.makespan == 3.0

    def test_empty_graph(self):
        sim = simulate(TaskGraph(), workers=2)
        assert sim.makespan == 0.0


class TestInvariants:
    def make_random_graph(self, sizes, edges):
        g = TaskGraph()
        for k, c in enumerate(sizes):
            g.add_task("S", k, cost=c)
        for a, b in edges:
            lo, hi = sorted((a % len(sizes), b % len(sizes)))
            if lo != hi:
                g.add_edge(lo, hi)
        return g

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(0.1, 10), min_size=1, max_size=12),
        st.lists(
            st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20
        ),
        st.integers(1, 6),
        st.sampled_from(["fifo", "lifo", "cp"]),
    )
    def test_list_schedule_bounds(self, sizes, edges, workers, policy):
        g = self.make_random_graph(sizes, edges)
        sim = simulate(g, workers=workers, policy=policy)
        cp, _ = g.critical_path()
        total = g.total_cost()
        assert sim.makespan >= cp - 1e-9
        assert sim.makespan >= total / workers - 1e-9
        assert sim.makespan <= total + 1e-9
        # Graham's bound for greedy list scheduling
        assert sim.makespan <= cp + total / workers + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.5, 5), min_size=2, max_size=10),
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=12
        ),
    )
    def test_precedence_respected(self, sizes, edges):
        g = self.make_random_graph(sizes, edges)
        sim = simulate(g, workers=3)
        for succ, preds in enumerate(g.preds):
            for pred in preds:
                assert sim.finish[pred] <= sim.start[succ] + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(0.5, 5), min_size=2, max_size=10),
        st.integers(1, 4),
    )
    def test_no_worker_overlap(self, sizes, workers):
        g = independent(sizes)
        sim = simulate(g, workers=workers)
        by_worker: dict[int, list[tuple[float, float]]] = {}
        for tid in range(len(g)):
            by_worker.setdefault(int(sim.worker[tid]), []).append(
                (float(sim.start[tid]), float(sim.finish[tid]))
            )
        for spans in by_worker.values():
            spans.sort()
            for (s1, f1), (s2, _) in zip(spans, spans[1:]):
                assert f1 <= s2 + 1e-9


class TestResults:
    def test_speedup_and_utilization(self):
        g = independent([1, 1, 1, 1])
        sim = simulate(g, workers=2)
        assert sim.speedup_vs(4.0) == pytest.approx(2.0)
        assert sim.utilization() == pytest.approx(1.0)

    def test_determinism(self):
        g = independent([3, 1, 2, 5, 4])
        a = simulate(g, workers=2)
        b = simulate(g, workers=2)
        assert a.makespan == b.makespan
        assert a.start.tolist() == b.start.tolist()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            simulate(TaskGraph(), workers=0)
        with pytest.raises(ValueError):
            simulate(TaskGraph(), workers=1, policy="random")


class TestPolicies:
    def test_fifo_prefers_creation_order(self):
        g = independent([1, 1, 1])
        sim = simulate(g, workers=1, policy="fifo")
        order = sorted(range(3), key=lambda t: sim.start[t])
        assert order == [0, 1, 2]

    def test_lifo_prefers_recent(self):
        g = independent([1, 1, 1])
        sim = simulate(g, workers=1, policy="lifo")
        order = sorted(range(3), key=lambda t: sim.start[t])
        assert order == [2, 1, 0]

    def test_cp_prefers_long_chains(self):
        # Two chains: a long heavy one and a short one.  With one worker,
        # CP scheduling runs the chain heads in rank order.
        g = TaskGraph()
        a = g.add_task("long", 0, cost=1)
        b = g.add_task("long", 1, cost=10)
        g.add_edge(a, b)
        c = g.add_task("short", 0, cost=1)
        sim = simulate(g, workers=1, policy="cp")
        assert sim.start[a] < sim.start[c]

    def test_cp_can_beat_fifo(self):
        # FIFO picks the short independent task first, delaying the
        # critical chain; CP starts the chain immediately.
        g = TaskGraph()
        short = g.add_task("s", 0, cost=5)
        head = g.add_task("c", 0, cost=5)
        tail = g.add_task("c", 1, cost=5)
        g.add_edge(head, tail)
        # creation order puts `short` first, so FIFO starts it first
        fifo = simulate(g, workers=1, policy="fifo")
        cp = simulate(g, workers=1, policy="cp")
        assert cp.makespan <= fifo.makespan
        assert cp.start[head] == 0.0

    def test_cp_respects_bounds(self):
        g = independent([1, 2, 3, 4])
        sim = simulate(g, workers=2, policy="cp")
        assert sim.makespan >= g.total_cost() / 2


class TestScalingCurve:
    def test_monotone_and_plateaus(self):
        from repro.tasking import scaling_curve

        g = independent([1.0] * 8)
        curve = scaling_curve(g, workers=(1, 2, 4, 8, 16))
        values = [curve[w] for w in (1, 2, 4, 8, 16)]
        assert values == sorted(values)
        assert curve[1] == 1.0
        assert curve[8] == curve[16] == 8.0

    def test_chain_never_scales(self):
        from repro.tasking import scaling_curve

        g = chain([1.0] * 5)
        curve = scaling_curve(g, workers=(1, 4))
        assert curve[4] == 1.0

    def test_empty_graph_is_unit_speedup(self):
        from repro.tasking import scaling_curve

        assert scaling_curve(TaskGraph(), workers=(1, 4)) == {1: 1.0, 4: 1.0}
