"""Tests for task graphs."""

from dataclasses import replace

import numpy as np
import pytest

from repro.pipeline import detect_pipeline
from repro.schedule import TaskAst, generate_task_ast
from repro.tasking import CyclicTaskGraphError, TaskGraph


def diamond() -> TaskGraph:
    g = TaskGraph()
    a = g.add_task("A", 0, cost=1)
    b = g.add_task("B", 0, cost=2)
    c = g.add_task("C", 0, cost=3)
    d = g.add_task("D", 0, cost=1)
    g.add_edge(a, b)
    g.add_edge(a, c)
    g.add_edge(b, d)
    g.add_edge(c, d)
    return g


class TestBasics:
    def test_add(self):
        g = diamond()
        assert len(g) == 4
        assert g.num_edges == 4
        assert g.total_cost() == 7

    def test_self_edge_rejected(self):
        g = TaskGraph()
        t = g.add_task("A", 0)
        with pytest.raises(CyclicTaskGraphError):
            g.add_edge(t, t)

    def test_duplicate_edges_collapse(self):
        g = TaskGraph()
        a, b = g.add_task("A", 0), g.add_task("B", 0)
        g.add_edge(a, b)
        g.add_edge(a, b)
        assert g.num_edges == 1


class TestTopology:
    def test_topological_order(self):
        g = diamond()
        order = g.topological_order()
        pos = {t: k for k, t in enumerate(order)}
        assert pos[0] < pos[1] < pos[3]
        assert pos[0] < pos[2] < pos[3]

    def test_cycle_detected(self):
        g = TaskGraph()
        a, b = g.add_task("A", 0), g.add_task("B", 0)
        g.add_edge(a, b)
        g.add_edge(b, a)
        with pytest.raises(CyclicTaskGraphError):
            g.validate()

    def test_critical_path(self):
        g = diamond()
        length, path = g.critical_path()
        assert length == 5  # A(1) -> C(3) -> D(1)
        assert path == [0, 2, 3]

    def test_reachability(self):
        g = diamond()
        chain, pos, reach = g.chain_reach()

        def precedes(a, b):
            return reach[b, chain[a]] >= pos[a]

        assert precedes(0, 3) and precedes(1, 3) and precedes(2, 3)
        assert not precedes(1, 2) and not precedes(2, 1)
        assert not precedes(3, 0)
        assert all(precedes(t, t) for t in range(4))  # inclusive
        # B and C are an antichain: two chains cover the diamond
        assert reach.shape == (4, 2)

    def test_longest_paths(self):
        g = diamond()
        down, up, parent = g.longest_paths([t.cost for t in g.tasks])
        assert down == [1, 3, 4, 5]
        assert up == [5, 3, 4, 1]
        assert parent == [-1, 0, 0, 2]

    def test_longest_paths_break_ties_by_first_predecessor(self):
        g = diamond()
        down, _, parent = g.longest_paths([1, 1, 1, 1])
        assert down == [1, 2, 2, 3]
        order = g.topological_order()
        first = min((1, 2), key=order.index)
        assert parent[3] == first

    def test_empty_graph_critical_path(self):
        assert TaskGraph().longest_paths([]) == ([], [], [])
        assert TaskGraph().critical_path() == (0.0, [])


class TestFromTaskAst:
    def test_listing1_graph(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        g = TaskGraph.from_task_ast(ast)
        assert len(g) == info.num_tasks()
        g.validate()

    def test_self_chain_edges(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        g = TaskGraph.from_task_ast(ast)
        s_tasks = [t.task_id for t in g.tasks if t.statement == "S"]
        for prev, nxt in zip(s_tasks, s_tasks[1:]):
            assert prev in g.preds[nxt]

    def test_self_chain_disabled(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        with_chain = TaskGraph.from_task_ast(ast)
        unchained = replace(ast.arrays, chained=(False, False))
        without = TaskGraph.from_task_ast(TaskAst(unchained))
        assert without.num_edges < with_chain.num_edges

    def test_default_cost_is_block_size(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        g = TaskGraph.from_task_ast(ast)
        assert g.total_cost() == sum(
            len(s.points) for s in listing1_scop.statements
        )

    def test_custom_cost(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        g = TaskGraph.from_task_ast(ast, cost_of_block=lambda b: 2.5)
        assert g.total_cost() == pytest.approx(2.5 * len(g))

    def test_cross_edges_match_tokens(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        g = TaskGraph.from_task_ast(ast)
        token_to_tid = {t.block.out_token: t.task_id for t in g.tasks}
        for nest in ast.nests:
            for block in nest.blocks:
                tid = token_to_tid[block.out_token]
                for token in block.in_tokens:
                    assert token_to_tid[token] in g.preds[tid]
