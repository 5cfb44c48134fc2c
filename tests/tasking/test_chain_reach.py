"""Chain-frontier reachability against the dense transitive closure.

``TaskGraph.chain_reach`` is what ``check_legality`` and
``verify_privatized_graph`` order dependences by; here it must agree
with ``tests.conftest.dense_reach`` pair for pair on every Table 9
kernel (plain and hybrid, several sizes and coarsenings), on graphs
with random edges dropped, and on privatized graphs with join tasks.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import (
    build_privatized_graph,
    generate_task_ast,
    plan_privatization,
    privatize_info,
    relax,
)
from repro.scop import DepKind
from repro.tasking import TaskGraph
from repro.workloads import TABLE9

from tests.conftest import dense_reach

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "kernels"


def assert_frontier_is_closure(graph: TaskGraph) -> int:
    """``chain_reach`` equals the reflexive dense closure; returns the
    number of chains."""
    chain, pos, reach = graph.chain_reach()
    # frontier[t, s]: s precedes t, or is t
    frontier = reach[:, chain] >= pos[None, :]
    closure = dense_reach(graph) | np.eye(len(graph), dtype=bool)
    assert np.array_equal(frontier, closure.T)
    for c in range(reach.shape[1]):  # each chain is a path, in order
        members = np.flatnonzero(chain == c)
        assert sorted(pos[members].tolist()) == list(range(len(members)))
    return reach.shape[1]


def hybrid(scop, info) -> TaskGraph:
    return TaskGraph.from_task_ast(
        relax(scop, info, generate_task_ast(info), hybrid=True)
    )


def without_edges(graph: TaskGraph, keep) -> TaskGraph:
    out = TaskGraph()
    for task in graph.tasks:
        out.add_task(task.statement, task.block_id, task.cost, task.block)
    for succ, preds in enumerate(graph.preds):
        for pred in preds:
            if keep(pred, succ):
                out.add_edge(pred, succ)
    return out


@pytest.mark.parametrize("name", sorted(TABLE9))
def test_frontier_equals_closure_on_table9(name):
    for n in (6, 10, 14):
        scop = Interpreter.from_source(TABLE9[name].source(n), {}).scop
        for coarsen in (1, 3):
            info = detect_pipeline(scop, coarsen=coarsen)
            plain = TaskGraph.from_task_ast(generate_task_ast(info))
            # a chained pipeline needs no chain beyond its statements'
            assert assert_frontier_is_closure(plain) <= len(scop.statements)
            assert_frontier_is_closure(hybrid(scop, info))


@pytest.mark.parametrize("name", ["P1", "P5", "P7", "P10"])
def test_frontier_equals_closure_with_random_edges_dropped(name):
    rng = random.Random(20221018)
    scop = Interpreter.from_source(TABLE9[name].source(10), {}).scop
    info = detect_pipeline(scop)
    for graph in (
        TaskGraph.from_task_ast(generate_task_ast(info)),
        hybrid(scop, info),
    ):
        for share in (0.1, 0.3, 0.6):
            assert_frontier_is_closure(
                without_edges(graph, lambda p, s: rng.random() >= share)
            )


@pytest.mark.parametrize("kernel", ["histogram.c", "sumstencil.c"])
def test_frontier_equals_closure_on_privatized_graphs(kernel):
    source = (EXAMPLES / kernel).read_text()
    scop = Interpreter.from_source(source, {"N": 8}).scop
    plan = plan_privatization(scop)
    assert plan.groups
    info = detect_pipeline(scop, kinds=tuple(DepKind), validate=False)
    for parts in (2, 4):
        pinfo = privatize_info(info, plan, parts=parts)
        graph, joins = build_privatized_graph(generate_task_ast(pinfo), plan)
        assert joins
        assert_frontier_is_closure(graph)


def test_empty_graph():
    chain, pos, reach = TaskGraph().chain_reach()
    assert len(chain) == len(pos) == 0 and reach.shape == (0, 0)
    assert chain.dtype == pos.dtype == np.int64  # usable as indices


def test_reach_dtype_is_sized_by_the_longest_chain():
    """An antichain-heavy graph pays one byte per task and chain: 200
    independent 3-task chains fit ``int8`` positions."""
    graph = TaskGraph()
    for c in range(200):
        tids = [graph.add_task(f"S{c}", k) for k in range(3)]
        graph.add_edge(tids[0], tids[1])
        graph.add_edge(tids[1], tids[2])
    chain, pos, reach = graph.chain_reach()
    assert reach.dtype == np.int8 and reach.shape == (600, 200)
    assert assert_frontier_is_closure(graph) == 200
    long = TaskGraph()
    for k in range(300):
        long.add_task("S", k)
        if k:
            long.add_edge(k - 1, k)
    assert long.chain_reach()[2].dtype == np.int16


def test_chain_reach_is_computed_once_per_graph(monkeypatch):
    """``check_legality`` and ``verify_privatized_graph`` share one
    cover: the second read is the first one's arrays, read-only."""
    from tests.conftest import Counter

    scop = Interpreter.from_source(TABLE9["P5"].source(8), {}).scop
    graph = TaskGraph.from_task_ast(generate_task_ast(detect_pipeline(scop)))
    covers = Counter(monkeypatch, TaskGraph, "_chain_cover")
    first = graph.chain_reach()
    assert graph.chain_reach() is first and covers.calls == 1
    for array in first:
        with pytest.raises(ValueError):
            array[:1] = 0


def test_add_task_and_add_edge_forget_the_chain_reach():
    graph = TaskGraph()
    a, b = graph.add_task("S", 0), graph.add_task("S", 1)
    assert graph.chain_reach()[2].shape == (2, 2)  # no edge: two chains
    graph.add_edge(a, b)
    chain, pos, reach = graph.chain_reach()
    assert reach.shape == (2, 1) and pos.tolist() == [0, 1]
    c = graph.add_task("T", 0)
    assert graph.chain_reach()[2].shape == (3, 2)
    graph.add_edge(b, c)
    assert graph.chain_reach()[0].tolist() == [0, 0, 0]
    assert_frontier_is_closure(graph)


def test_whole_chains_are_filled_at_once_and_the_rest_walks(monkeypatch):
    """A chained nest takes no per-task step; an unchained one (hybrid,
    a graph with its self edges dropped) walks, and both equal the
    closure."""
    from tests.conftest import Counter

    walks = Counter(monkeypatch, TaskGraph, "_walk")
    scop = Interpreter.from_source(TABLE9["P5"].source(8), {}).scop
    info = detect_pipeline(scop)
    plain = TaskGraph.from_task_ast(generate_task_ast(info))
    assert_frontier_is_closure(plain)
    assert walks.calls == 0
    broken = without_edges(
        plain, lambda p, s: plain.statement_ids[p] != plain.statement_ids[s]
    )
    assert_frontier_is_closure(broken)
    assert walks.calls == len(scop.statements)
