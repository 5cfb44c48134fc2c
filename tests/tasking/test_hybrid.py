"""Tests for hybrid (pipeline + intra-nest parallel) task graphs."""

import numpy as np
import pytest

from repro.bench import build_scop
from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast, relax
from repro.schedule.relax import intra_block_edges
from repro.tasking import TaskGraph, simulate
from repro.tasking.dispatch import latest_first, transitive_reduction
from repro.workloads import TABLE9, MatmulKernel, figure11_kernels
from tests.conftest import dense_reach


def reference_hybrid_graph(scop, info, ast) -> TaskGraph:
    """The prefix-edge graph builder the AST relaxation replaced, kept
    as the reference whose reachability the relaxed AST's graph must
    have."""
    graph = TaskGraph()
    token_to_task = {}
    stmt_tasks = {}
    chain_complete = {}
    for nest in ast.nests:
        tids = []
        for block in nest.blocks:
            tid = graph.add_task(
                nest.statement, block.block_id, float(block.size), block
            )
            token_to_task[block.out_token] = tid
            tids.append(tid)
        stmt_tasks[nest.statement] = tids
        edges = intra_block_edges(scop, info, nest.statement)
        chain_complete[nest.statement] = all(
            (k, k + 1) in edges for k in range(len(tids) - 1)
        )
        if chain_complete[nest.statement]:
            for prev, nxt in zip(tids, tids[1:]):
                graph.add_edge(prev, nxt)
        else:
            for a, b in edges:
                graph.add_edge(tids[a], tids[b])
    for nest in ast.nests:
        for block in nest.blocks:
            tid = token_to_task[block.out_token]
            for src_name, end in block.in_tokens:
                src_tid = token_to_task[(src_name, end)]
                if chain_complete[src_name]:
                    graph.add_edge(src_tid, tid)
                else:
                    # prefix edges: "source ran up to end" without a
                    # complete chain means every block at or before it
                    for k in range(graph.tasks[src_tid].block_id + 1):
                        graph.add_edge(stmt_tasks[src_name][k], tid)
    graph.validate()
    return graph


def assert_relaxed_plan_correct(source: str, params=None) -> None:
    """The relaxed AST's graph orders what the reference graph orders,
    the lowered plan schedules exactly that graph's transitive
    reduction, and it replays bit-identically."""
    interp = Interpreter.from_source(source, params or {})
    info = detect_pipeline(interp.scop)
    raw = generate_task_ast(info)
    relaxed = relax(interp.scop, info, raw, hybrid=True)
    graph = TaskGraph.from_task_ast(relaxed)
    reference = reference_hybrid_graph(interp.scop, info, raw)
    assert np.array_equal(dense_reach(graph), dense_reach(reference))
    plan = interp.exec_plan(info, relaxed)
    if not plan.stats["fused_chains"]:  # a merged stream renumbers tasks
        assert plan.schedule.preds() == transitive_reduction(
            latest_first(graph.preds)
        )
    seq = interp.run_sequential(interp.new_store())
    for backend in ("serial", "threads"):
        out, _ = execute_measured(
            interp, info, backend=backend, workers=4, task_ast=relaxed
        )
        assert seq.equal(out), backend


class TestIntraBlockEdges:
    def test_parallel_statement_has_no_edges(self):
        scop = build_scop(MatmulKernel(2, "mm").source(8))
        info = detect_pipeline(scop)
        assert intra_block_edges(scop, info, "M1") == set()

    def test_sequential_statement_chains(self, listing1_scop_small):
        info = detect_pipeline(listing1_scop_small)
        edges = intra_block_edges(listing1_scop_small, info, "S")
        n = info.blockings["S"].num_blocks
        assert all((k, k + 1) in edges for k in range(n - 1))

    def test_generalized_matmul_chains(self):
        scop = build_scop(MatmulKernel(2, "gmm").source(8))
        info = detect_pipeline(scop)
        edges = intra_block_edges(scop, info, "M1")
        assert edges  # neighbour coupling serializes rows


class TestCorrectness:
    @pytest.mark.parametrize(
        "kernel",
        [MatmulKernel(2, "mm"), MatmulKernel(3, "mm"), MatmulKernel(2, "gmm")],
        ids=lambda k: k.name,
    )
    def test_threaded_execution_matches_sequential(self, kernel):
        assert_relaxed_plan_correct(kernel.source(8))

    @pytest.mark.parametrize("name", ["P1", "P5"])
    def test_pkernels_still_correct(self, name):
        assert_relaxed_plan_correct(TABLE9[name].source(8))

    @pytest.mark.parametrize(
        "source",
        [k.source(8) for k in figure11_kernels()]
        + [TABLE9[name].source(8) for name in sorted(TABLE9)],
        ids=[k.name for k in figure11_kernels()] + sorted(TABLE9),
    )
    def test_relaxed_ast_graph_orders_what_the_reference_builder_does(
        self, source
    ):
        assert_relaxed_plan_correct(source)

    def test_hybrid_with_coarsening(self):
        from repro import TransformOptions, transform

        kern = MatmulKernel(2, "mm")
        result = transform(
            kern.source(10),
            options=TransformOptions(hybrid=True, coarsen=3, workers=4),
        )
        assert result.verified
        assert result.legality is not None and result.legality.ok

    def test_acyclic(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        ast = relax(listing3_scop, info, generate_task_ast(info), hybrid=True)
        TaskGraph.from_task_ast(ast).validate()


class TestPerformance:
    def test_dominates_pure_pipeline_on_matmul(self):
        kern = MatmulKernel(3, "mm")
        scop = build_scop(kern.source(16))
        cost = kern.cost_model(16)
        info = detect_pipeline(scop)
        ast = generate_task_ast(info)
        pipe = TaskGraph.from_task_ast(ast, cost_of_block=cost.block_cost)
        hyb = TaskGraph.from_task_ast(
            relax(scop, info, ast, hybrid=True), cost_of_block=cost.block_cost
        )
        sp = pipe.total_cost() / simulate(pipe, workers=8).makespan
        sh = hyb.total_cost() / simulate(hyb, workers=8).makespan
        assert sh > sp
        assert sh > 6.0  # near full 8-thread scaling

    def test_no_change_on_fully_sequential_kernels(self):
        kern = MatmulKernel(2, "gmm")
        scop = build_scop(kern.source(12))
        cost = kern.cost_model(12)
        info = detect_pipeline(scop)
        ast = generate_task_ast(info)
        pipe = TaskGraph.from_task_ast(ast, cost_of_block=cost.block_cost)
        hyb = TaskGraph.from_task_ast(
            relax(scop, info, ast, hybrid=True), cost_of_block=cost.block_cost
        )
        assert simulate(hyb, workers=8).makespan == pytest.approx(
            simulate(pipe, workers=8).makespan
        )

    def test_never_slower_than_pure_pipeline(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        ast = generate_task_ast(info)
        pipe = TaskGraph.from_task_ast(ast)
        hyb = TaskGraph.from_task_ast(
            relax(listing3_scop, info, ast, hybrid=True)
        )
        assert (
            simulate(hyb, workers=8).makespan
            <= simulate(pipe, workers=8).makespan + 1e-9
        )
