"""Tests for the schedule legality checker."""

from dataclasses import replace

import pytest

from repro.bench import build_scop
from repro.pipeline import detect_pipeline
from repro.schedule import (
    IllegalScheduleError,
    TaskAst,
    check_legality,
    generate_task_ast,
    relax,
)
from repro.scop import DepKind
from repro.tasking import TaskGraph
from repro.workloads import TABLE9, MatmulKernel
from tests.conftest import LISTING1, LISTING3, reference_check_legality


def setup(source: str, params=None, coarsen: int = 1):
    scop = build_scop(source, params)
    info = detect_pipeline(scop, coarsen=coarsen)
    ast = generate_task_ast(info)
    return scop, info, ast


class TestLegalGraphs:
    def test_listing1_pipeline_graph(self):
        scop, info, ast = setup(LISTING1, {"N": 10})
        report = check_legality(scop, info, TaskGraph.from_task_ast(ast))
        assert report.ok
        assert report.checked_pairs > 100
        report.raise_if_illegal()  # no exception

    def test_listing3_graph(self):
        scop, info, ast = setup(LISTING3, {"N": 10})
        assert check_legality(scop, info, TaskGraph.from_task_ast(ast)).ok

    @pytest.mark.parametrize("coarsen", [1, 3])
    def test_coarsened_graphs_legal(self, coarsen):
        scop, info, ast = setup(LISTING1, {"N": 12}, coarsen=coarsen)
        assert check_legality(scop, info, TaskGraph.from_task_ast(ast)).ok

    @pytest.mark.parametrize("name", ["P1", "P5", "P9"])
    def test_pkernels_legal(self, name):
        scop, info, ast = setup(TABLE9[name].source(8))
        assert check_legality(scop, info, TaskGraph.from_task_ast(ast)).ok

    def test_hybrid_graphs_legal(self):
        kern = MatmulKernel(3, "mm")
        scop, info, ast = setup(kern.source(8))
        graph = TaskGraph.from_task_ast(relax(scop, info, ast, hybrid=True))
        assert check_legality(scop, info, graph).ok


def unchained_graph(ast):
    """Every self chain dropped, no self-token in its place."""
    a = ast.arrays
    unchained = replace(a, chained=(False,) * len(a.statements))
    return TaskGraph.from_task_ast(TaskAst(unchained))


class TestIllegalGraphs:
    def test_missing_self_chain_detected(self):
        scop, info, ast = setup(LISTING1, {"N": 10})
        broken = unchained_graph(ast)
        report = check_legality(scop, info, broken)
        assert not report.ok
        v = report.violations[0]
        assert v.source == v.target == "S"
        with pytest.raises(IllegalScheduleError):
            report.raise_if_illegal()

    def test_violation_cap_respected(self):
        scop, info, ast = setup(LISTING1, {"N": 12})
        broken = unchained_graph(ast)
        report = check_legality(scop, info, broken, max_violations=5)
        assert len(report.violations) == 5

    def test_kind_filter(self):
        scop, info, ast = setup(LISTING1, {"N": 10})
        broken = unchained_graph(ast)
        # Listing 1's intra-statement deps are anti only; checking flow
        # alone must stay silent about them.
        flow_only = check_legality(scop, info, broken, kinds=(DepKind.FLOW,))
        full = check_legality(scop, info, broken)
        assert len(flow_only.violations) < len(full.violations)

    def test_str(self):
        scop, info, ast = setup(LISTING1, {"N": 8})
        report = check_legality(scop, info, TaskGraph.from_task_ast(ast))
        assert "legal" in str(report)


class TestAgainstTheReference:
    """``check_legality`` reads the dependence table as arrays; its
    reports equal the per-pair reference's, violations in order."""

    def test_a_broken_graph(self):
        scop, info, ast = setup(LISTING3, {"N": 10})
        broken = unchained_graph(ast)
        report = check_legality(scop, info, broken, max_violations=60)
        assert len(report.violations) == 60
        assert report == reference_check_legality(
            scop, info, broken, max_violations=60
        )

    @pytest.mark.parametrize("kernel", ["histogram.c", "sumstencil.c"])
    def test_relaxed_pairs_of_a_privatized_graph(self, kernel):
        from pathlib import Path

        from repro.schedule import plan_privatization, privatize_info

        path = Path(__file__).resolve().parents[2] / "examples" / "kernels"
        scop = build_scop((path / kernel).read_text(), {"N": 10})
        plan = plan_privatization(scop)
        info = privatize_info(
            detect_pipeline(scop, kinds=tuple(DepKind), validate=False),
            plan, parts=3,
        )
        ast = relax(scop, info, generate_task_ast(info), plan=plan)
        graph = TaskGraph.from_task_ast(ast)
        relaxed = check_legality(scop, info, graph, relaxed=plan.relaxed())
        assert relaxed.ok
        assert relaxed == reference_check_legality(
            scop, info, graph, relaxed=plan.relaxed()
        )
        # without the proofs' cut the unchained members race, on every
        # kind, reported in the kinds' order as given
        for kinds in (tuple(DepKind), tuple(reversed(DepKind))):
            full = check_legality(scop, info, graph, kinds, 1000)
            assert full.checked_pairs > relaxed.checked_pairs
            assert {v.kind for v in full.violations} == set(DepKind)
            assert full == reference_check_legality(
                scop, info, graph, kinds, 1000
            )
