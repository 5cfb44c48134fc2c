"""Tests for the task-graph checker: packing, token coverage, races."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.taskcheck import (
    check_packing,
    check_races,
    check_task_graph,
    check_token_coverage,
)
from repro.bench import build_scop
from repro.codegen.emit import statement_columns, statement_packers
from repro.lang import parse
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast, relax
from repro.scop import extract_scop
from repro.tasking import TaskGraph
from repro.workloads import TABLE9
from tests.conftest import ast_of_nests

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""


@pytest.fixture(scope="module")
def pipeline():
    scop = extract_scop(parse(LISTING1), {"N": 12})
    info = detect_pipeline(scop)
    ast = generate_task_ast(info)
    graph = TaskGraph.from_task_ast(ast)
    return scop, info, ast, graph


class TestPackingClean:
    def test_emitter_packers_are_collision_free(self, pipeline):
        _, _, ast, _ = pipeline
        assert check_packing(ast).ok

    @pytest.mark.parametrize(
        "name", sorted(TABLE9, key=lambda k: int(k[1:]))
    )
    def test_all_table9_workloads_pass(self, name):
        scop = build_scop(TABLE9[name].source(10))
        info = detect_pipeline(scop)
        ast = generate_task_ast(info)
        graph = TaskGraph.from_task_ast(ast)
        report = check_packing(ast)
        report = report.merged(check_token_coverage(scop, info, ast))
        report = report.merged(check_races(scop, info, graph))
        assert report.ok, "\n".join(d.render() for d in report.errors)


class _ConstantPacker:
    """A deliberately broken packer mapping every block end to one code."""

    capacity = 1

    def pack(self, vec):
        return 0


class TestSeededCollisions:
    def test_constant_packer_collision_detected(self, pipeline):
        _, _, ast, _ = pipeline
        packers = dict(statement_packers(ast))
        packers["S"] = _ConstantPacker()
        report = check_packing(ast, packers=packers)
        collisions = [d for d in report if d.code == "RPA040"]
        assert collisions, "seeded packing collision must be detected"
        assert "pack to the same code 0" in collisions[0].message

    def test_duplicate_columns_detected(self, pipeline):
        _, _, ast, _ = pipeline
        columns = {name: 0 for name in statement_columns(ast)}
        report = check_packing(ast, columns=columns)
        assert any(
            d.code == "RPA040" and "share dependArr column" in d.message
            for d in report
        )

    def test_column_out_of_range_detected(self, pipeline):
        _, _, ast, _ = pipeline
        columns = dict(statement_columns(ast))
        columns["R"] = 99
        report = check_packing(ast, columns=columns)
        assert any(
            d.code == "RPA040" and "outside" in d.message for d in report
        )

    def test_oversized_packer_reported_as_overflow(self, pipeline):
        _, _, ast, _ = pipeline

        class _HugePacker(_ConstantPacker):
            capacity = 2**63

        packers = dict(statement_packers(ast))
        packers["S"] = _HugePacker()
        report = check_packing(ast, packers=packers)
        assert any(d.code == "RPA041" for d in report)


class TestTokenCoverage:
    def test_generated_tokens_cover_all_dependences(self, pipeline):
        scop, info, ast, _ = pipeline
        assert check_token_coverage(scop, info, ast).ok

    def test_stripped_in_tokens_are_caught(self, pipeline):
        from dataclasses import replace

        from repro.schedule.astgen import TaskLoopNest

        scop, info, ast, _ = pipeline
        nests = []
        for nest in ast.nests:
            blocks = tuple(
                replace(b, in_tokens=()) for b in nest.blocks
            )
            nests.append(
                TaskLoopNest(nest.statement, nest.depth, blocks)
            )
        stripped = ast_of_nests(nests)
        report = check_token_coverage(scop, info, stripped)
        uncovered = [d for d in report if d.code == "RPA042"]
        assert uncovered
        assert "S" in uncovered[0].message and "R" in uncovered[0].message


class TestUnchainedTokenCoverage:
    """An unchained nest has no chain to run a maximum along: every
    token it relied on must be spelled out, and is checked one by one."""

    @pytest.fixture(scope="class")
    def relaxed(self):
        scop = build_scop(TABLE9["P2"].source(8))
        info = detect_pipeline(scop)
        ast = relax(scop, info, generate_task_ast(info), hybrid=True)
        assert [n.chained for n in ast.nests] == [True, False]
        return scop, info, ast

    @staticmethod
    def without_token(ast, statement, block_id, token):
        def drop(block):
            if block.block_id != block_id:
                return block
            assert token in block.in_tokens
            kept = tuple(t for t in block.in_tokens if t != token)
            return replace(block, in_tokens=kept)

        return ast_of_nests((
            replace(n, blocks=tuple(map(drop, n.blocks)))
            if n.statement == statement else n
            for n in ast.nests
        ))

    def test_relaxed_tokens_cover_all_dependences(self, relaxed):
        scop, info, ast = relaxed
        assert check_token_coverage(scop, info, ast).ok
        assert check_task_graph(
            scop, info, ast=ast, graph=TaskGraph.from_task_ast(ast)
        ).ok

    def test_every_dropped_self_token_is_caught(self, relaxed):
        scop, info, ast = relaxed
        dropped = 0
        for block in ast.nest("S2").blocks:
            for token in block.in_tokens:
                if token[0] != "S2":
                    continue
                mutant = self.without_token(ast, "S2", block.block_id, token)
                report = check_token_coverage(scop, info, mutant)
                assert [d.code for d in report] == ["RPA042"] * len(report)
                assert not report.ok, (block.block_id, token)
                assert "S2" in report.errors[0].message
                dropped += 1
        assert dropped > 0

    def test_a_chain_would_have_hidden_the_dropped_self_token(self, relaxed):
        """The same mutant on a chained nest is covered by the chain —
        what the check must not assume of an unchained one."""
        scop, info, ast = relaxed
        block = next(
            b for b in ast.nest("S2").blocks
            if any(s == "S2" for s, _ in b.in_tokens)
        )
        token = next(t for t in block.in_tokens if t[0] == "S2")
        mutant = self.without_token(ast, "S2", block.block_id, token)
        rechained = ast_of_nests((
            replace(n, chained=True) for n in mutant.nests
        ))
        assert check_token_coverage(scop, info, rechained).ok

    @pytest.mark.parametrize("target_chained", [False, True])
    def test_dropped_prefix_token_on_an_unchained_source_is_caught(
        self, target_chained
    ):
        """A consumer of an unchained source names every source block it
        needs; a token on another one does not stand in for it.  (Row
        ``i`` of 2mm's second product reads row ``i`` of the first: the
        earlier prefix tokens carry no dependence of their own.)"""
        from repro.workloads import MatmulKernel

        scop = build_scop(MatmulKernel(2, "mm").source(6))
        info = detect_pipeline(scop)
        ast = relax(scop, info, generate_task_ast(info), hybrid=True)
        if target_chained:  # a chain on the consumer does not help either
            ast = ast_of_nests((
                replace(n, chained=n.statement == "M2") for n in ast.nests
            ))
        last = ast.nest("M2").blocks[-1]
        assert {s for s, _ in last.in_tokens} == {"M1"}
        assert len(last.in_tokens) == len(ast.nest("M1").blocks)
        spare, needed = last.in_tokens[0], last.in_tokens[-1]
        harmless = self.without_token(ast, "M2", last.block_id, spare)
        assert check_token_coverage(scop, info, harmless).ok
        mutant = self.without_token(ast, "M2", last.block_id, needed)
        report = check_token_coverage(scop, info, mutant)
        assert not report.ok
        assert {d.code for d in report} == {"RPA042"}


class TestRaces:
    def test_full_graph_is_race_free(self, pipeline):
        scop, info, _, graph = pipeline
        assert check_races(scop, info, graph).ok

    def test_dropping_cross_edges_triggers_race(self, pipeline):
        scop, info, ast, _ = pipeline
        # rebuild the graph but silently drop every cross-statement edge
        graph = TaskGraph.from_task_ast(ast)
        broken = TaskGraph()
        for task in graph.tasks:
            broken.add_task(
                task.statement, task.block_id, task.cost, task.block
            )
        by_stmt = {}
        for task in graph.tasks:
            by_stmt.setdefault(task.statement, []).append(task.task_id)
        for tids in by_stmt.values():
            for a, b in zip(tids, tids[1:]):
                broken.add_edge(a, b)
        report = check_races(scop, info, broken)
        races = [d for d in report if d.code == "RPA043"]
        assert races, "dropping depend edges must produce a race"
        assert "flow dependence" in races[0].message

    def test_races_are_exactly_the_unordered_pairs(self, pipeline, monkeypatch):
        """No schedule is simulated: a race is a pair the graph leaves
        unordered, so on the dropped-edges mutant the RPA043 findings
        are ``check_legality``'s violations, one for one."""
        from repro.schedule import check_legality
        from repro.tasking import simulator

        scop, info, ast, graph = pipeline
        runs = []
        real = simulator.simulate
        monkeypatch.setattr(
            simulator, "simulate",
            lambda *a, **k: (runs.append(1), real(*a, **k))[1],
        )
        assert check_task_graph(scop, info, ast=ast, graph=graph).ok
        broken = TaskGraph()
        for task in graph.tasks:
            broken.add_task(
                task.statement, task.block_id, task.cost, task.block
            )
        for a, b in zip(range(len(graph)), range(1, len(graph))):
            if graph.tasks[a].statement == graph.tasks[b].statement:
                broken.add_edge(a, b)
        report = check_task_graph(
            scop, info, ast=ast, graph=broken, max_reports=10**6
        )
        assert runs == []
        violations = check_legality(
            scop, info, broken, max_violations=10**6
        ).violations
        races = sorted(d.message for d in report if d.code == "RPA043")
        assert len(races) == len(violations) > 0
        assert races == sorted(
            f"{v.kind.value} dependence {v.source}"
            f"{list(v.source_instance)} -> {v.target}"
            f"{list(v.target_instance)} is not ordered by the task graph: "
            "its target's task may run before its source's task finishes"
            for v in violations
        )


class TestCombined:
    def test_check_task_graph_clean_on_listing1(self, pipeline):
        scop, info, ast, graph = pipeline
        report = check_task_graph(scop, info, ast=ast, graph=graph)
        assert report.ok, "\n".join(d.render() for d in report.errors)

    def test_defaults_built_when_omitted(self, pipeline):
        scop, info, _, _ = pipeline
        assert check_task_graph(scop, info).ok

    def test_relaxed_pairs_are_no_dependence_to_cover_or_race_on(self):
        """A privatized graph is clean exactly under its proofs' removed
        set; without it the unchained reduction chunks look like races."""
        from repro.driver import TransformOptions, analyze
        from repro.interp import Interpreter
        from tests.test_driver import HISTOGRAM

        interp = Interpreter.from_source(HISTOGRAM, {"N": 8})
        a = analyze(interp, TransformOptions(privatize=True))
        checked = dict(ast=a.task_ast, graph=a.graph)
        strict = check_task_graph(interp.scop, a.info, **checked)
        assert {d.code for d in strict.errors} >= {"RPA042"}
        relaxed = check_task_graph(
            interp.scop, a.info, relaxed=a.plan.relaxed(), **checked
        )
        assert relaxed.ok, "\n".join(d.render() for d in relaxed.errors)
