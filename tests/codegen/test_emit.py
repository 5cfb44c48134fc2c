"""Tests for task-program code generation and execution."""

import pytest

from repro.codegen import (
    emit_task_program,
    load_task_program,
    run_generated,
    statement_columns,
)
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.tasking import OmpTaskSystem


class TestEmittedSource:
    def test_structure(self, listing1_interp):
        info = detect_pipeline(listing1_interp.scop)
        source = emit_task_program(info)
        assert "WRITE_NUM = 2" in source
        assert "def task_S(payload):" in source
        assert "def task_R(payload):" in source
        assert "def build_tasks(system, run_block):" in source
        assert "in_depend=" in source and "out_depend=" in source

    def test_columns_in_program_order(self, listing3_interp):
        info = detect_pipeline(listing3_interp.scop)
        ast = generate_task_ast(info)
        assert statement_columns(ast) == {"S": 0, "R": 1, "U": 2}

    def test_source_is_valid_python(self, listing1_interp):
        info = detect_pipeline(listing1_interp.scop)
        module = load_task_program(emit_task_program(info))
        assert callable(module.build_tasks)
        assert module.WRITE_NUM == 2

    def test_task_count_matches_info(self, listing1_interp):
        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        module = load_task_program(emit_task_program(info))
        system = OmpTaskSystem(write_num=module.WRITE_NUM)
        created = module.build_tasks(system, lambda stmt, iters: None)
        assert len(created) == info.num_tasks()

    def test_custom_cost_embedded(self, listing1_interp):
        info = detect_pipeline(listing1_interp.scop)
        source = emit_task_program(info, cost_of_block=lambda b: 42.0)
        assert "cost=42.0" in source


class TestGeneratedExecution:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_sequential(self, listing1_interp, workers):
        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, system, result = run_generated(info, interp, store, workers)
        assert result.ok
        assert seq.equal(store)

    def test_three_nests(self, listing3_interp):
        interp = listing3_interp
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, system, result = run_generated(info, interp, store, workers=4)
        assert result.ok and seq.equal(store)
        assert len(system) == info.num_tasks()

    def test_generated_for_pkernel(self):
        from repro.workloads import TABLE9

        kern = TABLE9["P3"]
        interp = Interpreter.from_source(kern.source(8), {})
        info = detect_pipeline(interp.scop)
        seq = interp.run_sequential(interp.new_store())
        store = interp.new_store()
        _, _, result = run_generated(info, interp, store, workers=3)
        assert result.ok and seq.equal(store)

    def test_generated_deterministic_across_runs(self, listing1_interp):
        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        stores = []
        for _ in range(2):
            store = interp.new_store()
            run_generated(info, interp, store, workers=4)
            stores.append(store)
        assert stores[0].equal(stores[1])

    def test_relaxed_ast_emits_unchained_tasks_that_still_verify(self):
        """An unchained nest's ``create_task`` calls opt out of the
        ``funcCount`` chain; its self-tokens are ordinary depend slots."""
        from repro.schedule import relax
        from repro.tasking import TaskGraph
        from repro.workloads import TABLE9

        interp = Interpreter.from_source(TABLE9["P2"].source(6), {})
        info = detect_pipeline(interp.scop)
        raw = generate_task_ast(info)
        relaxed = relax(interp.scop, info, raw, hybrid=True)
        assert "chain=False" not in emit_task_program(info, raw)
        source = emit_task_program(info, relaxed)
        # S1 keeps its chain, every S2 task drops it
        assert source.count("chain=False") == relaxed.nest("S2").num_blocks

        module = load_task_program(source)
        system = OmpTaskSystem(write_num=module.WRITE_NUM)
        store = interp.new_store()
        module.build_tasks(
            system,
            lambda stmt, iters: interp.run_block(store, stmt, iters),
        )
        # full OpenMP depend semantics add WAR/WAW edges, never drop one
        wanted = TaskGraph.from_task_ast(relaxed).preds
        assert all(ps <= system.graph.preds[t] for t, ps in enumerate(wanted))
        s2 = [t.task_id for t in system.graph.tasks if t.statement == "S2"]
        assert any(  # and S2's blocks are no chain any more
            a not in system.graph.preds[b] for a, b in zip(s2, s2[1:])
        )
        assert system.run(workers=4).ok
        assert interp.run_sequential(interp.new_store()).equal(store)
