"""Tests for the CreateTask layer (OpenMP depend-clause semantics)."""

import pytest

from repro.tasking import OmpTaskSystem

from tests.conftest import dense_reach


def noop(payload):
    pass


def other(payload):
    pass


class TestSlots:
    def test_slot_addressing(self):
        sys_ = OmpTaskSystem(write_num=3)
        assert sys_.slot(depend=0, idx=0) == 0
        assert sys_.slot(depend=2, idx=1) == 7  # 3*2 + 1

    def test_idx_range_checked(self):
        sys_ = OmpTaskSystem(write_num=2)
        with pytest.raises(ValueError):
            sys_.slot(0, 2)

    def test_write_num_positive(self):
        with pytest.raises(ValueError):
            OmpTaskSystem(write_num=0)


class TestDependSemantics:
    def test_raw_edge(self):
        sys_ = OmpTaskSystem(write_num=1)
        w = sys_.create_task(noop, None, out_depend=5, out_idx=0)
        r = sys_.create_task(
            other, None, out_depend=9, out_idx=0, in_depend=[5], in_idx=[0]
        )
        assert w in sys_.graph.preds[r]

    def test_in_before_any_write_has_no_edge(self):
        sys_ = OmpTaskSystem(write_num=1)
        r = sys_.create_task(
            noop, None, out_depend=1, out_idx=0, in_depend=[7], in_idx=[0]
        )
        assert sys_.graph.preds[r] == set()

    def test_out_after_out_serializes(self):
        sys_ = OmpTaskSystem(write_num=1)
        a = sys_.create_task(noop, None, out_depend=3, out_idx=0)
        b = sys_.create_task(other, None, out_depend=3, out_idx=0)
        assert a in sys_.graph.preds[b]

    def test_out_waits_for_readers(self):
        sys_ = OmpTaskSystem(write_num=1)
        w = sys_.create_task(noop, None, out_depend=3, out_idx=0)
        r = sys_.create_task(
            other, None, out_depend=4, out_idx=0, in_depend=[3], in_idx=[0]
        )

        def third(payload):
            pass

        w2 = sys_.create_task(third, None, out_depend=3, out_idx=0)
        assert r in sys_.graph.preds[w2]  # WAR ordering

    def test_self_chain_per_function(self):
        sys_ = OmpTaskSystem(write_num=1)
        a = sys_.create_task(noop, None, out_depend=0, out_idx=0)
        b = sys_.create_task(noop, None, out_depend=1, out_idx=0)
        c = sys_.create_task(other, None, out_depend=2, out_idx=0)
        assert a in sys_.graph.preds[b]  # same function pointer
        assert b not in sys_.graph.preds[c]  # different function

    def test_parallel_arrays_checked(self):
        sys_ = OmpTaskSystem(write_num=1)
        with pytest.raises(ValueError):
            sys_.create_task(
                noop, None, out_depend=0, out_idx=0, in_depend=[1], in_idx=[]
            )

    def test_block_ids_count_per_function(self):
        sys_ = OmpTaskSystem(write_num=1)
        sys_.create_task(noop, None, 0, 0)
        sys_.create_task(noop, None, 1, 0)
        sys_.create_task(other, None, 2, 0)
        ids = [(t.statement, t.block_id) for t in sys_.graph.tasks]
        assert ids == [("noop", 0), ("noop", 1), ("other", 0)]


class TestExecution:
    def test_run_executes_payloads(self):
        sys_ = OmpTaskSystem(write_num=1)
        seen = []

        def f(payload):
            seen.append(payload)

        sys_.create_task(f, "a", 0, 0)
        sys_.create_task(f, "b", 1, 0, in_depend=[0], in_idx=[0])
        result = sys_.run(workers=2)
        assert result.ok
        assert seen == ["a", "b"]  # self-chain + RAW force order

    def test_len(self):
        sys_ = OmpTaskSystem(write_num=1)
        sys_.create_task(noop, None, 0, 0)
        assert len(sys_) == 1
        # the 200-task no-op chain the retired bench_runtime_overhead.py
        # timed: one function, so one self chain
        for k in range(1, 200):
            sys_.create_task(noop, None, out_depend=k, out_idx=0)
        result = sys_.run(workers=4)
        assert result.ok and len(sys_) == 200
        assert result.completion_order == tuple(range(200))


class TestEquivalenceWithDirectGraph:
    def test_same_order_constraints_as_task_ast_graph(self, listing1_interp):
        """The CreateTask-built graph enforces at least the AST graph's
        constraints (its reachability is a superset)."""
        from repro.codegen import run_generated
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast
        from repro.tasking import TaskGraph

        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        ast = generate_task_ast(info)
        direct = TaskGraph.from_task_ast(ast)

        store = interp.new_store()
        _, system, _ = run_generated(info, interp, store, workers=2)
        assert len(system.graph) == len(direct)

        direct_reach = dense_reach(direct)
        api_reach = dense_reach(system.graph)
        # Task creation order is identical (program order), so ids align.
        assert (direct_reach & ~api_reach).sum() == 0
