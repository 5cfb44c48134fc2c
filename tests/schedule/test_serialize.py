"""Tests for task-AST serialization."""

import zlib

import numpy as np
import pytest

from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline
from repro.schedule import dumps_task_ast, generate_task_ast, loads_task_ast
from repro.schedule.serialize import BLOB_MAGIC
from repro.tasking import TaskGraph, relax_self_chains
from repro.workloads import TABLE9
from tests.conftest import LISTING1, LISTING3


def make_ast(source, params):
    scop_interp = Interpreter.from_source(source, params)
    info = detect_pipeline(scop_interp.scop)
    return scop_interp, generate_task_ast(info)


def assert_same_ast(ast, back):
    assert [(n.statement, n.depth, n.chained) for n in back.nests] == [
        (n.statement, n.depth, n.chained) for n in ast.nests
    ]
    for a, b in zip(ast.all_blocks(), back.all_blocks()):
        assert a.end == b.end
        assert a.block_id == b.block_id
        assert a.in_tokens == b.in_tokens
        assert a.out_token == b.out_token
        assert np.array_equal(a.iterations, b.iterations)


class TestRoundTrip:
    def test_bytes_roundtrip(self):
        for source, n in ((LISTING1, 10), (LISTING3, 12)):
            _, ast = make_ast(source, {"N": n})
            assert_same_ast(ast, loads_task_ast(dumps_task_ast(ast)))

    def test_relaxed_ast_roundtrips_through_both_containers(self):
        """``chained`` and the self-tokens are the relaxation: a loaded
        AST that lost either would replay as a plain chain."""
        interp, raw = make_ast(TABLE9["P2"].source(6), {})
        ast = relax_self_chains(
            interp.scop, detect_pipeline(interp.scop), raw
        )
        assert [n.chained for n in ast.nests] == [True, False]
        assert any(
            src == "S2"
            for block in ast.nest("S2").blocks
            for src, _ in block.in_tokens
        )
        back = loads_task_ast(dumps_task_ast(ast))
        assert_same_ast(ast, back)
        assert (
            TaskGraph.from_task_ast(back).preds
            == TaskGraph.from_task_ast(ast).preds
        )
        # the flag costs a plain AST nothing
        assert b"chained" not in zlib.decompress(
            dumps_task_ast(raw)[len(BLOB_MAGIC):]
        )

    def test_loaded_ast_executes_correctly(self):
        """The plan lowered from a loaded AST reproduces the kernel."""
        interp, ast = make_ast(LISTING1, {"N": 12})
        seq = interp.run_sequential(interp.new_store())
        par, _ = execute_measured(
            interp, detect_pipeline(interp.scop), backend="threads",
            task_ast=loads_task_ast(dumps_task_ast(ast)),
        )
        assert seq.equal(par)

    def test_version_checked(self):
        """The magic names the layout version: a blob of another version
        is refused, not misread."""
        _, ast = make_ast(LISTING1, {"N": 6})
        blob = dumps_task_ast(ast)
        other = BLOB_MAGIC.replace(b"2", b"9") + blob[len(BLOB_MAGIC):]
        with pytest.raises(ValueError, match="magic"):
            loads_task_ast(other)
