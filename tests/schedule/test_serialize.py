"""Tests for task-AST serialization."""

import zlib

import numpy as np
import pytest

from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline
from repro.schedule import (
    dumps_task_ast,
    generate_task_ast,
    load_task_ast,
    loads_task_ast,
    save_task_ast,
)
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
    def test_file_roundtrip(self, tmp_path):
        _, ast = make_ast(LISTING3, {"N": 12})
        path = str(tmp_path / "ast.npz")
        save_task_ast(path, ast)
        assert_same_ast(ast, load_task_ast(path))

    def test_bytes_roundtrip(self):
        _, ast = make_ast(LISTING1, {"N": 10})
        back = loads_task_ast(dumps_task_ast(ast))
        assert len(back.all_blocks()) == len(ast.all_blocks())

    def test_relaxed_ast_roundtrips_through_both_containers(self, tmp_path):
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
        path = str(tmp_path / "ast.npz")
        save_task_ast(path, ast)
        for back in (load_task_ast(path), loads_task_ast(dumps_task_ast(ast))):
            assert_same_ast(ast, back)
            assert (
                TaskGraph.from_task_ast(back).preds
                == TaskGraph.from_task_ast(ast).preds
            )
        # the flag costs a plain AST nothing
        assert b"chained" not in zlib.decompress(
            dumps_task_ast(raw)[len(BLOB_MAGIC):]
        )

    def test_loaded_ast_executes_correctly(self, tmp_path):
        """The plan lowered from a loaded AST reproduces the kernel."""
        interp, ast = make_ast(LISTING1, {"N": 12})
        path = str(tmp_path / "ast.npz")
        save_task_ast(path, ast)
        seq = interp.run_sequential(interp.new_store())
        par, _ = execute_measured(
            interp, detect_pipeline(interp.scop), backend="threads",
            task_ast=load_task_ast(path),
        )
        assert seq.equal(par)

    def test_version_checked(self, tmp_path):
        import json

        import numpy as np

        path = str(tmp_path / "bad.npz")
        header = np.frombuffer(
            json.dumps({"version": 99, "nests": []}).encode(), dtype=np.uint8
        )
        np.savez(path, __header__=header)
        with pytest.raises(ValueError, match="version"):
            load_task_ast(path)
