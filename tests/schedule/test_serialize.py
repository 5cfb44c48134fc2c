"""Tests for task-AST serialization and the section container."""

import json

import numpy as np
import pytest

from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline
from repro.schedule import (
    dumps_task_ast,
    generate_task_ast,
    loads_task_ast,
    relax,
)
from repro.schedule.astgen import task_edges
from repro.schedule.serialize import (
    BLOB_MAGIC,
    pack_sections,
    unpack_sections,
)
from repro.tasking import TaskGraph
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
        ast = relax(
            interp.scop, detect_pipeline(interp.scop), raw, hybrid=True
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
        # the flag is a column of the nest table, not per-block data
        doc = unpack_sections(dumps_task_ast(ast)[len(BLOB_MAGIC):])
        assert [row[2] for row in doc["nests"]] == [True, False]

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
        other = BLOB_MAGIC.replace(b"3", b"9") + blob[len(BLOB_MAGIC):]
        with pytest.raises(ValueError, match="magic"):
            loads_task_ast(other)


def _sections(ast):
    return unpack_sections(dumps_task_ast(ast)[len(BLOB_MAGIC):])


def _with(ast, **arrays):
    """The blob of ``ast`` with some of its sections replaced."""
    doc = dict(_sections(ast), **arrays)
    return BLOB_MAGIC + pack_sections(doc)


class TestSections:
    def test_a_load_takes_the_sections_as_views(self):
        """Loading builds no per-block object: the AST holds the flat
        arrays, read-only views of the blob, until its nests are read."""
        _, ast = make_ast(LISTING3, {"N": 10})
        back = loads_task_ast(dumps_task_ast(ast))
        assert "nests" not in back.__dict__
        arrays = back.arrays
        for name in ("flat", "shapes", "ends", "indptr", "indices"):
            section = getattr(arrays, name)
            assert section.dtype == np.dtype("<i8")
            assert not section.flags.writeable, name
        assert arrays.num_blocks == len(ast.all_blocks())
        assert_same_ast(ast, back)  # the nests, built on first read

    def test_the_arrays_describe_the_nests(self):
        _, ast = make_ast(LISTING1, {"N": 8})
        a = ast.arrays
        for k, nest in enumerate(ast.nests):
            blocks = a.blocks(k)
            assert len(blocks) == nest.num_blocks
            assert a.nest_ends(k).tolist() == [
                list(b.end) for b in nest.blocks
            ]
            for g, block in zip(blocks, nest.blocks):
                assert np.array_equal(a.iterations(g), block.iterations)
        # every edge of the graph, from the producer CSR and the chains
        src, dst = task_edges(ast)
        graph = TaskGraph.from_task_ast(ast)
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
            (p, t) for t, ps in enumerate(graph.preds) for p in ps
        )

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(
                lambda d: {"indices": np.full_like(
                    d["indices"], d["shapes"].shape[0] - 1
                )},
                id="producer-not-before-consumer",
            ),
            pytest.param(
                lambda d: {"indptr": d["indptr"][:-1].copy()},
                id="short-indptr",
            ),
            pytest.param(lambda d: {"flat": d["flat"][1:]}, id="short-flat"),
            pytest.param(lambda d: {"ends": d["ends"][1:]}, id="short-ends"),
            pytest.param(lambda d: {"shapes": b"xx"}, id="wrong-dtype"),
            pytest.param(lambda d: {"nests": 5}, id="nest-table"),
        ],
    )
    def test_inconsistent_arrays_are_refused(self, damage):
        _, ast = make_ast(LISTING1, {"N": 8})
        with pytest.raises(ValueError):
            loads_task_ast(_with(ast, **damage(_sections(ast))))

    def test_the_container_refuses_what_it_did_not_write(self):
        data = pack_sections({"a": np.arange(3), "b": b"xyz", "c": [1]})
        doc = unpack_sections(data)
        assert doc["a"].tolist() == [0, 1, 2]
        assert bytes(doc["b"]) == b"xyz" and doc["c"] == [1]
        length = int.from_bytes(data[:8], "little")
        _, doc = data[8 : 8 + length].split(b"\n")
        for cut in (0, 7, 8 + length - 1, len(data) - 8):
            with pytest.raises(ValueError):
                unpack_sections(data[:cut])
        for entry in ([-8, "<i8", [3]], [0, "<f8", [3]], [0, "<i8", [99]]):
            bad = json.dumps([entry, entry]).encode() + b"\n" + doc
            bad += b" " * (-len(bad) % 8)
            with pytest.raises(ValueError):
                unpack_sections(
                    len(bad).to_bytes(8, "little") + bad + data[8 + length:]
                )
