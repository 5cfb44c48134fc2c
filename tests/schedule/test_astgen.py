"""Tests for task-AST generation (Section 5.3, Figure 6)."""

import numpy as np
import pytest

from repro.pipeline import detect_pipeline
from repro.presburger import unique_rows
from repro.schedule import generate_task_ast


class TestBlocksPartitionDomain:
    def test_cover_exactly_once(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        ast = generate_task_ast(info)
        for nest in ast.nests:
            stmt = listing3_scop.statement(nest.statement)
            stacked = np.concatenate([b.iterations for b in nest.blocks])
            assert unique_rows(stacked).shape[0] == stacked.shape[0]
            assert np.array_equal(unique_rows(stacked), stmt.points.points)

    def test_block_ends_are_last_iterations(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        for nest in ast.nests:
            for block in nest.blocks:
                last = tuple(int(v) for v in block.iterations[-1])
                assert last == block.end

    def test_blocks_in_execution_order(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        for nest in ast.nests:
            ends = [b.end for b in nest.blocks]
            assert ends == sorted(ends)
            assert [b.block_id for b in nest.blocks] == list(
                range(len(ends))
            )


class TestTokens:
    def test_in_tokens_reference_existing_blocks(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        ast = generate_task_ast(info)
        all_out = {b.out_token for n in ast.nests for b in n.blocks}
        for nest in ast.nests:
            for block in nest.blocks:
                for token in block.in_tokens:
                    assert token in all_out

    def test_u_blocks_have_two_sources(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        ast = generate_task_ast(info)
        u = ast.nest("U")
        sources = {s for b in u.blocks for (s, _) in b.in_tokens}
        assert sources == {"S", "R"}

    def test_source_statement_has_no_in_tokens(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        assert all(not b.in_tokens for b in ast.nest("S").blocks)

    def test_unknown_nest_raises(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        with pytest.raises(KeyError):
            ast.nest("Z")


class TestPretty:
    def test_figure6_style_output(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        text = generate_task_ast(info).pretty()
        for stmt in ("S", "R", "U"):
            assert f"// statement {stmt}" in text
        assert "// task" in text
        assert "pipeline loop" in text

    def test_totals(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        ast = generate_task_ast(info)
        assert sum(b.size for b in ast.nest("S").blocks) == 19 * 19
        assert len(ast.all_blocks()) == info.num_tasks()
