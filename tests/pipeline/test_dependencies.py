"""Tests for pipeline dependency relations (Section 4.3, Equation 4)."""

import numpy as np
import pytest

from repro.pipeline import detect_pipeline, out_dependency
from repro.scop import dependence_relation
from tests.conftest import rowwise_lex_le


class TestListing1:
    def test_every_target_block_has_requirement(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        dep = info.in_deps["R"][0]
        assert dep.source == "S"
        assert len(dep.relation) == info.blockings["R"].num_blocks

    def test_requirements_are_source_block_ends(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        dep = info.in_deps["R"][0]
        source_ends = info.blockings["S"].ends
        for row in dep.relation.pairs:
            req = tuple(int(v) for v in row[dep.relation.n_in :])
            assert source_ends.contains(req)

    def test_specific_requirements(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        dep = info.in_deps["R"][0]
        table = {
            tuple(r[:2]): tuple(r[2:]) for r in dep.relation.pairs.tolist()
        }
        # R block ending at [0, k] needs S block ending at [0, 2k]
        assert table[(0, 0)] == (0, 0)
        assert table[(0, 3)] == (0, 6)
        assert table[(8, 8)] == (8, 16)

    def test_source_has_no_in_deps(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        assert info.in_deps["S"] == ()


class TestSafety:
    """Every instance-level flow dependence must be covered by Q chains."""

    def _requirement_covers_deps(self, scop, info, src_name, tgt_name):
        src_stmt = scop.statement(src_name)
        tgt_stmt = scop.statement(tgt_name)
        rel = dependence_relation(scop, src_stmt, tgt_stmt)
        if rel.is_empty():
            return
        dep = next(
            d for d in info.in_deps[tgt_name] if d.source == src_name
        )
        req_table = {
            tuple(r[: dep.relation.n_in]): np.asarray(
                r[dep.relation.n_in :]
            )
            for r in dep.relation.pairs.tolist()
        }
        tgt_blocking = info.blockings[tgt_name]
        tgt_block_ends = tgt_blocking.mapping  # iteration -> block end
        end_lookup = {
            tuple(r[: tgt_block_ends.n_in]): tuple(
                r[tgt_block_ends.n_in :]
            )
            for r in tgt_block_ends.pairs.tolist()
        }
        for row in rel.pairs.tolist():
            j = tuple(row[: rel.n_in])
            i = np.asarray(row[rel.n_in :])
            block_end = end_lookup[j]
            req = req_table[block_end]
            # the required source block end is >= the needed iteration
            assert bool(
                rowwise_lex_le(i[None, :], req[None, :])[0]
            ), f"dep {j} -> {row[rel.n_in:]} uncovered (req {req})"

    def test_listing1(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        self._requirement_covers_deps(listing1_scop, info, "S", "R")

    def test_listing3_all_pairs(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        for (s, t) in info.pipeline_maps:
            self._requirement_covers_deps(listing3_scop, info, s, t)

    def test_listing3_coarsened(self, listing3_scop):
        info = detect_pipeline(listing3_scop, coarsen=3)
        for (s, t) in info.pipeline_maps:
            self._requirement_covers_deps(listing3_scop, info, s, t)


class TestOutDependency:
    def test_identity_on_ends(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        out = out_dependency(info.blockings["S"])
        assert np.array_equal(out.in_part, out.out_part)
        assert len(out) == info.blockings["S"].num_blocks
