"""Tests for Algorithm 1's driver and PipelineInfo."""

import pytest

from repro.lang import parse
from repro.pipeline import UncoveredDependenceError, detect_pipeline
from repro.scop import DepKind, InvalidScopError, extract_scop


def scop_of(src: str, **params):
    return extract_scop(parse(src), params or None)


class TestListing1:
    def test_structure(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        assert set(info.pipeline_maps) == {("S", "R")}
        assert info.blockings["S"].num_blocks == 82
        assert info.blockings["R"].num_blocks == 81
        assert info.num_tasks() == 163
        assert info.pipelined_statements() == ["S", "R"]

    def test_summary_mentions_statements(self, listing1_scop):
        text = detect_pipeline(listing1_scop).summary()
        assert "S" in text and "R" in text and "blocks" in text


class TestListing3:
    def test_all_pairs_found(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        assert set(info.pipeline_maps) == {
            ("S", "R"),
            ("S", "U"),
            ("R", "U"),
        }
        # U has two in-dependency relations (from S and from R)
        assert {d.source for d in info.in_deps["U"]} == {"S", "R"}
        # S's blocking refines the union of both its source blockings
        assert info.blockings["S"].num_blocks >= 2


class TestNoDependences:
    def test_independent_nests_single_blocks(self):
        scop = scop_of(
            "for(i=0; i<4; i++) S: A[i][0] = f(A[i][0]);\n"
            "for(i=0; i<4; i++) T: B[i][0] = g(B[i][0]);"
        )
        info = detect_pipeline(scop)
        assert not info.pipeline_maps
        assert info.blockings["S"].num_blocks == 1
        assert info.blockings["T"].num_blocks == 1
        assert info.pipelined_statements() == []

    def test_single_nest(self):
        scop = scop_of("for(i=0; i<5; i++) S: A[i][0] = f(A[i][0]);")
        info = detect_pipeline(scop)
        assert info.num_tasks() == 1


class TestValidation:
    def test_invalid_scop_rejected(self):
        scop = scop_of(
            "for(i=0; i<4; i++) for(j=0; j<4; j++) S: A[i][0] = f(B[i][j]);"
        )
        with pytest.raises(InvalidScopError):
            detect_pipeline(scop)

    def test_validation_can_be_skipped(self):
        scop = scop_of(
            "for(i=0; i<4; i++) for(j=0; j<4; j++) S: A[i][0] = f(B[i][j]);"
        )
        info = detect_pipeline(scop, validate=False)
        assert info.num_tasks() >= 1

    def test_uncovered_anti_dep_rejected(self):
        # Second nest overwrites cells the first nest reads.
        scop = scop_of(
            "for(i=0; i<4; i++) S: B[i][0] = f(A[i][0]);\n"
            "for(i=0; i<4; i++) T: A[i][0] = g(C[i][0]);"
        )
        with pytest.raises(UncoveredDependenceError, match="anti"):
            detect_pipeline(scop)

    def test_anti_dep_covered_when_requested(self):
        scop = scop_of(
            "for(i=0; i<4; i++) S: B[i][0] = f(A[i][0]);\n"
            "for(i=0; i<4; i++) T: A[i][0] = g(C[i][0]);"
        )
        info = detect_pipeline(scop, kinds=(DepKind.FLOW, DepKind.ANTI))
        assert ("S", "T") in info.pipeline_maps

    def test_uncovered_output_dep_rejected(self):
        scop = scop_of(
            "for(i=0; i<4; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=0; i<4; i++) T: A[i][0] = g(C[i][0]);"
        )
        with pytest.raises(UncoveredDependenceError, match="output"):
            detect_pipeline(scop)


class TestCoarsen:
    def test_fewer_tasks(self, listing1_scop):
        fine = detect_pipeline(listing1_scop)
        coarse = detect_pipeline(listing1_scop, coarsen=4)
        assert coarse.num_tasks() < fine.num_tasks()

    def test_coarse_ends_subset_of_fine(self, listing1_scop):
        fine = detect_pipeline(listing1_scop)
        coarse = detect_pipeline(listing1_scop, coarsen=4)
        for name in ("S", "R"):
            for e in coarse.blockings[name].ends.points:
                assert fine.blockings[name].ends.contains(
                    tuple(int(v) for v in e)
                )


class TestMergedKinds:
    def test_flow_plus_anti_merged_map_is_safe(self):
        scop = scop_of(
            "for(i=0; i<6; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=0; i<6; i++) T: B[i][0] = g(A[i][0]);"
        )
        info = detect_pipeline(scop, kinds=(DepKind.FLOW, DepKind.ANTI))
        pm = info.pipeline_maps[("S", "T")]
        # merged requirement: T[i] needs S up to i for both classes
        table = {
            tuple(r[:1]): tuple(r[1:])
            for r in pm.requirement.pairs.tolist()
        }
        assert all(table[(k,)] == (k,) for k in range(6))


class TestAgainstTheLiteralAlgorithm:
    """``detect_pipeline`` keeps end sets and returns a lone class's map
    as computed; both must equal Algorithm 1 spelled out: one blocking map
    per pipeline map and side refined by Equation 3, and a map re-derived
    from the (union of the) per-class requirements."""

    @staticmethod
    def corpus():
        from pathlib import Path

        from repro.workloads import TABLE9

        for name in sorted(TABLE9):
            for n in (8, 13):
                yield f"{name}@{n}", TABLE9[name].source(n), None
        kernels = Path(__file__).resolve().parents[2] / "examples" / "kernels"
        for path in sorted(kernels.glob("*.c")):
            yield path.name, path.read_text(), {"N": 12}

    @pytest.mark.parametrize(
        "kinds", [(DepKind.FLOW,), tuple(DepKind)], ids=["flow", "all"]
    )
    def test_maps_and_blockings(self, kinds):
        from repro.pipeline import PipelineMap, compute_pipeline_map
        from repro.pipeline.pipeline_map import prefix_lexmax
        from tests.conftest import (
            combine_blockings,
            source_blocking,
            target_blocking,
        )

        maps = 0
        for label, source, params in self.corpus():
            scop = extract_scop(parse(source), params)
            info = detect_pipeline(scop, kinds=kinds, validate=False)
            per_stmt = {s.name: [] for s in scop.statements}
            for (src, tgt), pmap in info.pipeline_maps.items():
                S, T = scop.statement(src), scop.statement(tgt)
                requirement = None
                for kind in kinds:
                    one = compute_pipeline_map(scop, S, T, kind)
                    if one is not None:
                        requirement = (
                            one.requirement
                            if requirement is None
                            else requirement.union(one.requirement)
                        )
                merged = prefix_lexmax(requirement.lexmax_per_domain())
                anchors = merged.inverse().lexmax_per_domain()
                assert pmap == PipelineMap(src, tgt, anchors, merged), label
                per_stmt[src].append(source_blocking(src, S.points, pmap))
                per_stmt[tgt].append(target_blocking(tgt, T.points, pmap))
                maps += 1
            for stmt in scop.statements:
                assert info.blockings[stmt.name] == combine_blockings(
                    stmt.name, stmt.points, per_stmt[stmt.name]
                ), (label, stmt.name)
        assert maps > 40
