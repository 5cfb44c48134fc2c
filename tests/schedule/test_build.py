"""Tests for Algorithm 2: schedule-tree construction."""

from repro.pipeline import detect_pipeline
from repro.presburger import PointRelation
from repro.schedule import (
    PIPELINE_MARK,
    BandNode,
    DomainNode,
    ExpansionNode,
    MarkNode,
    SequenceNode,
    build_schedule,
    build_statement_tree,
)
from tests.conftest import marks


class TestStatementTree:
    def test_algorithm2_shape(self, listing1_scop):
        """domain(R_E) -> band -> expansion(E_S) -> domain(D_E) -> mark -> band."""
        info = detect_pipeline(listing1_scop)
        node = build_statement_tree(info, "S")

        assert isinstance(node, DomainNode)
        assert node.domain == info.blockings["S"].ends  # R_E

        band = node.child
        assert isinstance(band, BandNode) and band.role == "block"

        expansion = band.child
        assert isinstance(expansion, ExpansionNode)
        assert expansion.contraction == info.blockings["S"].mapping  # E_S

        inner_domain = expansion.child
        assert isinstance(inner_domain, DomainNode)
        assert inner_domain.domain == info.blockings["S"].mapping.domain()

        mark = inner_domain.child
        assert isinstance(mark, MarkNode) and mark.name == PIPELINE_MARK

        inner_band = mark.child
        assert isinstance(inner_band, BandNode) and inner_band.role == "intra"

    def test_mark_payload_contents(self, listing1_scop):
        info = detect_pipeline(listing1_scop)
        node = build_statement_tree(info, "R")
        mark = next(n for n in node.walk() if isinstance(n, MarkNode))
        payload = mark.payload
        assert payload.statement == "R"
        assert len(payload.in_deps) == 1
        assert payload.in_deps[0].source == "S"
        assert payload.blocking is info.blockings["R"]
        ends = info.blockings["R"].ends
        assert payload.out_dep == PointRelation.identity(ends)


class TestFullSchedule:
    def test_sequence_in_program_order(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        tree = build_schedule(info)
        assert isinstance(tree.root, SequenceNode)
        names = [
            b.statement
            for b in tree.root.branches
            if isinstance(b, DomainNode)
        ]
        assert names == ["S", "R", "U"]

    def test_single_statement_no_sequence(self):
        from repro.lang import parse
        from repro.scop import extract_scop

        scop = extract_scop(
            parse("for(i=0; i<4; i++) S: A[i][0] = f(A[i][0]);")
        )
        tree = build_schedule(detect_pipeline(scop))
        assert isinstance(tree.root, DomainNode)

    def test_one_mark_per_statement(self, listing3_scop):
        info = detect_pipeline(listing3_scop)
        tree = build_schedule(info)
        assert len(marks(tree, PIPELINE_MARK)) == 3
