"""Tests for pipeline-map computation (Section 4.1)."""

import numpy as np
import pytest

from repro.lang import parse
from repro.presburger import PointRelation
from repro.pipeline import compute_pipeline_map, prefix_lexmax
from repro.scop import DepKind, extract_scop
from tests.conftest import (
    pipeline_pairs_bruteforce,
    pipeline_relation_as_dict,
    rowwise_lex_le,
)


def scop_of(src: str, **params):
    return extract_scop(parse(src), params or None)


class TestPaperExample:
    """The worked example of Section 4.1 with N = 20."""

    def test_anchor_pairs(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        assert pm is not None
        rel = pipeline_relation_as_dict(pm.relation)
        # o0 = i0, o1 = floor(i1 / 2) for even i1; bounds from the paper.
        for (i0, i1), (o0, o1) in rel.items():
            assert o0 == i0
            assert o1 == i1 // 2
            assert i1 % 2 == 0
            assert 0 <= i0 <= 8 and 0 <= i1 <= 16
        assert len(rel) == 9 * 9

    def test_specific_pairs_from_paper(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        rel = pipeline_relation_as_dict(pm.relation)
        assert rel[(0, 0)] == (0, 0)
        assert rel[(0, 2)] == (0, 1)  # "when A[0][2] is computed, B[0][1]"
        assert rel[(8, 16)] == (8, 8)

    def test_requirement_monotone(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        H = pm.requirement
        # H is sorted by target iteration; requirements never decrease.
        out = H.out_part
        assert bool(np.all(rowwise_lex_le(out[:-1], out[1:])))

    def test_relation_is_partial_bijection(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        assert pm.relation.is_single_valued() and pm.relation.is_injective()


    def test_a_non_monotone_map_is_refused(self):
        """Equation 4 reads ``T⁻¹`` off ``T``'s row order, which the
        monotone ``H`` guarantees; a map without it is refused."""
        from repro.pipeline import PipelineMap

        rel = PointRelation(np.array([[0, 1], [1, 0]]), 1)
        with pytest.raises(AssertionError, match="monotone"):
            PipelineMap("S", "T", rel, rel.inverse())


class TestEdgeCases:
    def test_no_dependence_returns_none(self, listing1_scop_small):
        S = listing1_scop_small.statement("S")
        R = listing1_scop_small.statement("R")
        assert compute_pipeline_map(listing1_scop_small, R, S) is None

    def test_unrelated_arrays(self):
        scop = scop_of(
            "for(i=0; i<4; i++) S: A[i][0] = f(A[i][0]);\n"
            "for(i=0; i<4; i++) T: B[i][0] = g(C[i][0]);"
        )
        assert (
            compute_pipeline_map(
                scop, scop.statement("S"), scop.statement("T")
            )
            is None
        )

    def test_identity_copy_chain(self, copy_scop):
        S, T = copy_scop.statement("S"), copy_scop.statement("T")
        pm = compute_pipeline_map(copy_scop, S, T)
        rel = pipeline_relation_as_dict(pm.relation)
        # element-wise copy: anchor at every iteration, identity pairs
        assert all(k == v for k, v in rel.items())
        assert len(rel) == 64

    def test_reversed_access_blocks_pipelining(self):
        # T[i] reads A[N-1-i]: first T iteration needs the LAST write.
        scop = scop_of(
            "for(i=0; i<6; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=0; i<6; i++) T: C[i][0] = g(A[5-i][0]);"
        )
        pm = compute_pipeline_map(
            scop, scop.statement("S"), scop.statement("T")
        )
        rel = pipeline_relation_as_dict(pm.relation)
        # only the final write anchors anything: a single pair
        assert rel == {(5,): (5,)}

    def test_anti_kind(self):
        # T overwrites cells S read: anti pipeline map.
        scop = scop_of(
            "for(i=0; i<6; i++) S: B[i][0] = f(A[i][0]);\n"
            "for(i=0; i<6; i++) T: A[i][0] = g(C[i][0]);"
        )
        pm = compute_pipeline_map(
            scop, scop.statement("S"), scop.statement("T"), DepKind.ANTI
        )
        assert pm is not None
        rel = pipeline_relation_as_dict(pm.relation)
        assert all(k == v for k, v in rel.items())


class TestPrefixLexmax:
    def test_running_max(self):
        rel = PointRelation(
            np.array([[0, 5], [1, 3], [2, 7], [3, 6]]), 1
        )
        out = prefix_lexmax(rel)
        assert out.pairs.tolist() == [[0, 5], [1, 5], [2, 7], [3, 7]]

    def test_multidim_values(self):
        rel = PointRelation(
            np.array([[0, 1, 9], [1, 0, 99], [2, 2, 0]]), 1
        )
        out = prefix_lexmax(rel)
        assert out.pairs.tolist() == [[0, 1, 9], [1, 1, 9], [2, 2, 0]]

    def test_empty(self):
        rel = PointRelation.empty(1, 1)
        assert prefix_lexmax(rel).is_empty()

    def test_rejects_multivalued(self):
        rel = PointRelation(np.array([[0, 1], [0, 2]]), 1)
        with pytest.raises(ValueError):
            prefix_lexmax(rel)


class TestAgainstDefinition:
    """Cross-check the vectorized algorithm against the paper's definition."""

    KERNELS = [
        (
            "for(i=0; i<7; i++) for(j=0; j<7; j++) S: A[i][j]=f(A[i][j]);\n"
            "for(i=0; i<3; i++) for(j=0; j<3; j++) T: B[i][j]=g(A[2*i][2*j]);"
        ),
        (
            "for(i=0; i<6; i++) for(j=0; j<6; j++) S: A[i][j]=f(A[i][j]);\n"
            "for(i=0; i<5; i++) for(j=0; j<6; j++) T: B[i][j]=g(A[i+1][j]);"
        ),
        (
            "for(i=0; i<8; i++) S: A[i][0]=f(A[i][0]);\n"
            "for(i=0; i<4; i++) T: B[i][0]=g(A[i][0], A[i+4][0]);"
        ),
        (
            "for(i=0; i<6; i++) for(j=0; j<6; j++) S: A[i][j]=f(A[i][j]);\n"
            "for(i=0; i<6; i++) T: B[i][0]=g(A[i][5]);"
        ),
    ]

    @pytest.mark.parametrize("src", KERNELS)
    def test_matches_bruteforce(self, src):
        scop = scop_of(src)
        S, T = scop.statement("S"), scop.statement("T")
        pm = compute_pipeline_map(scop, S, T)
        assert pm is not None
        fast = pipeline_relation_as_dict(pm.relation)
        slow = dict(pipeline_pairs_bruteforce(scop, S, T))
        assert fast == slow
