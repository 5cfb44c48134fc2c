"""Tests for dependence analysis."""

import numpy as np
import pytest

from repro.lang import parse
from repro.scop import (
    DepKind,
    build_dependence_graph,
    carried_levels,
    dependence_relation,
    extract_scop,
    iter_dependences,
    parallel_levels,
)


def scop_of(src: str, **params):
    return extract_scop(parse(src), params or None)


class TestCrossNestFlow:
    def test_copy_chain(self, copy_scop):
        S, T = copy_scop.statement("S"), copy_scop.statement("T")
        rel = dependence_relation(copy_scop, S, T, DepKind.FLOW)
        # T[i][j] reads exactly A[i][j] written by S[i][j]
        assert len(rel) == 64
        assert np.array_equal(rel.in_part, rel.out_part)

    def test_direction_matters(self, copy_scop):
        S, T = copy_scop.statement("S"), copy_scop.statement("T")
        rel = dependence_relation(copy_scop, T, S, DepKind.FLOW)
        assert rel.is_empty()

    def test_strided_read(self, listing1_scop_small):
        S = listing1_scop_small.statement("S")
        R = listing1_scop_small.statement("R")
        rel = dependence_relation(listing1_scop_small, S, R, DepKind.FLOW)
        assert rel.lookup((1, 2)).tolist() == [[1, 4]]  # R[1,2] needs A[1,4]


class TestSelfDeps:
    def test_flow_self_dep_strict_order(self):
        scop = scop_of(
            "for(i=1; i<6; i++) S: A[i][0] = f(A[i-1][0]);"
        )
        S = scop.statement("S")
        rel = dependence_relation(scop, S, S, DepKind.FLOW)
        # A[i-1] written at i-1 (for i-1 >= 1); pairs (i -> i-1)
        assert len(rel) == 4
        assert all(row[1] == row[0] - 1 for row in rel.pairs.tolist())

    def test_same_iteration_not_a_dep(self):
        scop = scop_of("for(i=0; i<5; i++) S: A[i][0] = f(A[i][0]);")
        S = scop.statement("S")
        assert dependence_relation(scop, S, S, DepKind.FLOW).is_empty()

    def test_anti_dep(self):
        scop = scop_of("for(i=0; i<5; i++) S: A[i][0] = f(A[i+1][0]);")
        S = scop.statement("S")
        anti = dependence_relation(scop, S, S, DepKind.ANTI)
        # read at i of cell i+1, overwritten at i+1: anti (i+1 waits for i)
        assert len(anti) == 4
        flow = dependence_relation(scop, S, S, DepKind.FLOW)
        assert flow.is_empty()

    def test_output_dep_injective_write_has_none(self):
        scop = scop_of("for(i=0; i<6; i++) S: A[i][0] = f(B[i][0]);")
        S = scop.statement("S")
        assert dependence_relation(scop, S, S, DepKind.OUTPUT).is_empty()

    def test_output_dep_across_nests(self):
        scop = scop_of(
            "for(i=0; i<4; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=0; i<4; i++) T: A[i][0] = g(C[i][0]);"
        )
        S, T = scop.statement("S"), scop.statement("T")
        rel = dependence_relation(scop, S, T, DepKind.OUTPUT)
        assert len(rel) == 4


class TestSameNestStatements:
    SRC = (
        "for(i=0; i<4; i++) {\n"
        "  S: A[i][0] = f(A[i][0]);\n"
        "  T: B[i][0] = g(A[i][0]);\n"
        "}"
    )

    def test_textual_order_same_iteration(self):
        scop = scop_of(self.SRC)
        S, T = scop.statement("S"), scop.statement("T")
        rel = dependence_relation(scop, S, T, DepKind.FLOW)
        assert len(rel) == 4  # T[i] reads what S[i] just wrote
        assert np.array_equal(rel.in_part, rel.out_part)

    def test_no_backwards_pair(self):
        scop = scop_of(self.SRC)
        S, T = scop.statement("S"), scop.statement("T")
        assert dependence_relation(scop, T, S, DepKind.ANTI).is_empty()


class TestAnalyzeAll:
    def test_listing3_flow_edges(self, listing3_scop):
        found = list(iter_dependences(listing3_scop, (DepKind.FLOW,)))
        pairs = {(s.name, t.name) for s, t, _, _ in found if s is not t}
        assert pairs == {("S", "R"), ("S", "U"), ("R", "U")}
        assert all(kind is DepKind.FLOW for _, _, kind, _ in found)
        # the iterator is the table's non-empty entries, nothing recomputed
        table = listing3_scop.dependence_table()
        for s, t, kind, rel in found:
            assert len(rel) > 0
            assert table[(s.name, t.name, kind)] is rel

    def test_get_missing_returns_empty(self, listing1_scop_small):
        scop = listing1_scop_small
        R, S = scop.statement("R"), scop.statement("S")
        rel = dependence_relation(scop, R, S)
        assert rel.is_empty()
        assert (rel.n_in, rel.n_out) == (S.depth, R.depth)
        assert all(
            (s.name, t.name) != ("R", "S") for s, t, _, _ in iter_dependences(scop)
        )

    def test_carried_dependence_against_textual_order(self):
        # T feeds the *next* iteration's S: a real dependence whose source
        # is textually after its target
        scop = scop_of(
            "for(i=1; i<6; i++) { S: A[i] = f(B[i-1]); T: B[i] = g(A[i]); }"
        )
        edges = {
            (e.source, e.target, e.kind): e.pairs
            for e in build_dependence_graph(scop).edges
        }
        assert edges == {
            ("S", "T", DepKind.FLOW): 5,
            ("T", "S", DepKind.FLOW): 4,
        }


class TestParallelLevels:
    def test_fully_parallel_nest(self):
        scop = scop_of(
            "for(i=0; i<4; i++) for(j=0; j<4; j++) S: A[i][j] = f(B[i][j]);"
        )
        assert parallel_levels(scop, 0) == [0, 1]
        assert carried_levels(scop, 0) == set()

    def test_inner_sequential(self):
        scop = scop_of(
            "for(i=0; i<4; i++) for(j=1; j<4; j++) "
            "S: A[i][j] = f(A[i][j-1]);"
        )
        assert parallel_levels(scop, 0) == [0]
        assert carried_levels(scop, 0) == {1}

    def test_outer_sequential(self):
        scop = scop_of(
            "for(i=1; i<4; i++) for(j=0; j<4; j++) "
            "S: A[i][j] = f(A[i-1][j]);"
        )
        assert parallel_levels(scop, 0) == [1]

    def test_listing1_fully_sequential(self, listing1_scop_small):
        assert parallel_levels(listing1_scop_small, 0) == []
        assert parallel_levels(listing1_scop_small, 1) == []

    def test_empty_nest_index(self, listing1_scop_small):
        assert parallel_levels(listing1_scop_small, 7) == []
