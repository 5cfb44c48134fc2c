"""Tests for SCoP extraction."""

import pytest

from repro.lang import parse
from repro.lang.errors import SemanticError
from repro.presburger import AffineExpr
from repro.scop import AccessKind, extract_scop, to_affine


class TestDomains:
    def test_listing1_domains(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        assert len(S.points) == 19 * 19
        assert len(R.points) == 9 * 9
        assert S.points.lexmin() == (0, 0)
        assert S.points.lexmax() == (18, 18)

    def test_triangular_nest(self):
        scop = extract_scop(
            parse("for(i=0; i<5; i++) for(j=0; j<=i; j++) S: A[i][j]=f(A[i][j]);")
        )
        pts = scop.statement("S").points
        assert len(pts) == 15
        assert pts.contains((4, 4))
        assert not pts.contains((3, 4))

    def test_lower_bound_in_outer_var(self):
        scop = extract_scop(
            parse("for(i=0; i<4; i++) for(j=i; j<4; j++) S: A[i][j]=f(A[i][j]);")
        )
        pts = scop.statement("S").points
        assert len(pts) == 10
        assert not pts.contains((2, 1))

    def test_param_instantiation(self):
        scop = extract_scop(
            parse("for(i=0; i<N; i++) S: A[i][0] = f(A[i][0]);"), {"N": 7}
        )
        assert len(scop.statement("S").points) == 7
        assert scop.params == {"N": 7}

    def test_nest_and_position_indices(self, listing3_scop):
        names = [(s.name, s.nest_index, s.position) for s in listing3_scop]
        assert names == [("S", 0, 0), ("R", 1, 1), ("U", 2, 2)]


class TestAccesses:
    def test_write_and_reads(self, listing1_scop):
        R = listing1_scop.statement("R")
        assert len(R.writes) == 1
        assert R.writes[0].array == "B"
        read_arrays = [a.array for a in R.reads]
        assert read_arrays == ["A", "B", "B", "B"]

    def test_plus_assign_adds_self_read(self):
        scop = extract_scop(
            parse("for(i=0; i<4; i++) S: A[i][0] += B[i][0];")
        )
        S = scop.statement("S")
        assert [a.array for a in S.reads] == ["A", "B"]
        assert S.accesses[0].kind is AccessKind.WRITE

    def test_array_ranks_recorded(self, listing1_scop):
        assert listing1_scop.arrays == {"A": 2, "B": 2}

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SemanticError, match="rank"):
            extract_scop(
                parse("for(i=0; i<4; i++) S: A[i][0] = f(A[i]);")
            )

    def test_array_extent_covers_shifted_reads(self, listing1_scop):
        extent = listing1_scop.array_extent("A")
        assert extent[0] == (0, 19)  # A[i+1] reaches row 19
        assert extent[1] == (0, 19)


class TestToAffine:
    def test_folds_params(self):
        e = to_affine(parse("for(i=0; i<N/2-1; i++) S: A[i][0]=f(A[i][0]);")
                      .nests[0].upper, {"i"}, {"N": 21})
        assert e.is_constant and e.const == 9  # 21 // 2 - 1

    def test_division_by_variable_rejected(self):
        prog = parse("for(i=0; i<8; i++) S: A[i/2][0] = f(A[i][0]);")
        with pytest.raises(SemanticError, match="not affine"):
            extract_scop(prog)

    def test_variable_product_rejected(self):
        prog = parse("for(i=0; i<8; i++) S: A[i*i][0] = f(A[i][0]);")
        with pytest.raises(SemanticError, match="non-affine"):
            extract_scop(prog)

    def test_unknown_variable_rejected(self):
        prog = parse("for(i=0; i<8; i++) S: A[k][0] = f(A[i][0]);")
        with pytest.raises(SemanticError, match="unknown variable"):
            extract_scop(prog)

    def test_missing_param_rejected(self):
        prog = parse("for(i=0; i<N; i++) S: A[i][0] = f(A[i][0]);")
        with pytest.raises(SemanticError):
            extract_scop(prog)  # N unbound

    def test_division_by_zero(self):
        prog = parse("for(i=0; i<8/0; i++) S: A[i][0] = f(A[i][0]);")
        with pytest.raises(SemanticError, match="zero"):
            extract_scop(prog)

    def test_constant_arithmetic(self):
        e = AffineExpr.var("i") * 2 + 3
        assert to_affine(
            parse("for(i=0; i<4; i++) S: A[2*i+3][0]=f(A[i][0]);")
            .nests[0].body[0].target.indices[0],
            {"i"},
            {},
        ) == e


class TestStructuralErrors:
    def test_shadowed_loop_var(self):
        prog = parse(
            "for(i=0; i<4; i++) for(i=0; i<4; i++) S: A[i][0]=f(A[i][0]);"
        )
        with pytest.raises(SemanticError, match="shadows"):
            extract_scop(prog)

    def test_loop_var_collides_with_param(self):
        prog = parse("for(N=0; N<4; N++) S: A[N][0]=f(A[N][0]);")
        with pytest.raises(SemanticError, match="collides"):
            extract_scop(prog, {"N": 4})

    def test_duplicate_labels(self):
        # ``parse`` refuses equal labels (tests/lang/test_parser.py); an
        # AST built without it still meets the SCoP's own check
        from tests.conftest import reference_parse

        prog = reference_parse(
            "for(i=0; i<2; i++) S: A[i][0]=f(A[i][0]);\n"
            "for(i=0; i<2; i++) S: B[i][0]=f(B[i][0]);"
        )
        with pytest.raises(ValueError, match="duplicate"):
            extract_scop(prog)
