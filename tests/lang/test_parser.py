"""Tests for the kernel-language parser."""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ledger.workloads import WORKLOADS, generate
from repro.lang import (
    ArrayAccess,
    Assign,
    BinOp,
    Call,
    FrontendError,
    IntLit,
    Loop,
    ParseError,
    Program,
    SemanticError,
    VarRef,
    expr_reads,
    expr_vars,
    parse,
)
from repro.lang.parser import MAX_NESTING
from repro.workloads import TABLE9
from tests.conftest import reference_parse
from tests.lang.test_fuzz import VALID

KERNELS = Path(__file__).resolve().parents[2] / "examples" / "kernels"

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""


class TestStructure:
    def test_listing1(self):
        prog = parse(LISTING1)
        assert len(prog.nests) == 2
        assert prog.labels() == ["S", "R"]
        outer = prog.nests[0]
        assert outer.var == "i"
        assert isinstance(outer.body[0], Loop)
        inner = outer.body[0]
        assert inner.var == "j"
        stmt = inner.body[0]
        assert isinstance(stmt, Assign)
        assert stmt.target.array == "A"

    def test_depth(self):
        prog = parse(LISTING1)
        assert prog.nests[0].depth() == 2

    def test_braced_body(self):
        prog = parse(
            "for(i=0; i<4; i++) { S: A[i][0] = f(A[i][0]); "
            "T: B[i][0] = g(A[i][0]); }"
        )
        assert prog.labels() == ["S", "T"]

    def test_nested_braces(self):
        prog = parse(
            "for(i=0; i<4; i++) { for(j=0; j<4; j++) { S: A[i][j] = f(A[i][j]); } }"
        )
        assert prog.nests[0].depth() == 2

    def test_auto_labels(self):
        prog = parse(
            "for(i=0; i<2; i++) A[i][0] = f(A[i][0]);\n"
            "for(i=0; i<2; i++) B[i][0] = f(B[i][0]);"
        )
        assert prog.labels() == ["S0", "S1"]

    def test_le_condition(self):
        prog = parse("for(i=0; i<=5; i++) S: A[i][0] = f(A[i][0]);")
        assert not prog.nests[0].upper_strict

    def test_plus_assign_statement(self):
        prog = parse("for(i=0; i<4; i++) S: A[i][0] += B[i][0];")
        stmt = next(prog.statements())
        assert stmt.op == "+="

    def test_step_plus_equals_one(self):
        prog = parse("for(i=0; i<4; i+=1) S: A[i][0] = f(A[i][0]);")
        assert prog.nests[0].var == "i"


class TestExpressions:
    def stmt(self, rhs: str) -> Assign:
        return next(
            parse(f"for(i=0; i<4; i++) S: A[i][0] = {rhs};").statements()
        )

    def test_precedence(self):
        e = self.stmt("1 + 2 * 3").value
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.rhs, BinOp) and e.rhs.op == "*"

    def test_parentheses(self):
        e = self.stmt("(1 + 2) * 3").value
        assert e.op == "*"
        assert isinstance(e.lhs, BinOp) and e.lhs.op == "+"

    def test_unary_minus(self):
        e = self.stmt("-i").value
        assert isinstance(e, BinOp) and e.op == "-"
        assert isinstance(e.lhs, IntLit) and e.lhs.value == 0

    def test_call_with_args(self):
        e = self.stmt("f(A[i][0], 3, i)").value
        assert isinstance(e, Call)
        assert len(e.args) == 3

    def test_call_no_args(self):
        e = self.stmt("f()").value
        assert isinstance(e, Call) and e.args == ()

    def test_nested_access_subscripts(self):
        e = self.stmt("B[i+1][2*i]").value
        assert isinstance(e, ArrayAccess)
        assert len(e.indices) == 2

    def test_expr_reads_collects(self):
        e = self.stmt("f(A[i][0], g(B[i][1]))").value
        reads = expr_reads(e)
        assert [r.array for r in reads] == ["A", "B"]

    def test_expr_vars(self):
        e = self.stmt("f(i + N)").value
        assert expr_vars(e) == {"i", "N"}


class TestErrors:
    @pytest.mark.parametrize(
        "src,msg",
        [
            ("", "empty|expected"),
            ("x = 1;", "top-level"),
            ("for(i=0; j<4; i++) S: A[i][0]=f();", "condition tests"),
            ("for(i=0; i<4; j++) S: A[i][0]=f();", "increment"),
            ("for(i=0; i<4; i+=2) S: A[i][0]=f();", "unit-step"),
            ("for(i=0; i>4; i++) S: A[i][0]=f();", "expected '<'"),
            ("for(i=0; i<4; i++) S: x = f();", "subscripted"),
            ("for(i=0; i<4; i++) S: A[i][0] < f();", "expected"),
            ("for(i=0; i<4; i++) { S: A[i][0]=f();", "unterminated"),
            ("for(i=0; i<4; i++) S: A[i][0] = ;", "unexpected"),
        ],
    )
    def test_bad_programs(self, src, msg):
        with pytest.raises(ParseError, match=msg):
            parse(src)

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse("for(i=0; i<4; i++)\n  S: A[i][0] = ;")
        assert err.value.location is not None
        assert err.value.location.line == 2


# ----------------------------------------------------------------------
# nesting: a ParseError at the token that went too deep
# ----------------------------------------------------------------------
PREFIX = "for(i=0; i<4; i++) S: A[i] = "


def too_deep_at(source):
    with pytest.raises(ParseError, match="nesting deeper than") as err:
        parse(source)
    return err.value.location.line, err.value.location.column


class TestNesting:
    # the loop is one level, so the MAX_NESTING-th opener is one too many
    def test_1200_nested_parentheses(self):
        src = PREFIX + "(" * 1200 + "i" + ")" * 1200 + ";"
        assert too_deep_at(src) == (1, len(PREFIX) + MAX_NESTING)

    def test_3000_unary_minuses(self):
        src = PREFIX + "-" * 3000 + "i;"
        assert too_deep_at(src) == (1, len(PREFIX) + MAX_NESTING)

    def test_a_3000_term_operator_chain(self):
        # each operator of a left-leaning chain is one level deeper
        src = PREFIX + "+".join(["i"] * 3000) + ";"
        assert too_deep_at(src) == (1, len(PREFIX) + 2 * MAX_NESTING)

    def test_calls_and_subscripts_count(self):
        src = PREFIX + "f(" * MAX_NESTING + "i" + ")" * MAX_NESTING + ";"
        assert too_deep_at(src) == (1, len(PREFIX) + 2 * MAX_NESTING)
        src = PREFIX + "B[" * MAX_NESTING + "0" + "]" * MAX_NESTING + ";"
        assert too_deep_at(src) == (1, len(PREFIX) + 2 * MAX_NESTING)

    def test_loops_count(self):
        src = "for(i=0; i<4; i++)\n" * (MAX_NESTING + 1) + "S: A[i] = 1;"
        assert too_deep_at(src) == (MAX_NESTING + 1, 1)

    @pytest.mark.parametrize("opener, closer, levels", [
        ("(", ")", 1), ("-", "", 1), ("f(", ")", 1), ("B[", "]", 1),
        ("- (", ")", 2), ("0+0*(", ")", 3), ("0+", "", 1), ("0*", "", 1),
    ])
    def test_the_bound_itself_parses_like_the_reference(
        self, opener, closer, levels
    ):
        depth = (MAX_NESTING - 1) // levels  # plus the loop
        src = PREFIX + opener * depth + "0" + closer * depth + ";"
        assert_parses_like_the_reference(src)
        with pytest.raises(ParseError, match="nesting deeper than"):
            parse(PREFIX + opener * (depth + 1) + "0" + closer * (depth + 1)
                  + ";")


# ----------------------------------------------------------------------
# labels
# ----------------------------------------------------------------------
class TestLabels:
    def test_auto_labels_skip_explicit_ones(self):
        prog = parse(
            "for(i=0; i<4; i++) S0: A[i] = 1;\n"
            "for(i=0; i<4; i++) B[i] = A[i];\n"
            "for(i=0; i<4; i++) C[i] = B[i];\n"
            "for(i=0; i<4; i++) S2: D[i] = C[i];"
        )
        assert prog.labels() == ["S0", "S1", "S3", "S2"]

    def test_a_later_explicit_label_is_skipped_too(self):
        prog = parse(
            "for(i=0; i<4; i++) B[i] = 1;\n"
            "for(i=0; i<4; i++) S0: A[i] = B[i];"
        )
        assert prog.labels() == ["S1", "S0"]

    def test_equal_explicit_labels_are_a_semantic_error(self):
        with pytest.raises(
            SemanticError, match="2:20: duplicate statement label 'T'"
        ) as err:
            parse(
                "for(i=0; i<4; i++) T: A[i] = 1;\n"
                "for(i=0; i<4; i++) T: B[i] = A[i];\n"
                "for(i=0; i<4; i++) T: C[i] = B[i];"
            )
        assert err.value.location.end_column == 21

    def test_a_parse_error_wins(self):
        with pytest.raises(ParseError, match="expected ';'"):
            parse(
                "for(i=0; i<4; i++) T: A[i] = 1;\n"
                "for(i=0; i<4; i++) T: B[i] = A[i]"
            )


# ----------------------------------------------------------------------
# the one-pass parser against the recursive-descent parser it replaced
# ----------------------------------------------------------------------
def where(location):
    if location is None:
        return None
    return location.line, location.column, location.end_column


def located(node):
    """``(node type, line, column, end column)`` of every node under
    ``node``, pre-order: AST equality ignores the locations."""
    out = [(type(node).__name__, where(getattr(node, "location", None)))]
    for f in dataclasses.fields(node):
        if f.name == "location":
            continue
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(child):
                out += located(child)
    return out


def outcome(parser, source):
    try:
        program = parser(source)
    except FrontendError as exc:
        return type(exc), str(exc), where(exc.location)
    return program, located(program), program.source


def assert_parses_like_the_reference(source):
    want, got = outcome(reference_parse, source), outcome(parse, source)
    labels = want[0].labels() if isinstance(want[0], Program) else []
    if len(set(labels)) < len(labels):
        # the reference repeats a label: an auto label it gave an
        # explicit one's name is renamed, two explicit ones are refused
        if got[0] is SemanticError:
            assert "duplicate statement label" in got[1]
        else:
            assert len(set(got[0].labels())) == len(labels)
        return
    assert got == want


def ledger_sources():
    return sorted({
        case.source
        for name in sorted(WORKLOADS)
        for seed in range(1, 21)
        for case in generate(name, seed).cases
    })


@pytest.mark.parametrize(
    "source",
    [TABLE9[name].source(n) for name in sorted(TABLE9) for n in (6, 14)]
    + [p.read_text() for p in sorted(KERNELS.glob("*.c"))]
    + ledger_sources(),
)
def test_kernels_parse_like_the_reference(source):
    assert_parses_like_the_reference(source)
    assert_parses_like_the_reference(source.replace("\n", "\r\n"))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
@example("for(i=0; i<\u00b2; i++) S: A[i] = f(A[i]);")
@example("for(i=0; i<8; i++) S: A[i] = -(-i) + -f(-1, B[-i]) % 2;")
@example("for(\u00e9=0; \u00e9<8; \u00e9+=1) { S: A[\u00e9] -= 1; }")
@example("for(i=0; i<8; i++) S: A[i] = 1;\nfor(i=0; i<8; i++) S: B[i] = 1;")
@example("for(i=0; i<8; i++) B[i] = 1; for(i=0; i<8; i++) S0: A[i] = 1;")
@example("for(i=0; i<8; i++ /* x */ ")
def test_text_parses_like_the_reference(text):
    assert_parses_like_the_reference(text)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, len(VALID) - 1),
    st.sampled_from(list("()[]{};:=+-*/<>N7 ")),
    st.integers(0, 2**31 - 1),
)
def test_mutated_kernels_parse_like_the_reference(pos, char, seed):
    mode = random.Random(seed).choice(["replace", "insert", "delete"])
    if mode == "replace":
        text = VALID[:pos] + char + VALID[pos + 1 :]
    elif mode == "insert":
        text = VALID[:pos] + char + VALID[pos:]
    else:
        text = VALID[:pos] + VALID[pos + 1 :]
    assert_parses_like_the_reference(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="0123456789+-*/%() ij,f[]A", max_size=40))
def test_expression_fragments_parse_like_the_reference(fragment):
    assert_parses_like_the_reference(
        f"for(i=0; i<8; i++) S: A[{fragment}][0] = f({fragment});"
    )
