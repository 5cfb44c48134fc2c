"""Tests for the kernel-language lexer."""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import LexerError, SourceLocation, tokenize
from repro.lang.lexer import _TOKEN
from repro.lang.tokens import Token, TokenKind
from repro.workloads import TABLE9
from tests.conftest import reference_tokenize

KERNELS = Path(__file__).resolve().parents[2] / "examples" / "kernels"


def kinds(src: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(src)][:-1]  # drop EOF


class TestTokens:
    def test_identifier_and_keyword(self):
        toks = tokenize("for foo")
        assert toks[0].kind is TokenKind.KW_FOR
        assert toks[1].kind is TokenKind.IDENT
        assert toks[1].text == "foo"

    def test_number(self):
        toks = tokenize("12345")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == 12345

    def test_value_on_non_number_raises(self):
        with pytest.raises(ValueError):
            tokenize("x")[0].value

    def test_two_char_operators(self):
        assert kinds("++ += <= >=") == [
            TokenKind.PLUS_PLUS,
            TokenKind.PLUS_ASSIGN,
            TokenKind.LE,
            TokenKind.GE,
        ]

    def test_every_assignment_operator_is_one_token(self):
        from repro.lang.tokens import ASSIGN_OPS

        for op in ASSIGN_OPS:
            assert kinds(f"x{op}y") == [
                TokenKind.IDENT, TokenKind(op), TokenKind.IDENT,
            ], op

    def test_one_char_operators(self):
        assert kinds("( ) [ ] { } ; : , = + - * / % < >") == [
            TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACKET,
            TokenKind.RBRACKET, TokenKind.LBRACE, TokenKind.RBRACE,
            TokenKind.SEMI, TokenKind.COLON, TokenKind.COMMA,
            TokenKind.ASSIGN, TokenKind.PLUS, TokenKind.MINUS,
            TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT,
            TokenKind.LT, TokenKind.GT,
        ]

    def test_plus_plus_vs_plus(self):
        assert kinds("i++ + 1") == [
            TokenKind.IDENT,
            TokenKind.PLUS_PLUS,
            TokenKind.PLUS,
            TokenKind.NUMBER,
        ]

    def test_underscore_identifiers(self):
        toks = tokenize("_foo bar_2")
        assert toks[0].text == "_foo"
        assert toks[1].text == "bar_2"

    def test_eof_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.EOF


class TestTrivia:
    def test_line_comment(self):
        assert kinds("x // comment here\ny") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment(self):
        assert kinds("x /* multi\nline */ y") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
        ]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexerError, match="unterminated"):
            tokenize("x /* oops")

    def test_unterminated_block_comment_is_located_at_its_start(self):
        with pytest.raises(LexerError) as err:
            tokenize("x\n  /*/ y")
        assert str(err.value) == "2:3: unterminated block comment"

    def test_whitespace_variants(self):
        assert kinds("a\tb\r\nc") == [TokenKind.IDENT] * 3


class TestLocations:
    def test_line_column_tracking(self):
        toks = tokenize("ab\n  cd")
        assert (toks[0].location.line, toks[0].location.column) == (1, 1)
        assert (toks[1].location.line, toks[1].location.column) == (2, 3)

    def test_error_has_location(self):
        with pytest.raises(LexerError) as err:
            tokenize("a\n  @")
        assert err.value.location.line == 2
        assert err.value.location.column == 3

    def test_str(self):
        assert "1:1" in str(tokenize("x")[0])


class TestUnicode:
    def test_a_digit_int_cannot_read_is_an_unexpected_character(self):
        with pytest.raises(LexerError) as err:
            tokenize("for(i=0; i<\u00b2; i++)")
        assert str(err.value) == "1:12: unexpected character '\u00b2'"
        with pytest.raises(LexerError, match="1:2: unexpected"):
            tokenize("1\u00b2")  # a number stops at the first such digit

    def test_decimal_digits_of_any_script_are_numbers(self):
        (tok, _eof) = tokenize("\u0663")
        assert tok.kind is TokenKind.NUMBER and tok.value == 3

    def test_identifiers_start_with_a_letter(self):
        toks = tokenize("\u00e9t\u00e9 x\u00b2\u2167")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["\u00e9t\u00e9", "x\u00b2\u2167"]
        with pytest.raises(LexerError, match="unexpected character '\u2167'"):
            tokenize("\u2167")  # a numeral continues an identifier only

    def test_form_feed_is_not_whitespace(self):
        with pytest.raises(LexerError, match="1:3: unexpected"):
            tokenize("a \f")


class TestTokenType:
    def test_tokens_and_locations_stay_immutable(self):
        tok = tokenize("x")[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            tok.text = "y"
        with pytest.raises(dataclasses.FrozenInstanceError):
            tok.location.column = 2

    def test_end_column_is_out_of_equality(self):
        assert SourceLocation(1, 2, 3) == SourceLocation(1, 2)
        assert hash(SourceLocation(1, 2, 3)) == hash(SourceLocation(1, 2))
        assert tokenize("ab")[0] == Token(
            TokenKind.IDENT, "ab", SourceLocation(1, 1)
        )
        assert tokenize("ab")[0].location.end_column == 3


# ----------------------------------------------------------------------
# the one-pattern scan against the character lexer it replaced
# ----------------------------------------------------------------------
def lexed(source):
    """``(kind, text, line, column, end_column)`` per token, or the
    error's message and location."""
    try:
        return [
            (t.kind, t.text, t.location.line, t.location.column,
             t.location.end_column)
            for t in tokenize(source)
        ]
    except LexerError as exc:
        return str(exc), exc.location.line, exc.location.column


def assert_lexes_like_the_reference(source):
    tokens = []
    try:
        for tok in reference_tokenize(source):
            tokens.append(tok)
    except LexerError as exc:
        expected = str(exc), exc.location.line, exc.location.column
    else:
        expected = tokens
    unreadable = [
        t for t in tokens
        if t[0] is TokenKind.NUMBER and not t[1].isdecimal()
    ]
    if unreadable:
        # the reference lexed a digit ``int`` refuses as part of a
        # number: the first such digit is an unexpected character now
        _, text, line, column, _ = unreadable[0]
        at = column + next(
            k for k, c in enumerate(text) if not c.isdecimal()
        )
        expected = (
            f"{line}:{at}: unexpected character {text[at - column]!r}",
            line, at,
        )
    assert lexed(source) == expected


@pytest.mark.parametrize(
    "source",
    [TABLE9[name].source(n) for name in sorted(TABLE9) for n in (6, 14)]
    + [p.read_text() for p in sorted(KERNELS.glob("*.c"))],
)
def test_kernels_lex_like_the_reference(source):
    assert_lexes_like_the_reference(source)
    assert_lexes_like_the_reference(source.replace("\n", "\r\n"))


FRAGMENTS = st.sampled_from([
    "for", "i", "_x1", "A", "\u00e9", "\u00b2", "\u0663", "\u2167", "0",
    "42", "(", ")", "[", "]", "{", "}", ";", ":", ",", "=", "+=", "-=",
    "*=", "++", "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "<>",
    " ", "\t", "\n", "\r\n", "\f", "//", "// c\n", "/*", "*/",
    "/* c\n */", "/*/", "@", "$",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(FRAGMENTS, max_size=24).map("".join) | st.text(max_size=40))
@example("x /* oops")
@example("for(i=0; i<\u00b2; i++) S: A[i] = f(A[i]);")
@example("a\r\n  b /* \n */ \u0663\u00b2")
def test_text_lexes_like_the_reference(source):
    assert_lexes_like_the_reference(source)


def test_pattern_compiles_on_python_3_10():
    """The package supports Python 3.10, whose ``re`` has no possessive
    quantifiers or atomic groups (3.11): the lexer would not import."""
    assert not re.search(r"(?<!\\)[*+?}]\+|\(\?>", _TOKEN.pattern)
