"""Lexer for the kernel language: one compiled pattern, matched once per
token from the end of the last.

The language is the C-like subset used in the paper's listings: ``for``
loops, labelled assignment statements, array accesses, integer arithmetic,
and function calls.  Whitespace is `` \\t\\r\\n``; ``//`` line comments and
``/* */`` block comments are skipped.  An identifier starts with a letter
(``str.isalpha``) or ``_`` and continues with ``str.isalnum`` characters or
``_``; a number is a run of decimal digits (the characters ``int`` reads).
Two-character operators win over one-character ones.
"""

from __future__ import annotations

import re

from .errors import LexerError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

#: operator text -> kind (no other kind's text matches an operator)
_OPERATORS = {kind.value: kind for kind in TokenKind}

#: Trivia, then at most one token, each match starting where the last
#: ended.  The token is optional, so a match never backtracks into the
#: trivia; an unterminated ``/*`` ends the trivia at the comment, and
#: ``/(?!\*)`` keeps it out of the operators.  A match without a token
#: means end of input, an unterminated comment or an unexpected
#: character.  ``\w`` is ``str.isalnum`` or ``_`` and ``\d`` is
#: ``str.isdecimal``; ``[^\W\d]`` also admits non-decimal digits and
#: numerals, refused below.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*)"
    r"(?:([^\W\d]\w*)|(\d+)|([-+*]=|\+\+|[<>]=?|/(?!\*)|[-+*%=()\[\]{};:,]))?",
    re.DOTALL,
)


class Lexer:
    """Converts kernel source text into a token stream."""

    def __init__(self, source: str):
        self.source = source

    def tokenize(self) -> list[Token]:
        source = self.source
        tokens: list[Token] = []
        append = tokens.append
        line, line_start, pos = 1, 0, 0  # line_start: offset of column 1
        # matches are contiguous up to the first without a token, so
        # offsets are running sums of the matched lengths
        for trivia, name, number, op in _TOKEN.findall(source):
            if trivia:
                pos += len(trivia)
                newlines = trivia.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos - len(trivia) + trivia.rindex("\n") + 1
            column = pos - line_start + 1
            if name:
                text = name
                if not (text[0].isalpha() or text[0] == "_"):
                    break
                kind = KEYWORDS.get(text, TokenKind.IDENT)
            elif number:
                text, kind = number, TokenKind.NUMBER
            elif op:
                text, kind = op, _OPERATORS[op]
            else:
                break
            pos += len(text)
            end = column + len(text)
            append(Token(kind, text, SourceLocation(line, column, end)))
        loc = SourceLocation(line, pos - line_start + 1)
        if pos == len(source):
            append(Token(TokenKind.EOF, "", loc))
            return tokens
        if source.startswith("/*", pos):
            raise LexerError("unterminated block comment", loc)
        raise LexerError(f"unexpected character {source[pos]!r}", loc)


def tokenize(source: str) -> list[Token]:
    """Tokenize kernel source text, ending with an EOF token."""
    return Lexer(source).tokenize()
