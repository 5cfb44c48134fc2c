"""Token definitions for the kernel language."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import SourceLocation


class TokenKind(Enum):
    IDENT = "identifier"
    NUMBER = "number"
    KW_FOR = "for"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    SEMI = ";"
    COLON = ":"
    COMMA = ","
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    PLUS_PLUS = "++"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EOF = "<eof>"


KEYWORDS = {"for": TokenKind.KW_FOR}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation

    def __init__(self, kind: TokenKind, text: str, location: SourceLocation):
        # one per token, like ``SourceLocation``: see its ``__init__``
        fields = self.__dict__
        fields["kind"] = kind
        fields["text"] = text
        fields["location"] = location

    @property
    def value(self) -> int:
        if self.kind is not TokenKind.NUMBER:
            raise ValueError("value of a non-number token")
        return int(self.text)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.location}"
