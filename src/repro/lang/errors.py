"""Diagnostics for the kernel language frontend."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceLocation:
    """1-based line/column position in the kernel source.

    ``end_column`` (exclusive, same line) is filled by the lexer for
    single-line tokens so diagnostics can underline the full lexeme; it
    does not participate in equality.
    """

    line: int
    column: int
    end_column: int | None = field(default=None, compare=False)

    def __init__(self, line: int, column: int, end_column: int | None = None):
        # one per token: writing the instance dict skips the frozen
        # ``__setattr__`` guard, which later assignments still meet
        fields = self.__dict__
        fields["line"] = line
        fields["column"] = column
        fields["end_column"] = end_column

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class FrontendError(Exception):
    """Base class for lexer/parser/semantic errors with a location."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.location = location
        prefix = f"{location}: " if location else ""
        super().__init__(prefix + message)


class LexerError(FrontendError):
    pass


class ParseError(FrontendError):
    pass


class SemanticError(FrontendError):
    """Raised when a syntactically valid program violates SCoP rules."""
