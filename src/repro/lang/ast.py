"""Abstract syntax tree of the kernel language.

The AST mirrors the paper's listings: a program is a sequence of perfectly
or imperfectly nested ``for`` loops whose leaves are labelled array
assignments (``S: A[i][j] = f(...);``).  Loop bounds and subscripts are
integer expressions; right-hand sides may additionally contain opaque
function calls, which model the compute-intensive kernels of Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import SourceLocation

Expr = Union["IntLit", "VarRef", "BinOp", "ArrayAccess", "Call"]


@dataclass(frozen=True)
class IntLit:
    value: int
    location: SourceLocation | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VarRef:
    name: str
    location: SourceLocation | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / %
    lhs: Expr
    rhs: Expr
    location: SourceLocation | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class ArrayAccess:
    array: str
    indices: tuple[Expr, ...]
    location: SourceLocation | None = field(default=None, compare=False)

    def __str__(self) -> str:
        subs = "".join(f"[{i}]" for i in self.indices)
        return f"{self.array}{subs}"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple[Expr, ...]
    location: SourceLocation | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Assign:
    """A labelled assignment statement, the unit of polyhedral analysis."""

    label: str
    target: ArrayAccess
    op: str  # a key of repro.lang.tokens.ASSIGN_OPS
    value: Expr
    location: SourceLocation | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.label}: {self.target} {self.op} {self.value};"


@dataclass(frozen=True)
class Loop:
    """A ``for`` loop with affine bounds and unit step.

    ``upper_strict`` records whether the source said ``<`` (True) or ``<=``.
    """

    var: str
    lower: Expr
    upper: Expr
    upper_strict: bool
    body: tuple[Union["Loop", Assign], ...]
    location: SourceLocation | None = field(default=None, compare=False)

    def statements(self) -> Iterator[Assign]:
        for item in self.body:
            if isinstance(item, Loop):
                yield from item.statements()
            else:
                yield item

    def depth(self) -> int:
        inner = [item.depth() for item in self.body if isinstance(item, Loop)]
        return 1 + (max(inner) if inner else 0)


@dataclass(frozen=True)
class Program:
    """A sequence of top-level loop nests."""

    nests: tuple[Loop, ...]
    source: str | None = field(default=None, compare=False)

    def statements(self) -> Iterator[Assign]:
        for nest in self.nests:
            yield from nest.statements()

    def labels(self) -> list[str]:
        return [s.label for s in self.statements()]


# ----------------------------------------------------------------------
# traversal helpers
# ----------------------------------------------------------------------
def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.lhs)
        yield from walk_expr(expr.rhs)
    elif isinstance(expr, ArrayAccess):
        for idx in expr.indices:
            yield from walk_expr(idx)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expr(arg)


def expr_reads(expr: Expr) -> list[ArrayAccess]:
    """All array accesses appearing in an expression (in source order)."""
    return [e for e in walk_expr(expr) if isinstance(e, ArrayAccess)]


def expr_vars(expr: Expr) -> set[str]:
    """Names of scalar variables referenced by an expression."""
    return {e.name for e in walk_expr(expr) if isinstance(e, VarRef)}
