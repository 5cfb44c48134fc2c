"""C-like kernel language frontend (Clang/LLVM-IR substitute).

Parses the loop-nest kernels of the paper's listings into an AST that
:mod:`repro.scop` turns into a polyhedral SCoP.
"""

from .ast import (
    ArrayAccess,
    Assign,
    BinOp,
    Call,
    Expr,
    IntLit,
    Loop,
    Program,
    VarRef,
    expr_reads,
    expr_vars,
    walk_expr,
)
from .errors import (
    FrontendError,
    LexerError,
    ParseError,
    SemanticError,
    SourceLocation,
)
from .lexer import Lexer, tokenize
from .parser import parse

__all__ = [
    "ArrayAccess",
    "Assign",
    "BinOp",
    "Call",
    "Expr",
    "FrontendError",
    "IntLit",
    "Lexer",
    "LexerError",
    "Loop",
    "ParseError",
    "Program",
    "SemanticError",
    "SourceLocation",
    "VarRef",
    "expr_reads",
    "expr_vars",
    "parse",
    "tokenize",
    "walk_expr",
]
