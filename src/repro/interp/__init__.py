"""Kernel execution: array store, statement compilation, reference interpreter."""

from .compile import (
    COMPOUND_OPS,
    CompiledStatement,
    StatementFn,
    compile_scop,
    compile_statement,
    elementwise,
    emit_closure_spec,
    is_elementwise,
)
from .executor import BACKENDS, ExecutionStats, execute_measured
from .fused import (
    REDUCTION_IDENTITY,
    ClosureSpec,
    FusedKernel,
    FusedProgram,
    NotFusable,
    StatementSpec,
    build_closure,
    closure_source,
    fuse_scop,
    fusion_legal_pair,
    loop_source,
    rectangles,
)
from .interp import DEFAULT_FUNCS, Interpreter
from .plan import GROUP_UFUNCS, apply_combine
from .privexec import execute_privatized, privatized_matches
from .store import ArrayStore, ArrayView, SharedArrayStore

__all__ = [
    "ArrayStore",
    "ArrayView",
    "BACKENDS",
    "COMPOUND_OPS",
    "CompiledStatement",
    "DEFAULT_FUNCS",
    "ExecutionStats",
    "execute_measured",
    "GROUP_UFUNCS",
    "apply_combine",
    "execute_privatized",
    "privatized_matches",
    "Interpreter",
    "NotFusable",
    "REDUCTION_IDENTITY",
    "ClosureSpec",
    "FusedKernel",
    "FusedProgram",
    "StatementSpec",
    "build_closure",
    "closure_source",
    "emit_closure_spec",
    "fuse_scop",
    "fusion_legal_pair",
    "loop_source",
    "SharedArrayStore",
    "StatementFn",
    "compile_scop",
    "compile_statement",
    "elementwise",
    "is_elementwise",
    "rectangles",
]
