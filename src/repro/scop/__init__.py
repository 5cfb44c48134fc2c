"""SCoP extraction and dependence analysis (Polly-analysis substitute)."""

from .access import Access, AccessKind
from .dataflow import DataflowResult, analyze_dataflow
from .ddg import DepEdge, DependenceGraph, build_dependence_graph
from .deps import (
    DependenceTable,
    DepKind,
    carried_levels,
    dependence_relation,
    dependences,
    iter_dependences,
    parallel_levels,
)
from .extract import extract_scop, to_affine
from .scop import Scop, ScopStatement
from .validate import InvalidScopError, ValidationReport, validate_scop

__all__ = [
    "Access",
    "AccessKind",
    "DataflowResult",
    "DepEdge",
    "DepKind",
    "DependenceGraph",
    "DependenceTable",
    "InvalidScopError",
    "Scop",
    "ScopStatement",
    "ValidationReport",
    "analyze_dataflow",
    "build_dependence_graph",
    "carried_levels",
    "dependence_relation",
    "dependences",
    "extract_scop",
    "iter_dependences",
    "parallel_levels",
    "to_affine",
    "validate_scop",
]
