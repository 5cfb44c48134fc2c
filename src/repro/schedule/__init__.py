"""Schedule trees, Algorithm 2, and task-AST generation (Section 5.2–5.3)."""

from .astgen import TaskAst, TaskBlock, TaskLoopNest, Token, generate_task_ast
from .legality import (
    IllegalScheduleError,
    LegalityReport,
    PrivatizationCheck,
    ProofFailure,
    Violation,
    check_legality,
    verify_privatization,
)
from .privatize import (
    IDENTITIES,
    PrivatizationError,
    PrivatizationPlan,
    PrivatizedGraphCheck,
    PrivatizedGroup,
    build_privatized_graph,
    join_label,
    plan_from_proofs,
    plan_privatization,
    privatize_info,
    verify_privatized_graph,
)
from .relax import relax
from .serialize import dumps_task_ast, loads_task_ast
from .build import (
    PIPELINE_MARK,
    PipelineMarkPayload,
    build_schedule,
    build_statement_tree,
)
from .tree import (
    BandNode,
    DomainNode,
    ExpansionNode,
    Leaf,
    MarkNode,
    ScheduleNode,
    ScheduleTree,
    SequenceNode,
)

__all__ = [
    "BandNode",
    "DomainNode",
    "IllegalScheduleError",
    "LegalityReport",
    "ExpansionNode",
    "Leaf",
    "MarkNode",
    "PIPELINE_MARK",
    "PipelineMarkPayload",
    "PrivatizationCheck",
    "ProofFailure",
    "ScheduleNode",
    "ScheduleTree",
    "SequenceNode",
    "TaskAst",
    "TaskBlock",
    "TaskLoopNest",
    "Token",
    "Violation",
    "check_legality",
    "verify_privatization",
    "IDENTITIES",
    "PrivatizationError",
    "PrivatizationPlan",
    "PrivatizedGraphCheck",
    "PrivatizedGroup",
    "build_privatized_graph",
    "join_label",
    "plan_from_proofs",
    "plan_privatization",
    "privatize_info",
    "verify_privatized_graph",
    "relax",
    "dumps_task_ast",
    "loads_task_ast",
    "build_schedule",
    "build_statement_tree",
    "generate_task_ast",
]
