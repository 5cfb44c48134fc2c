"""AST generation from the pipelined schedule tree (Section 5.3).

Lowers the schedule tree to a task-annotated loop AST in the spirit of the
paper's Figure 6: one loop nest per statement iterating its pipeline blocks
in lexicographic order, each block annotated with the dependency tokens the
code generator turns into OpenMP-style ``depend`` clauses.

A *token* is ``(statement name, block end tuple)`` — the printable form of
the ``Q_S`` / ``Q_S^O`` relations evaluated at one block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..pipeline import PipelineInfo
from .build import PIPELINE_MARK, PipelineMarkPayload, build_schedule
from .tree import DomainNode, ExpansionNode, MarkNode, ScheduleTree

Token = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class TaskBlock:
    """One pipeline block — the unit that becomes an OpenMP task."""

    statement: str
    block_id: int
    end: tuple[int, ...]
    iterations: np.ndarray
    in_tokens: tuple[Token, ...]
    out_token: Token

    @property
    def size(self) -> int:
        return self.iterations.shape[0]

    def __str__(self) -> str:
        deps = ", ".join(f"{s}{list(e)}" for s, e in self.in_tokens)
        return (
            f"task {self.statement}#{self.block_id} end={list(self.end)} "
            f"({self.size} iters) in:[{deps}]"
        )


@dataclass(frozen=True)
class TaskLoopNest:
    """The task loop nest of one statement (its pipeline loop + body)."""

    statement: str
    depth: int
    blocks: tuple[TaskBlock, ...]
    #: blocks run in order (the ``funcCount`` self chain of Figure 8);
    #: ``False`` leaves their order to the blocks' own self-tokens
    #: (:func:`repro.tasking.relax_self_chains`) or to a privatization
    #: proof (:meth:`TaskAst.unchained`)
    chained: bool = True

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def total_iterations(self) -> int:
        return sum(b.size for b in self.blocks)


@dataclass(frozen=True)
class TaskAst:
    """Task-annotated AST of the whole pipelined SCoP."""

    nests: tuple[TaskLoopNest, ...]

    def nest(self, statement: str) -> TaskLoopNest:
        for n in self.nests:
            if n.statement == statement:
                return n
        raise KeyError(statement)

    def all_blocks(self) -> list[TaskBlock]:
        return [b for n in self.nests for b in n.blocks]

    def unchained(self, statements) -> "TaskAst":
        """This AST with the nests of ``statements`` marked unchained."""
        return TaskAst(tuple(
            replace(n, chained=False) if n.statement in statements else n
            for n in self.nests
        ))

    def pretty(self) -> str:
        """Figure-6 style rendering of the task AST."""
        lines: list[str] = []
        for nest in self.nests:
            lines.append(
                f"// statement {nest.statement}: {nest.num_blocks} tasks, "
                f"pipeline loop over {nest.depth}-d blocks"
                + ("" if nest.chained else ", unchained")
            )
            lines.append(f"for (b = 0; b < {nest.num_blocks}; b += 1) {{")
            example = nest.blocks[0] if nest.blocks else None
            if example is not None:
                deps = ", ".join(
                    f"{s}@{list(e)}" for s, e in example.in_tokens
                ) or "none"
                lines.append(
                    f"  // task: out {nest.statement}@end(b); "
                    f"in (b=0 shown): {deps}"
                )
            lines.append(f"  for (iter in block b of {nest.statement})")
            lines.append(f"    {nest.statement}(iter);")
            lines.append("}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.pretty()


def generate_task_ast(
    info: PipelineInfo, schedule: ScheduleTree | None = None
) -> TaskAst:
    """Lower a (pipelined) schedule tree to the task-annotated AST.

    The tree defaults to :func:`~repro.schedule.build.build_schedule` of the
    given pipeline info.  Statement order follows the tree's sequence.
    """
    from ..obs.spans import span

    schedule = schedule if schedule is not None else build_schedule(info)
    with span("schedule.astgen"):
        nests: list[TaskLoopNest] = []
        for node in schedule.walk():
            if isinstance(node, DomainNode) and _is_block_domain(node):
                nests.append(_lower_statement(info, node))
        return TaskAst(tuple(nests))


def _is_block_domain(node: DomainNode) -> bool:
    """Block-level domain nodes have an expansion somewhere below them."""
    return any(isinstance(n, ExpansionNode) for n in node.walk())


def _lower_statement(info: PipelineInfo, node: DomainNode) -> TaskLoopNest:
    name = node.statement
    blocking = info.blockings[name]
    payload = _find_payload(node)

    # Pre-compute per-dependency lookup tables: block end -> required end.
    dep_tables: list[tuple[str, dict[tuple[int, ...], tuple[int, ...]]]] = []
    for dep in payload.in_deps:
        table = {
            tuple(int(v) for v in row[: dep.relation.n_in]): tuple(
                int(v) for v in row[dep.relation.n_in :]
            )
            for row in dep.relation.pairs
        }
        dep_tables.append((dep.source, table))

    blocks: list[TaskBlock] = []
    per_block_iters = blocking.iterations_by_block()
    for block_id in range(blocking.num_blocks):
        end = tuple(int(v) for v in blocking.ends.points[block_id])
        iters = per_block_iters[block_id]
        in_tokens = tuple(
            (src, table[end]) for src, table in dep_tables if end in table
        )
        blocks.append(
            TaskBlock(
                statement=name,
                block_id=block_id,
                end=end,
                iterations=iters,
                in_tokens=in_tokens,
                out_token=(name, end),
            )
        )
    depth = blocking.ends.ndim
    return TaskLoopNest(name, depth, tuple(blocks))


def _find_payload(node: DomainNode) -> PipelineMarkPayload:
    for n in node.walk():
        if isinstance(n, MarkNode) and n.name == PIPELINE_MARK:
            return n.payload
    raise ValueError(
        f"statement {node.statement} has no {PIPELINE_MARK!r} mark node"
    )
