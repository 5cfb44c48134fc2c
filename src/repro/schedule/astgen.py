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
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class TaskArrays:
    """The task AST as flat arrays — what lowering, ``mergeable``, the
    task-graph edges and the artifact store read.

    Blocks have global ids in AST order (nests × blocks).  Per nest, the
    table ``statements`` / ``depths`` / ``chained`` and ``starts`` (its
    first global block id; one entry more than nests).  Per block, its
    iteration array's ``shapes`` row (rows, cols; cols ``-1`` marks a
    1-D array) and ``offsets`` into ``flat``, every block's iterations
    concatenated.  ``ends`` concatenates each nest's ``(blocks, depth)``
    block ends.  A block's in-tokens are its producers' global ids,
    ``indices[indptr[g]:indptr[g + 1]]`` (CSR), in token order.
    """

    statements: tuple[str, ...]
    depths: tuple[int, ...]
    chained: tuple[bool, ...]
    starts: np.ndarray
    shapes: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray
    ends: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.starts[-1])

    def blocks(self, k: int) -> range:
        """Global ids of nest ``k``'s blocks."""
        return range(int(self.starts[k]), int(self.starts[k + 1]))

    def iterations(self, g: int) -> np.ndarray:
        """Block ``g``'s iteration array: a view into ``flat``."""
        rows, cols = self.shapes[g].tolist()
        iters = self.flat[self.offsets[g] : self.offsets[g + 1]]
        return iters if cols == -1 else iters.reshape(rows, cols)

    def nest_iterations(self, k: int) -> np.ndarray:
        """Nest ``k``'s blocks' iterations, concatenated (a view)."""
        lo, hi = self.starts[k], self.starts[k + 1]
        iters = self.flat[self.offsets[lo] : self.offsets[hi]]
        cols = int(self.shapes[lo, 1]) if hi > lo else -1
        return iters if cols == -1 else iters.reshape(-1, cols)

    def nest_ends(self, k: int) -> np.ndarray:
        """Nest ``k``'s ``(blocks, depth)`` block ends (a view)."""
        lo = int(np.dot(np.diff(self.starts[: k + 1]), self.depths[:k]))
        n = int(self.starts[k + 1] - self.starts[k])
        depth = self.depths[k]
        return self.ends[lo : lo + n * depth].reshape(n, depth)

    @staticmethod
    def from_nests(nests) -> "TaskArrays":
        """The arrays of task loop nests; a token no block produces
        raises ``KeyError``."""
        producer: dict = {}
        starts = [0]
        for nest in nests:
            for block in nest.blocks:
                producer[block.out_token] = len(producer)
            starts.append(len(producer))
        iters: list[np.ndarray] = []
        shapes: list[tuple[int, int]] = []
        ends: list = []
        indptr = [0]
        indices: list[int] = []
        for nest in nests:
            for block in nest.blocks:
                it = np.asarray(block.iterations, dtype=np.int64)
                iters.append(it.ravel())
                shapes.append(
                    (it.shape[0], it.shape[1] if it.ndim == 2 else -1)
                )
                ends.extend(block.end)
                for token in block.in_tokens:
                    src = producer.get(token)
                    if src is None:
                        raise KeyError(
                            f"in-dependency {token} of {block} has no "
                            "producer"
                        )
                    indices.append(src)
                indptr.append(len(indices))
        shapes_arr = np.asarray(shapes, dtype=np.int64).reshape(-1, 2)
        return TaskArrays(
            statements=tuple(n.statement for n in nests),
            depths=tuple(n.depth for n in nests),
            chained=tuple(n.chained for n in nests),
            starts=np.asarray(starts, dtype=np.int64),
            shapes=shapes_arr,
            offsets=block_offsets(shapes_arr),
            flat=(
                np.concatenate(iters) if iters
                else np.empty(0, dtype=np.int64)
            ),
            ends=np.asarray(ends, dtype=np.int64),
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(indices, dtype=np.int64),
        )

    def nests(self) -> tuple[TaskLoopNest, ...]:
        """The task loop nests these arrays describe (built here)."""
        out_tokens = []
        for k, name in enumerate(self.statements):
            out_tokens += [
                (name, tuple(end)) for end in self.nest_ends(k).tolist()
            ]
        indptr, indices = self.indptr.tolist(), self.indices.tolist()
        nests = []
        for k, name in enumerate(self.statements):
            blocks = self.blocks(k)
            nests.append(TaskLoopNest(name, self.depths[k], tuple(
                TaskBlock(
                    statement=name,
                    block_id=g - blocks.start,
                    end=out_tokens[g][1],
                    iterations=self.iterations(g),
                    in_tokens=tuple(
                        out_tokens[p] for p in indices[indptr[g]:indptr[g + 1]]
                    ),
                    out_token=out_tokens[g],
                )
                for g in blocks
            ), self.chained[k]))
        return tuple(nests)


def block_offsets(shapes: np.ndarray) -> np.ndarray:
    """Offsets into the flat iterations of blocks of these ``shapes``."""
    sizes = shapes[:, 0] * np.where(shapes[:, 1] == -1, 1, shapes[:, 1])
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


class TaskAst:
    """Task-annotated AST of the whole pipelined SCoP.

    Held as its task loop nests (objects), as :class:`TaskArrays`, or
    both: either form is built from the other on first use.  A fresh
    compile generates the nests; the artifact store loads the arrays,
    and a replay reads nothing else.
    """

    def __init__(self, nests=None, *, arrays: TaskArrays | None = None):
        if nests is not None:
            self.__dict__["nests"] = tuple(nests)
        if arrays is not None:
            self.__dict__["arrays"] = arrays

    @cached_property
    def nests(self) -> tuple[TaskLoopNest, ...]:
        return self.arrays.nests()

    @cached_property
    def arrays(self) -> TaskArrays:
        return TaskArrays.from_nests(self.nests)

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


def task_edges(ast: TaskAst, plan=None) -> tuple:
    """``(src, dst)``: every edge of the task graph of ``ast`` — the one
    derivation the graph objects and lowering read, over the AST's
    :class:`TaskArrays`.  A token orders its producer first, and the
    blocks of a chained nest run in order.  A
    :class:`~repro.schedule.privatize.PrivatizationPlan` with groups
    unchains its statements and adds one join task per group (ids after
    the blocks, in group order) waiting on every block of its
    statements."""
    a = ast.arrays
    groups = plan.groups if plan is not None else ()
    unchained = {s for g in groups for s in g.statements}
    src = [a.indices]
    dst = [np.repeat(np.arange(a.num_blocks), np.diff(a.indptr))]
    for k, name in enumerate(a.statements):
        blocks = a.blocks(k)
        if a.chained[k] and name not in unchained and len(blocks) > 1:
            src.append(np.arange(blocks.start, blocks.stop - 1))
            dst.append(src[-1] + 1)
    for j, group in enumerate(groups):
        for k, name in enumerate(a.statements):
            if name in group.statements:
                src.append(np.arange(a.blocks(k).start, a.blocks(k).stop))
                dst.append(np.full_like(src[-1], a.num_blocks + j))
    return (
        np.concatenate(src).astype(np.int64),
        np.concatenate(dst).astype(np.int64),
    )


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
