"""AST generation from the pipelined schedule tree (Section 5.3).

Lowers the schedule tree to a task-annotated loop AST in the spirit of the
paper's Figure 6: one loop nest per statement iterating its pipeline blocks
in lexicographic order, each block annotated with the dependency tokens the
code generator turns into OpenMP-style ``depend`` clauses.

A *token* is ``(statement name, block end tuple)`` — the printable form of
the ``Q_S`` / ``Q_S^O`` relations evaluated at one block.  The AST is
generated as :class:`TaskArrays` (a token is its producer block's global
id); :class:`TaskLoopNest` / :class:`TaskBlock` are a view of them, built
for whoever renders or inspects the AST block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..pipeline import Blocking, PipelineInfo
from ..presburger import PointRelation, joint_ranks
from .build import PIPELINE_MARK, PipelineMarkPayload, build_schedule
from .tree import DomainNode, ExpansionNode, MarkNode, ScheduleTree

Token = tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class TaskBlock:
    """One pipeline block — the unit that becomes an OpenMP task (a view
    of one block of :class:`TaskArrays`)."""

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
    #: ``False`` leaves their order to the blocks' own self-tokens or to
    #: a privatization proof (:func:`repro.schedule.relax.relax`)
    chained: bool = True

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


class JoinRow(NamedTuple):
    """One reduction group's join task: it waits on every block of the
    group's ``statements`` and folds their private accumulators of
    ``array`` with the ``group`` operator ("sum", "product", "min",
    "max").  Written only by :func:`repro.schedule.relax.relax` from a
    verified privatization plan, never stored."""

    array: str
    group: str
    statements: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class TaskArrays:
    """The task AST as flat arrays: what generation writes and lowering,
    ``mergeable``, the task graph, the artifact store and a warm load's
    blockings (:meth:`blocking`) read.  Blocks
    have global ids in AST order (nests × blocks).  Per nest:
    ``statements`` / ``depths`` / ``chained`` and ``starts`` (its first
    global block id; one entry more than nests).  Per block: its
    iterations' ``shapes`` row (rows, cols; cols ``-1`` marks a 1-D
    array) and ``offsets`` into ``flat``, all iterations concatenated;
    ``ends`` concatenates each nest's ``(blocks, depth)`` block ends; its
    in-tokens are its producers' global ids, ``indices[indptr[g]:
    indptr[g + 1]]`` (CSR), in token order.
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
    joins: tuple[JoinRow, ...] = ()

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

    def blocking(self, k: int) -> Blocking:
        """Nest ``k``'s blocking map ``E_S``: every iteration it lists
        to its block's end, in one :meth:`PointRelation.from_arrays`.
        ``ValueError`` when the nest lists an iteration twice (the
        relation would merge the copies)."""
        lo, hi = self.starts[k], self.starts[k + 1]
        sizes = self.shapes[lo:hi, 0]
        iters = self.flat[self.offsets[lo] : self.offsets[hi]].reshape(
            int(sizes.sum()), self.depths[k]
        )
        ends = np.repeat(self.nest_ends(k), sizes, axis=0)
        mapping = PointRelation.from_arrays(iters, ends)
        if len(mapping) != len(iters):
            raise ValueError(
                f"the task AST lists an iteration of {self.statements[k]} "
                "twice"
            )
        return Blocking(self.statements[k], mapping)

    def nests(self) -> tuple[TaskLoopNest, ...]:
        """The task loop nests these arrays describe (built here)."""
        tokens = [
            (name, tuple(end))
            for k, name in enumerate(self.statements)
            for end in self.nest_ends(k).tolist()
        ]
        ptr, ids = self.indptr.tolist(), self.indices.tolist()
        return tuple(
            TaskLoopNest(name, self.depths[k], tuple(
                TaskBlock(
                    name, b, tokens[g][1], self.iterations(g),
                    tuple(tokens[p] for p in ids[ptr[g] : ptr[g + 1]]),
                    tokens[g],
                )
                for b, g in enumerate(self.blocks(k))
            ), self.chained[k])
            for k, name in enumerate(self.statements)
        )


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Per entry of a CSR with this ``indptr``, its row."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def csr_indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """The ``indptr`` of ``n`` rows whose entries' sorted rows are these."""
    counts = np.bincount(rows, minlength=n)
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def block_offsets(shapes: np.ndarray) -> np.ndarray:
    """Offsets into the flat iterations of blocks of these ``shapes``."""
    sizes = shapes[:, 0] * np.where(shapes[:, 1] == -1, 1, shapes[:, 1])
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


class TaskAst:
    """Task-annotated AST of the whole pipelined SCoP, held as its
    :class:`TaskArrays`.  Its task loop nests are a view, built on first
    read: compiling, checking, storing and replaying read the arrays only.
    """

    def __init__(self, arrays: TaskArrays):
        self.arrays = arrays

    @cached_property
    def nests(self) -> tuple[TaskLoopNest, ...]:
        return self.arrays.nests()

    def nest(self, statement: str) -> TaskLoopNest:
        return {n.statement: n for n in self.nests}[statement]

    def all_blocks(self) -> list[TaskBlock]:
        return [b for n in self.nests for b in n.blocks]

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`task_edges` of this AST, derived on first read: the
        graph, lowering's refusal and the replay schedule share it."""
        return task_edges(self)

    def pretty(self) -> str:
        """Figure-6 style rendering of the task AST."""
        lines: list[str] = []
        for nest in self.nests:
            name, n = nest.statement, nest.num_blocks
            lines += [
                f"// statement {name}: {n} tasks, pipeline loop over "
                f"{nest.depth}-d blocks"
                + ("" if nest.chained else ", unchained"),
                f"for (b = 0; b < {n}; b += 1) {{",
            ]
            if nest.blocks:
                deps = ", ".join(
                    f"{s}@{list(e)}" for s, e in nest.blocks[0].in_tokens
                )
                lines.append(
                    f"  // task: out {name}@end(b); in (b=0 shown): "
                    f"{deps or 'none'}"
                )
            lines += [
                f"  for (iter in block b of {name})", f"    {name}(iter);", "}"
            ]
        return "\n".join(lines)

    __str__ = pretty


def task_edges(ast: TaskAst) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)``: every edge of the task graph of ``ast`` (read it
    as :attr:`TaskAst.edges`).  A token orders its producer first, the
    blocks of a chained nest run in order, and a join row waits on every
    block of its group's statements."""
    a = ast.arrays
    nest = csr_rows(a.starts)  # per block, its nest
    chained = np.array(a.chained, dtype=bool)
    follow = np.flatnonzero((nest[:-1] == nest[1:]) & chained[nest[:-1]])
    src, dst = [a.indices, follow], [csr_rows(a.indptr), follow + 1]
    for j, join in enumerate(a.joins):
        members = np.isin(a.statements, join.statements)
        src.append(np.flatnonzero(members[nest]))
        dst.append(np.full_like(src[-1], a.num_blocks + j))
    return (
        np.concatenate(src).astype(np.int64),
        np.concatenate(dst).astype(np.int64),
    )


def generate_task_ast(
    info: PipelineInfo, schedule: ScheduleTree | None = None
) -> TaskAst:
    """Lower a (pipelined) schedule tree — by default
    :func:`~repro.schedule.build.build_schedule` of ``info`` — to the
    task-annotated AST, statements in the tree's sequence.  A statement's
    arrays come from its blocking (ends, iterations grouped by block) and
    its in-dependency relations, whose target and source ends are matched
    to block ids; a block's producers follow the in-dependency order.  A
    required end that no source block produces raises ``KeyError``.
    """
    from ..obs.spans import span

    schedule = schedule if schedule is not None else build_schedule(info)
    with span("schedule.astgen"):
        nodes = [
            node for node in schedule.walk()
            if isinstance(node, DomainNode) and _is_block_domain(node)
        ]
        names = [node.statement for node in nodes]
        blockings = [info.blockings[name] for name in names]
        starts = np.cumsum([0] + [b.num_blocks for b in blockings])
        first = dict(zip(names, starts.tolist()))
        none = np.zeros(0, dtype=np.int64)
        flat, ends, consumer, producer = [none], [none], [none], [none]
        shapes = [np.zeros((0, 2), dtype=np.int64)]
        for k, node in enumerate(nodes):
            rows, bounds = blockings[k].grouped_iterations()
            flat.append(rows.ravel())
            shapes.append(np.column_stack(
                (np.diff(bounds), np.full(len(bounds) - 1, rows.shape[1]))
            ))
            ends.append(blockings[k].ends.points.ravel())
            for dep in _find_payload(node).in_deps:
                rel, source = dep.relation, info.blockings[dep.source]
                tgt = _row_ids(blockings[k].ends.points, rel.in_part)
                src = _row_ids(source.ends.points, rel.out_part[tgt >= 0])
                if np.any(src < 0):
                    raise KeyError(
                        f"an end of {dep.source} that {names[k]} requires "
                        "has no producer"
                    )
                consumer.append(starts[k] + tgt[tgt >= 0])
                producer.append(first[dep.source] + src)
        consumer, producer = np.concatenate(consumer), np.concatenate(producer)
        shapes = np.concatenate(shapes).astype(np.int64)
        return TaskAst(TaskArrays(
            statements=tuple(names),
            depths=tuple(b.ends.ndim for b in blockings),
            chained=(True,) * len(names),
            starts=starts.astype(np.int64),
            shapes=shapes,
            offsets=block_offsets(shapes),
            flat=np.concatenate(flat).astype(np.int64),
            ends=np.concatenate(ends).astype(np.int64),
            indptr=csr_indptr(consumer, int(starts[-1])),
            # stable: a block's producers stay in in-dependency order
            indices=producer[np.argsort(consumer, kind="stable")],
        ))


def _row_ids(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row of ``rows``: its index in ``table`` (lexicographically
    sorted, unique rows), ``-1`` where it is not one of them."""
    keys, queries = joint_ranks(table, rows)
    idx = np.searchsorted(keys, queries)
    found = idx < len(keys)
    found[found] = keys[idx[found]] == queries[found]
    return np.where(found, idx, -1)


def _is_block_domain(node: DomainNode) -> bool:
    """Block-level domain nodes have an expansion somewhere below them."""
    return any(isinstance(n, ExpansionNode) for n in node.walk())


def _find_payload(node: DomainNode) -> PipelineMarkPayload:
    for n in node.walk():
        if isinstance(n, MarkNode) and n.name == PIPELINE_MARK:
            return n.payload
    raise ValueError(
        f"statement {node.statement} has no {PIPELINE_MARK!r} mark node"
    )
