"""Algorithm 2: schedule-tree construction from pipeline information.

For each statement S with combined blocking ``E_S`` the algorithm builds

* a *block* schedule over ``Range(E_S)`` — a domain node plus a band node
  iterating the blocks in lexicographic order (the outer loops; the
  innermost of them is the *pipeline loop*);
* an *intra-block* schedule over ``Dom(E_S)`` preceded by a mark node
  carrying the pipeline dependency relations (``Q_S``, ``Q_S^O``);
* an expansion node gluing the two with contraction ``E_S``.

The statement trees are sequenced in program order, mirroring line 13 of
Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..pipeline import BlockDependency, Blocking, PipelineInfo, out_dependency
from ..presburger import PointRelation
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

PIPELINE_MARK = "pipeline_deps"


@dataclass(frozen=True)
class PipelineMarkPayload:
    """Payload of the pipeline mark node.

    Mirrors the paper's ``pw_multi_aff_list`` (in-dependencies) and
    ``pw_multi_aff`` (out-dependency) attached per statement; the
    out-dependency is derived from the blocking when read.
    """

    statement: str
    in_deps: tuple[BlockDependency, ...]
    blocking: Blocking

    @property
    def out_dep(self) -> PointRelation:
        """``Q_S^O``: the identity on the statement's block ends."""
        return out_dependency(self.blocking)


def build_statement_tree(info: PipelineInfo, name: str) -> ScheduleNode:
    """Lines 2-12 of Algorithm 2 for a single statement."""
    blocking = info.blockings[name]
    d_e = blocking.mapping.domain()  # Dom(E_S): the iterations
    r_e = blocking.ends  # Range(E_S): the blocks

    payload = PipelineMarkPayload(
        statement=name,
        in_deps=info.in_deps.get(name, ()),
        blocking=blocking,
    )

    # Intra-block schedule: domain over iterations, mark, inner band.
    intra = DomainNode(
        name,
        d_e,
        MarkNode(
            PIPELINE_MARK,
            payload,
            BandNode(d_e.ndim, Leaf(), role="intra"),
        ),
    )

    # Block schedule: domain over block ends, band over blocks, expansion.
    return DomainNode(
        name,
        r_e,
        BandNode(
            r_e.ndim,
            ExpansionNode(blocking.mapping, intra),
            role="block",
        ),
    )


def build_schedule(info: PipelineInfo) -> ScheduleTree:
    """Algorithm 2: the full pipelined schedule tree of the SCoP."""
    from ..obs.spans import span

    with span("schedule.tree"):
        branches = tuple(
            build_statement_tree(info, stmt.name)
            for stmt in info.scop.statements
        )
        if len(branches) == 1:
            return ScheduleTree(branches[0])
        return ScheduleTree(SequenceNode(branches))
