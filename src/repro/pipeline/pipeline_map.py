"""Pipeline maps (Section 4.1 of the paper).

For a source statement S and a target statement T, the pipeline map
``T_{S,T}`` relates each S iteration ``i`` to the lexicographically largest
T iteration ``j`` such that finishing S up to ``i`` makes running T up to
``j`` safe.  Following the paper:

1. ``P = Wr⁻¹ ∘ Rd`` maps each T iteration to the S iterations that wrote
   the cells it reads.
2. ``D′`` maps each member of ``Dom(P)`` to all members lexicographically
   ``<=`` it; hence ``H = lexmax(P ∘ D′)`` maps each read iteration to the
   largest write iteration it *or any earlier read iteration* depends on.
   Because ``D′`` is a prefix closure, ``H`` is computed here as a running
   lexicographic maximum over ``Dom(P)`` in lexicographic order.
3. ``T_{S,T} = lexmax(H⁻¹)``.

All steps run on explicit relations with vectorized NumPy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..presburger import PointRelation, lex_ranks
from ..presburger.cache import count
from ..scop import DepKind, Scop, ScopStatement, dependence_relation


@dataclass(frozen=True)
class PipelineMap:
    """The pipeline relation between a source and a target statement."""

    source: str
    target: str
    #: source iteration -> largest safe target iteration (a partial bijection)
    relation: PointRelation
    #: target iteration -> largest source iteration it transitively needs
    requirement: PointRelation

    def __post_init__(self) -> None:
        rel = self.relation
        if not rel.is_single_valued():
            raise AssertionError("pipeline map must be single-valued")
        # H is monotone, so T is too: its rows list the anchors in order
        if not np.array_equal(rel.range().points, rel.out_part):
            raise AssertionError("pipeline map must be monotone")

    def anchors(self) -> PointRelation:
        return self.relation

    def to_dict(self) -> dict:
        """JSON-ready form for the durable artifact store."""
        return {
            "source": self.source,
            "target": self.target,
            "relation": self.relation.to_dict(),
            "requirement": self.requirement.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "PipelineMap":
        return PipelineMap(
            source=d["source"],
            target=d["target"],
            relation=PointRelation.from_dict(d["relation"]),
            requirement=PointRelation.from_dict(d["requirement"]),
        )

    def __str__(self) -> str:
        return (
            f"T_{{{self.source},{self.target}}} with "
            f"{len(self.relation)} anchor pairs"
        )


def prefix_lexmax(rel: PointRelation) -> PointRelation:
    """Running lexicographic maximum of a single-valued relation.

    The input must map each domain point to exactly one value; the output
    maps each domain point (in lexicographic domain order) to the largest
    value seen at or before it.  This implements ``lexmax(P ∘ D′)`` without
    materializing the quadratic prefix-closure relation ``D′``.
    """
    if rel.is_empty():
        return rel
    if not rel.is_single_valued():
        raise ValueError("prefix_lexmax expects a single-valued relation")
    count("pipeline.prefix_lexmax")
    out = rel.out_part
    ranks = lex_ranks(out)
    running = np.maximum.accumulate(ranks)
    idx = np.arange(len(ranks))
    # Index of the row achieving the running max: refreshed where a new
    # maximum appears, carried forward otherwise.
    best = np.maximum.accumulate(np.where(ranks == running, idx, -1))
    return PointRelation.from_arrays(rel.in_part, out[best])


def raw_dependence_map(
    scop: Scop,
    source: ScopStatement,
    target: ScopStatement,
    kind: DepKind = DepKind.FLOW,
) -> PointRelation:
    """The ``P`` relation: target iteration → source iterations it reads.

    ``kind`` selects which access pairing defines the dependence; the paper
    uses flow (source writes, target reads), the anti/output variants back
    the future-work extension exercised in the tests.

    This is the SCoP's dependence-table entry: Algorithm 1 asks only about
    a source nest before the target nest, where every pair of instances
    touching one cell is a dependence; for any other pair of statements
    the relation keeps the pairs in execution order only.
    """
    return dependence_relation(scop, source, target, kind)


def compute_pipeline_map(
    scop: Scop,
    source: ScopStatement,
    target: ScopStatement,
    kind: DepKind = DepKind.FLOW,
) -> PipelineMap | None:
    """Compute ``T_{source,target}``, or ``None`` when T does not depend on S."""
    H = requirement_map(scop, source, target, kind)
    if H is None:
        return None
    return anchored(source.name, target.name, H)


def requirement_map(
    scop: Scop,
    source: ScopStatement,
    target: ScopStatement,
    kind: DepKind = DepKind.FLOW,
) -> PointRelation | None:
    """``H = lexmax(P ∘ D′)``, or ``None`` when T does not depend on S:
    for each j in Dom(P) (lexicographic order), the running lexmax of the
    largest source iteration needed by j or any earlier j'."""
    P = raw_dependence_map(scop, source, target, kind)
    if P.is_empty():
        return None
    return prefix_lexmax(P.lexmax_per_domain())


def anchored(source: str, target: str, H: PointRelation) -> PipelineMap:
    """The pipeline map of a requirement ``H``: ``T = lexmax(H⁻¹)`` maps
    each source anchor i to the largest j with H(j) = i.  H is monotone,
    so this is a partial bijection."""
    return PipelineMap(source, target, H.inverse().lexmax_per_domain(), H)
