"""The pipelinability explainer.

Classifies every *consecutive* pair of loop nests of a SCoP as one of

* ``do-all``      — no cross-nest dependence at all; the nests can run
  concurrently without any ordering;
* ``pipeline``    — a flow dependence exists and its pipeline map
  (Section 4.1) admits real overlap between the nests;
* ``fusion-only`` — dependences exist and every one is forward-aligned
  (the nests could legally be fused), but the pipeline map degenerates
  to a full barrier, so tasking buys nothing;
* ``sequential``  — a dependence forces the second nest to wait for all
  of the first, and fusion would reorder it too.

When pipelining fails or degenerates, the explainer names the offending
dependence kind and the exact access pair inducing it, reusing the
internals of :mod:`repro.pipeline.detect` (pipeline maps, requirement
relations) and :mod:`repro.scop.deps` (execution-order filtering).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..pipeline.pipeline_map import compute_pipeline_map
from ..presburger import PointSet, rowwise_lex_lt
from ..scop import DepKind, Scop, ScopStatement, dependence_relation
from ..scop.access import Access
from ..scop.deps import in_execution_order, paired_accesses
from . import diagnostics as D
from .diagnostics import Collector, DiagnosticReport, Span

#: overlap fractions below this are reported as degenerate pipelining
DEGENERATE_OVERLAP = 0.25


class PairClass(enum.Enum):
    DO_ALL = "do-all"
    PIPELINE = "pipeline"
    #: every blocking dependence is reduction-carried; privatizing the
    #: accumulator (portfolio pass, rule RPA051) unlocks the pair.  Never
    #: produced by :func:`classify_nest_pairs` itself — only by the
    #: portfolio reclassifier, which attaches a verified proof.
    PIPELINE_AFTER_PRIVATIZATION = "pipeline-after-privatization"
    FUSION_ONLY = "fusion-only"
    SEQUENTIAL = "sequential"

    @property
    def rank(self) -> int:
        return {
            "do-all": 0,
            "pipeline": 1,
            "pipeline-after-privatization": 2,
            "fusion-only": 3,
            "sequential": 4,
        }[self.value]


@dataclass(frozen=True)
class DependenceBlame:
    """One dependence (kind + access pair) blamed for blocking a pipeline."""

    kind: DepKind
    source: str
    target: str
    source_access: str
    target_access: str
    pairs: int
    reason: str

    def describe(self) -> str:
        return (
            f"{self.kind.value} dependence {self.source} -> {self.target} "
            f"({self.source_access} vs {self.target_access}, "
            f"{self.pairs} instance pairs): {self.reason}"
        )


@dataclass(frozen=True)
class PairExplanation:
    """Classification of one consecutive nest pair, with its evidence."""

    source_nest: int
    target_nest: int
    classification: PairClass
    reasons: tuple[str, ...]
    blockers: tuple[DependenceBlame, ...]
    #: smallest pipeline overlap fraction across the pair's flow maps
    #: (1.0 = target may start immediately, 0.0 = full barrier); None
    #: when the pair has no flow dependence
    overlap: float | None
    #: dependences a verified privatization proof removes (set only by the
    #: portfolio reclassifier on ``pipeline-after-privatization`` pairs)
    removed_by_privatization: tuple[DependenceBlame, ...] = ()

    def describe(self) -> str:
        head = (
            f"nests ({self.source_nest}, {self.target_nest}): "
            f"{self.classification.value}"
        )
        if self.overlap is not None:
            head += f" (overlap {self.overlap:.0%})"
        return head

    def to_dict(self) -> dict:
        out = {
            "nest_pair": [self.source_nest, self.target_nest],
            "classification": self.classification.value,
            "overlap": self.overlap,
            "reasons": list(self.reasons),
            "blockers": [b.describe() for b in self.blockers],
        }
        if self.removed_by_privatization:
            out["removed_by_privatization"] = [
                b.describe() for b in self.removed_by_privatization
            ]
        return out


# ----------------------------------------------------------------------
def classify_nest_pairs(scop: Scop) -> tuple[PairExplanation, ...]:
    """Classify every consecutive nest pair of the SCoP."""
    nests: dict[int, list[ScopStatement]] = {}
    for stmt in scop.statements:
        nests.setdefault(stmt.nest_index, []).append(stmt)
    order = sorted(nests)
    return tuple(
        _classify_pair(scop, a, b, nests[a], nests[b])
        for a, b in zip(order, order[1:])
    )


def _classify_pair(
    scop: Scop,
    nest_a: int,
    nest_b: int,
    sources: list[ScopStatement],
    targets: list[ScopStatement],
) -> PairExplanation:
    reasons: list[str] = []
    blockers: list[DependenceBlame] = []
    classes: list[PairClass] = []
    overlaps: list[float] = []

    for src in sources:
        for tgt in targets:
            cls, why, blame, overlap = _classify_statement_pair(
                scop, src, tgt
            )
            if cls is not None:
                classes.append(cls)
            reasons.extend(why)
            blockers.extend(blame)
            if overlap is not None:
                overlaps.append(overlap)

    if not classes:
        classification = PairClass.DO_ALL
        reasons.append(
            f"no dependence of any kind between nest {nest_a} and nest "
            f"{nest_b}; they may run concurrently"
        )
    else:
        classification = max(classes, key=lambda c: c.rank)
    return PairExplanation(
        nest_a,
        nest_b,
        classification,
        tuple(reasons),
        tuple(blockers),
        min(overlaps) if overlaps else None,
    )


def _classify_statement_pair(
    scop: Scop, src: ScopStatement, tgt: ScopStatement
) -> tuple[PairClass | None, list[str], list[DependenceBlame], float | None]:
    rels = {
        kind: dependence_relation(scop, src, tgt, kind) for kind in DepKind
    }
    if all(rel.is_empty() for rel in rels.values()):
        return None, [], [], None

    reasons: list[str] = []
    blockers: list[DependenceBlame] = []

    flow = rels[DepKind.FLOW]
    overlap: float | None = None
    if not flow.is_empty():
        pmap = compute_pipeline_map(scop, src, tgt, DepKind.FLOW)
        overlap = _overlap_fraction(src, pmap)

    uncovered = [
        kind
        for kind in (DepKind.ANTI, DepKind.OUTPUT)
        if not rels[kind].is_empty()
    ]
    for kind in uncovered:
        for blame in _blame_accesses(
            scop, src, tgt, kind,
            reason="not covered by flow-only pipeline maps",
        ):
            blockers.append(blame)

    if overlap is not None and overlap > 0.0:
        reasons.append(
            f"{src.name} -> {tgt.name}: pipeline map admits "
            f"{overlap:.0%} overlap"
        )
        if overlap < DEGENERATE_OVERLAP:
            for blame in _blame_accesses(
                scop, src, tgt, DepKind.FLOW,
                reason=f"pipeline overlap degenerates to {overlap:.0%}",
            ):
                blockers.append(blame)
        if uncovered:
            names = "/".join(k.value for k in uncovered)
            reasons.append(
                f"{src.name} -> {tgt.name}: cross-nest {names} "
                "dependence(s) must be added to the pipelined kinds "
                "(future-work extension) before transformation"
            )
        return PairClass.PIPELINE, reasons, blockers, overlap

    # No flow dependence, or its pipeline map is a full barrier.
    if overlap == 0.0:
        for blame in _blame_accesses(
            scop, src, tgt, DepKind.FLOW,
            reason="its pipeline map degenerates to a full barrier (the "
            "first target iteration already requires the last source "
            "iteration)",
        ):
            blockers.append(blame)
        reasons.append(
            f"{src.name} -> {tgt.name}: flow dependence forces a full "
            "barrier; no overlap is possible"
        )
    else:
        names = "/".join(k.value for k in uncovered) or "non-flow"
        reasons.append(
            f"{src.name} -> {tgt.name}: only {names} dependence(s); "
            "flow-only pipelining finds nothing to overlap"
        )

    backwards = _fusion_violations(scop, src, tgt, rels)
    if not backwards:
        reasons.append(
            f"{src.name} -> {tgt.name}: every dependence is "
            "forward-aligned, so the nests could be fused instead"
        )
        return PairClass.FUSION_ONLY, reasons, blockers, overlap
    # Blame every dependence kind that runs backwards, not just the first
    # found — portfolio reclassification needs the complete list to show
    # exactly which dependences privatization would remove.
    names = "/".join(kind.value for kind in backwards)
    reasons.append(
        f"{src.name} -> {tgt.name}: {names} dependence(s) run backwards "
        "under fusion alignment; the nests must execute sequentially"
    )
    for kind in backwards:
        blockers.extend(
            _blame_accesses(
                scop, src, tgt, kind,
                reason="runs backwards under fusion alignment (the target "
                "instance would execute before its source)",
            )
        )
    return PairClass.SEQUENTIAL, reasons, blockers, overlap


# ----------------------------------------------------------------------
def _overlap_fraction(src: ScopStatement, pmap) -> float:
    """Fraction of source iterations still pending when the target may start.

    1.0 means the target's first block is unlocked immediately; 0.0 means
    the first anchor is the source's last iteration — a full barrier.
    """
    if pmap is None or pmap.relation.is_empty():
        return 0.0
    anchors = pmap.relation.domain()
    first = anchors.lexmin()
    points = src.points
    total = len(points)
    if total == 0:
        return 0.0
    rank = int(PointSet.single(first).first_geq(points)[0])
    required = rank + 1  # the anchor itself must finish too
    return max(0.0, (total - required) / total)


def _blame_accesses(
    scop: Scop,
    src: ScopStatement,
    tgt: ScopStatement,
    kind: DepKind,
    reason: str,
) -> list[DependenceBlame]:
    """The (source access, target access) pairs inducing one dependence."""
    src_accs, tgt_accs = paired_accesses(src, tgt, kind)

    out: list[DependenceBlame] = []
    for sa in src_accs:
        for ta in tgt_accs:
            if sa.array != ta.array:
                continue
            rel = access_pair_relation(scop, src, sa, tgt, ta)
            if rel.is_empty():
                continue
            out.append(
                DependenceBlame(
                    kind,
                    src.name,
                    tgt.name,
                    str(sa),
                    str(ta),
                    len(rel),
                    reason,
                )
            )
    return out


def access_pair_relation(
    scop: Scop,
    src: ScopStatement,
    src_acc: Access,
    tgt: ScopStatement,
    tgt_acc: Access,
):
    """Execution-ordered dependence pairs induced by one access pair.

    Same orientation as :func:`~repro.scop.deps.dependence_relation`
    (target iterations mapped to the source iterations they conflict
    with); the portfolio partition uses this to attribute each dependence
    pair to the array inducing it.
    """
    array_id = scop.array_ids[src_acc.array]
    sr = src_acc.explicit_relation(
        src.points, src.space, array_id, scop.mem_rank
    )
    tr = tgt_acc.explicit_relation(
        tgt.points, tgt.space, array_id, scop.mem_rank
    )
    candidates = sr.inverse().after(tr)
    return in_execution_order(candidates, src, tgt)


def _fusion_violations(
    scop: Scop, src: ScopStatement, tgt: ScopStatement, rels
) -> list[DepKind]:
    """Every dependence kind that fusing the two nests would reorder."""
    common = min(src.depth, tgt.depth)
    violations: list[DepKind] = []
    for kind, rel in rels.items():
        if rel.is_empty():
            continue
        s = rel.out_part[:, :common]
        t = rel.in_part[:, :common]
        forward = rowwise_lex_lt(s, t) | np.all(s == t, axis=1)
        if not bool(np.all(forward)):
            violations.append(kind)
    return violations


# ----------------------------------------------------------------------
def explain_to_diagnostics(
    scop: Scop,
    explanations: tuple[PairExplanation, ...],
    file: str | None = None,
) -> DiagnosticReport:
    """Render explanations as RPA030/RPA031/RPA032 diagnostics."""
    out = Collector(file)
    stmt_location = {
        s.name: s.assign.location for s in scop.statements
    }
    for exp in explanations:
        out.add(
            D.NEST_PAIR_CLASS,
            exp.describe() + "; " + "; ".join(exp.reasons),
            span=Span(file),
        )
        for blame in exp.blockers:
            rule = (
                D.UNCOVERED_CROSS_DEP
                if blame.kind is not DepKind.FLOW
                else D.PIPELINE_BLOCKED
            )
            hints = (
                (
                    "pass kinds=(DepKind.FLOW, DepKind."
                    f"{blame.kind.name}) to detect_pipeline (the paper's "
                    "future-work extension)",
                )
                if blame.kind is not DepKind.FLOW
                else (
                    "restructure the consumer to read in producer order, "
                    "or accept sequential nest execution",
                )
            )
            out.add(
                rule,
                f"nests ({exp.source_nest}, {exp.target_nest}): "
                + blame.describe(),
                location=stmt_location.get(blame.target),
                hints=hints,
            )
    return out.report()
