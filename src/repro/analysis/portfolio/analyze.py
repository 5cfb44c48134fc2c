"""The portfolio driver: run every pattern detector, prove, re-verify.

:func:`run_portfolio` ties the pieces together over one SCoP:

1. match every statement against the reduction shapes (:mod:`.reduction`);
2. partition every dependence relation into reduction-carried vs true
   pairs with Presburger algebra (:mod:`.partition`);
3. classify every nest (do-all / reduction / geometric-decomposition /
   irregular, :mod:`.patterns`);
4. for every consecutive nest pair the explainer reports as blocked
   (``sequential`` / ``fusion-only``), try to build a privatization
   proof relaxing *all* of its cross-nest dependences (:mod:`.privatize`);
5. hand each proof to :func:`repro.schedule.legality.verify_privatization`
   — an independent checker that recomputes every claim — and only
   reclassify the pair to ``pipeline-after-privatization`` when the
   proof survives.  Detector output is never trusted unchecked.

Findings render through the standard diagnostics engine as the
``RPA05x`` family (:func:`portfolio_to_diagnostics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...scop import Scop
from .. import diagnostics as D
from ..diagnostics import Collector, DiagnosticReport, Span
from ..explain import (
    PairClass,
    PairExplanation,
    _blame_accesses,
    classify_nest_pairs,
)
from .partition import (
    DependencePartition,
    PairKey,
    partition_dependences,
)
from .patterns import NestPatternReport, detect_nest_patterns
from .privatize import PrivatizationProof, build_pair_proof
from .reduction import ReductionSpec, find_reduction_specs

#: pair classes the portfolio tries to unlock
_BLOCKED = (PairClass.SEQUENTIAL, PairClass.FUSION_ONLY)


@dataclass(frozen=True)
class PairPortfolio:
    """One nest pair's original and portfolio-effective classification."""

    explanation: PairExplanation  # effective (reclassified when proven)
    original: PairClass
    proof: PrivatizationProof | None
    #: legality re-verification outcome (``None`` when no proof exists);
    #: a ``repro.schedule.legality.PrivatizationCheck``
    verification: Any

    @property
    def reclassified(self) -> bool:
        return self.explanation.classification is not self.original

    def to_dict(self) -> dict:
        out = self.explanation.to_dict()
        out["original_classification"] = self.original.value
        if self.proof is not None:
            out["privatization_proof"] = self.proof.to_dict()
            out["proof_verified"] = bool(
                self.verification is not None and self.verification.ok
            )
        return out


@dataclass(frozen=True)
class PortfolioReport:
    """Everything the pattern portfolio proved about one SCoP."""

    specs: dict[str, ReductionSpec]
    partitions: dict[PairKey, DependencePartition]
    nests: tuple[NestPatternReport, ...]
    pairs: tuple[PairPortfolio, ...]

    def explanations(self) -> tuple[PairExplanation, ...]:
        return tuple(p.explanation for p in self.pairs)

    def proofs(self) -> tuple[PrivatizationProof, ...]:
        return tuple(p.proof for p in self.pairs if p.proof is not None)

    def reclassified_pairs(self) -> tuple[PairPortfolio, ...]:
        return tuple(p for p in self.pairs if p.reclassified)

    def to_dict(self) -> dict:
        return {
            "reductions": [
                {
                    "statement": s.statement,
                    "array": s.array,
                    "group": s.group.value,
                    "operator": s.operator,
                }
                for s in self.specs.values()
            ],
            "nests": [n.to_dict() for n in self.nests],
            "pairs": [p.to_dict() for p in self.pairs],
        }

    def format(self) -> str:
        lines = ["pattern portfolio:"]
        if self.specs:
            for spec in self.specs.values():
                lines.append(f"  {spec.describe()}")
        else:
            lines.append("  no reduction statements")
        for nest in self.nests:
            lines.append(f"  {nest.describe()}: {nest.reasons[0]}")
        for pair in self.pairs:
            exp = pair.explanation
            head = (
                f"  nests ({exp.source_nest}, {exp.target_nest}): "
                f"{pair.original.value}"
            )
            if pair.reclassified:
                head += (
                    f" -> {exp.classification.value} "
                    f"({pair.proof.describe()}; independently re-verified)"
                )
            lines.append(head)
        return "\n".join(lines)


def run_portfolio(
    scop: Scop,
    explanations: tuple[PairExplanation, ...] | None = None,
) -> PortfolioReport:
    """Run the full pattern portfolio over one SCoP."""
    from ...obs.spans import span

    with span("analysis.portfolio") as sp:
        specs = find_reduction_specs(s.assign for s in scop.statements)
        partitions = partition_dependences(scop, specs)
        nests = detect_nest_patterns(scop, specs, partitions)
        if explanations is None:
            explanations = classify_nest_pairs(scop)
        pairs = tuple(
            _portfolio_pair(scop, exp, specs, partitions)
            for exp in explanations
        )
        sp.set(
            reductions=len(specs),
            reclassified=sum(1 for p in pairs if p.reclassified),
        )
        return PortfolioReport(specs, partitions, nests, pairs)


def _portfolio_pair(
    scop: Scop,
    exp: PairExplanation,
    specs: dict[str, ReductionSpec],
    partitions: dict[PairKey, DependencePartition],
) -> PairPortfolio:
    if exp.classification not in _BLOCKED:
        return PairPortfolio(exp, exp.classification, None, None)

    sources = {
        s.name for s in scop.statements if s.nest_index == exp.source_nest
    }
    targets = {
        s.name for s in scop.statements if s.nest_index == exp.target_nest
    }
    cross = [
        part
        for part in partitions.values()
        if part.source in sources and part.target in targets
    ]
    proof = build_pair_proof(specs, cross)
    if proof is None:
        return PairPortfolio(exp, exp.classification, None, None)

    # Never trust the detector: the proof only counts once the legality
    # layer has re-derived every claim from the SCoP itself.
    from ...schedule.legality import verify_privatization

    check = verify_privatization(scop, proof)
    if not check.ok:
        return PairPortfolio(exp, exp.classification, proof, check)

    removed_blames = tuple(
        blame
        for rem in proof.removed
        for blame in _blame_accesses(
            scop,
            scop.statement(rem.source),
            scop.statement(rem.target),
            rem.kind,
            reason=(
                "reduction-carried; removed by privatizing "
                + ", ".join(repr(a) for a in proof.arrays)
            ),
        )
    )
    reclassified = PairExplanation(
        exp.source_nest,
        exp.target_nest,
        PairClass.PIPELINE_AFTER_PRIVATIZATION,
        exp.reasons
        + (
            f"every cross-nest dependence is reduction-carried; "
            f"{proof.describe()}",
        ),
        exp.blockers,
        exp.overlap,
        removed_by_privatization=removed_blames,
    )
    return PairPortfolio(reclassified, exp.classification, proof, check)


# ----------------------------------------------------------------------
def portfolio_to_diagnostics(
    scop: Scop,
    report: PortfolioReport,
    file: str | None = None,
) -> DiagnosticReport:
    """Render the portfolio findings as RPA050-RPA054 diagnostics."""
    out = Collector(file)
    location = {s.name: s.assign.location for s in scop.statements}

    for spec in report.specs.values():
        out.add(
            D.REDUCTION_DETECTED,
            spec.describe(),
            location=location.get(spec.statement),
            hints=(
                "privatization keeps one accumulator copy per task and "
                f"combines them with {spec.group.value} at the join",
            ),
        )

    for nest in report.nests:
        first = next(
            (location.get(n) for n in nest.statements if location.get(n)),
            None,
        )
        out.add(
            D.NEST_PATTERN,
            nest.describe() + "; " + "; ".join(nest.reasons),
            location=first,
        )

    for pair in report.pairs:
        exp = pair.explanation
        where = Span(file)
        if pair.reclassified:
            out.add(
                D.PRIVATIZATION_RECLASSIFIED,
                f"nests ({exp.source_nest}, {exp.target_nest}): "
                f"{pair.original.value} -> {exp.classification.value}; "
                f"{pair.proof.describe()}; proof independently re-verified "
                f"({pair.verification.checked_instance_pairs} instance "
                "pair(s) re-checked)",
                span=where,
                hints=tuple(
                    b.describe() for b in exp.removed_by_privatization
                ),
            )
        elif pair.proof is not None and not pair.verification.ok:
            out.add(
                D.PROOF_REJECTED,
                f"nests ({exp.source_nest}, {exp.target_nest}): "
                "privatization proof rejected by the legality checker: "
                + "; ".join(
                    f.reason for f in pair.verification.failures[:3]
                ),
                span=where,
            )
        elif pair.original in _BLOCKED:
            out.add(
                D.UNCOVERED_BY_PORTFOLIO,
                f"nests ({exp.source_nest}, {exp.target_nest}): "
                f"{pair.original.value}; no portfolio detector unlocks "
                "this pair (some cross-nest dependence is a true "
                "dependence)",
                span=where,
            )
    return out.report()
