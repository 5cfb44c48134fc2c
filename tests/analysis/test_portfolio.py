"""The pattern portfolio: detection, partition, proofs, reclassification.

Covers the tentpole guarantees:

* AST-level reduction recognition (compound ops, expanded idioms,
  min/max calls) and its rejection of non-associative shapes;
* the Presburger partition into reduction-carried vs true dependences;
* nest-pattern classification (do-all / reduction / geometric /
  irregular);
* privatization proofs, their independent re-verification through
  ``repro.schedule.legality.verify_privatization``, and the
  ``sequential -> pipeline-after-privatization`` reclassification;
* mutation tests: every soundness-relevant edit of a witness kernel
  (non-associative flip, accumulator read elsewhere, mixed operator
  groups, tampered proof objects) must make the claim disappear;
* the relaxed-dependence extension of ``check_legality``.
"""

from __future__ import annotations

import pytest

from repro.analysis.engine import analyze_kernel
from repro.analysis.explain import PairClass, classify_nest_pairs
from repro.analysis.portfolio import (
    NestPattern,
    ReductionGroup,
    build_pair_proof,
    find_reduction_specs,
    partition_dependences,
    reduction_update_spec,
    run_portfolio,
)
from repro.analysis.portfolio.privatize import (
    PrivatizationProof,
    ReductionClaim,
    RemovedDependence,
)
from repro.lang import parse
from repro.scop import DepKind, extract_scop
from repro.schedule.legality import check_legality, verify_privatization

HISTOGRAM = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""

SUMSTENCIL = """
for(i=1; i<N-1; i++)
  S: T[i] += compute(A[i-1], A[i], A[i+1]);
for(i=1; i<N-1; i++)
  R: T[N-1-i] += compute(B[i-1], B[i], B[i+1]);
"""

SUBSWAP = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: T[i][j] = A[i][j] - T[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: T[N-1-i][N-1-j] = B[i][j] - T[N-1-i][N-1-j];
"""


def scop_of(source, n=8):
    return extract_scop(parse(source), {"N": n})


def first_assign(source):
    return next(iter(parse(source).statements()))


# ----------------------------------------------------------------------
class TestReductionRecognition:
    @pytest.mark.parametrize(
        "stmt,group",
        [
            ("S: H[i] += A[i];", ReductionGroup.SUM),
            ("S: H[i] -= A[i];", ReductionGroup.SUM),
            ("S: H[i] *= A[i];", ReductionGroup.PRODUCT),
            ("S: H[i] = H[i] + A[i];", ReductionGroup.SUM),
            ("S: H[i] = A[i] + H[i];", ReductionGroup.SUM),
            ("S: H[i] = H[i] - A[i];", ReductionGroup.SUM),
            ("S: H[i] = H[i] * A[i];", ReductionGroup.PRODUCT),
            ("S: H[i] = A[i] * H[i];", ReductionGroup.PRODUCT),
            ("S: H[i] = min(H[i], A[i]);", ReductionGroup.MIN),
            ("S: H[i] = max(A[i], H[i]);", ReductionGroup.MAX),
        ],
    )
    def test_recognized(self, stmt, group):
        spec = reduction_update_spec(
            first_assign(f"for(i=0; i<N; i++)\n  {stmt}")
        )
        assert spec is not None
        assert spec.group is group
        assert spec.array == "H"

    @pytest.mark.parametrize(
        "stmt",
        [
            "S: H[i] = A[i] - H[i];",  # x -> e - x is not associative
            "S: H[i+1] = H[i] + A[i];",  # shifted self-read, not an update
            "S: H[i] = max(H[i], A[i], B[i]);",  # not a binary fold
            "S: H[i] = A[i];",  # plain overwrite
            "S: H[i] = H[i] + H[i];",  # both operands are the accumulator
            "S: H[i] += H[i+1];",  # update expression reads the array
            "S: H[i] = H[i] + A[H[i]];",  # accumulator feeds a subscript
            "S: H[i] = min(H[i], H[i+1]);",
            "S: H[i] = min(A[i], B[i]);",  # no self argument
            "S: H[i] = f(H[i], A[i]);",  # opaque function, unknown algebra
        ],
    )
    def test_rejected(self, stmt):
        spec = reduction_update_spec(
            first_assign(f"for(i=0; i<N; i++)\n  {stmt}")
        )
        assert spec is None

    def test_find_specs_over_program(self):
        specs = find_reduction_specs(parse(HISTOGRAM))
        assert set(specs) == {"S", "R"}
        assert all(s.group is ReductionGroup.SUM for s in specs.values())
        assert not find_reduction_specs(parse(SUBSWAP))


# ----------------------------------------------------------------------
class TestPartition:
    def test_histogram_fully_reduction_carried(self):
        scop = scop_of(HISTOGRAM)
        parts = partition_dependences(scop, find_reduction_specs(parse(HISTOGRAM)))
        cross = [p for p in parts.values() if p.source == "S" and p.target == "R"]
        assert len(cross) == 3  # flow, anti, output — all via H
        for part in cross:
            assert part.fully_relaxed
            assert len(part.reduction_carried) == len(part.full)
            assert part.residual.is_empty()

    def test_partition_is_exact_cover(self):
        scop = scop_of(HISTOGRAM)
        parts = partition_dependences(scop, find_reduction_specs(parse(HISTOGRAM)))
        for part in parts.values():
            both = part.reduction_carried.union(part.residual)
            assert both.difference(part.full).is_empty()
            assert part.full.difference(both).is_empty()
            assert part.reduction_carried.intersect(part.residual).is_empty()

    def test_non_reduction_pair_is_all_residual(self):
        scop = scop_of(SUBSWAP)
        parts = partition_dependences(scop, {})
        cross = [p for p in parts.values() if p.source == "S" and p.target == "R"]
        assert cross
        for part in cross:
            assert part.reduction_carried.is_empty()
            assert len(part.residual) == len(part.full)

    def test_outside_reader_stays_residual(self):
        source = """
for(i=0; i<N; i++)
  S: H[i] += A[i];
for(i=0; i<N; i++)
  R: C[i] = f(H[N-1-i], C[i]);
"""
        scop = scop_of(source)
        parts = partition_dependences(scop, find_reduction_specs(parse(source)))
        cross = [p for p in parts.values() if p.source == "S" and p.target == "R"]
        assert cross
        # R is not a reduction over H, so nothing may be relaxed
        for part in cross:
            assert part.reduction_carried.is_empty()
            assert not part.residual.is_empty()


# ----------------------------------------------------------------------
class TestNestPatterns:
    def patterns_of(self, source, n=8):
        scop = scop_of(source, n)
        specs = find_reduction_specs(parse(source))
        parts = partition_dependences(scop, specs)
        report = run_portfolio(scop)
        return {r.nest_index: r for r in report.nests}

    def test_do_all(self):
        nests = self.patterns_of("for(i=0; i<N; i++)\n  S: A[i] = f(B[i], A[i]);")
        assert nests[0].pattern is NestPattern.DO_ALL

    def test_reduction_nest(self):
        nests = self.patterns_of("for(i=0; i<N; i++)\n  S: s[0] += a[i];")
        assert nests[0].pattern is NestPattern.REDUCTION
        assert nests[0].carried_pairs > 0
        assert nests[0].reduction_carried_pairs == nests[0].carried_pairs

    def test_geometric_nest(self):
        nests = self.patterns_of(
            "for(i=1; i<N; i++)\n  S: A[i] = f(A[i-1], A[i]);"
        )
        assert nests[0].pattern is NestPattern.GEOMETRIC
        assert nests[0].distances == ((1,),)

    def test_irregular_nest(self):
        nests = self.patterns_of(
            "for(i=0; i<N; i++)\n  S: A[i] = f(A[N-1-i], A[i]);"
        )
        assert nests[0].pattern is NestPattern.IRREGULAR


# ----------------------------------------------------------------------
class TestReclassification:
    @pytest.mark.parametrize("source", [HISTOGRAM, SUMSTENCIL])
    def test_witness_reclassifies(self, source):
        scop = scop_of(source)
        (base,) = classify_nest_pairs(scop)
        assert base.classification is PairClass.SEQUENTIAL
        report = run_portfolio(scop)
        (pair,) = report.pairs
        assert pair.reclassified
        assert (
            pair.explanation.classification
            is PairClass.PIPELINE_AFTER_PRIVATIZATION
        )
        assert pair.verification.ok
        assert pair.verification.checked_instance_pairs == pair.proof.removed_pairs
        assert pair.explanation.removed_by_privatization

    def test_counterexample_stays_sequential(self):
        report = run_portfolio(scop_of(SUBSWAP))
        (pair,) = report.pairs
        assert not pair.reclassified
        assert pair.proof is None
        assert pair.explanation.classification is PairClass.SEQUENTIAL

    def test_outside_reader_not_reclassified(self):
        source = """
for(i=0; i<N; i++)
  S: H[i] += A[i];
for(i=0; i<N; i++)
  R: C[i] = f(H[N-1-i], C[i]);
"""
        report = run_portfolio(scop_of(source))
        (pair,) = report.pairs
        assert not pair.reclassified
        assert pair.proof is None


class TestMutations:
    """Soundness: every tampering with a witness kills the claim."""

    def test_non_associative_flip(self):
        # H[...] += B  ->  H[...] = B - H[...] in the second nest
        mutated = HISTOGRAM.replace(
            "R: H[N-1-i][N-1-j] += B[i][j];",
            "R: H[N-1-i][N-1-j] = B[i][j] - H[N-1-i][N-1-j];",
        )
        report = run_portfolio(scop_of(mutated))
        (pair,) = report.pairs
        assert not pair.reclassified

    def test_mixed_groups_do_not_commute(self):
        # sum in the first nest, product in the second: updates of the
        # two nests do not commute with each other
        mutated = HISTOGRAM.replace(
            "R: H[N-1-i][N-1-j] += B[i][j];",
            "R: H[N-1-i][N-1-j] *= B[i][j];",
        )
        specs = find_reduction_specs(parse(mutated))
        assert len(specs) == 2  # both are reductions on their own...
        report = run_portfolio(scop_of(mutated))
        (pair,) = report.pairs
        assert not pair.reclassified  # ...but the pair must not relax

    def test_accumulator_read_elsewhere(self):
        mutated = HISTOGRAM + (
            "for(i=0; i<N; i++)\n"
            "  for(j=0; j<N; j++)\n"
            "    U: C[i][j] = f(H[i][j], C[i][j]);\n"
        )
        report = run_portfolio(scop_of(mutated))
        by_pair = {
            (p.explanation.source_nest, p.explanation.target_nest): p
            for p in report.pairs
        }
        # the (S, R) pair still reclassifies: U reads H only *after* both
        assert by_pair[(0, 1)].reclassified
        # but every pair involving the reader must stay blocked
        assert not by_pair[(1, 2)].reclassified

    def test_tampered_claim_rejected(self):
        # claim the subswap statements are sum reductions — they are not
        scop = scop_of(SUBSWAP)
        good = run_portfolio(scop_of(HISTOGRAM)).proofs()[0]
        forged = PrivatizationProof(
            claims=tuple(
                ReductionClaim(c.statement, "T", c.group, c.operator)
                for c in good.claims
            ),
            removed=tuple(
                RemovedDependence(r.source, r.target, r.kind, r.pairs)
                for r in good.removed
            ),
        )
        check = verify_privatization(scop, forged)
        assert not check.ok
        assert any("not a recognizable" in str(f) for f in check.failures)

    def test_inflated_removed_set_rejected(self):
        # a proof may not remove pairs that are not actual dependences:
        # target (0,0) only conflicts with source (7,7), so the extra
        # (0,0) -> (0,1) pair below is pure fabrication
        import numpy as np

        from repro.presburger import PointRelation

        scop = scop_of(HISTOGRAM)
        proof = run_portfolio(scop).proofs()[0]
        rem = proof.removed[0]
        extra = PointRelation.from_arrays(
            np.array([[0, 0]]), np.array([[0, 1]])
        )
        forged = PrivatizationProof(
            proof.claims,
            (
                RemovedDependence(
                    rem.source, rem.target, rem.kind, rem.pairs.union(extra)
                ),
            ),
        )
        check = verify_privatization(scop, forged)
        assert not check.ok
        assert any("not all actual dependence" in str(f) for f in check.failures)

    def test_unclaimed_endpoint_rejected(self):
        scop = scop_of(HISTOGRAM)
        proof = run_portfolio(scop).proofs()[0]
        forged = PrivatizationProof(proof.claims[:1], proof.removed)
        check = verify_privatization(scop, forged)
        assert not check.ok
        assert any("no verified claim" in str(f) for f in check.failures)


# ----------------------------------------------------------------------
class TestRelaxedLegality:
    def test_relaxed_map_unlocks_independent_schedule(self):
        """The proof's relaxed set is exactly what frees the nests.

        Kernel B is histogram with the second nest accumulating into its
        own array: same statement names, same domains, but no cross-nest
        dependence — its task graph runs the two nests independently.
        Checking *kernel A's* dependences against that graph must fail,
        and must pass once the verified proof's pairs are subtracted.
        """
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast, plan_privatization
        from repro.tasking import TaskGraph

        scop_a = scop_of(HISTOGRAM)
        report = run_portfolio(scop_a)
        (pair,) = report.pairs
        assert pair.verification.ok
        relaxed = plan_privatization(scop_a).relaxed()
        assert relaxed

        independent = HISTOGRAM.replace(
            "R: H[N-1-i][N-1-j] += B[i][j];", "R: G[N-1-i][N-1-j] += B[i][j];"
        )
        scop_b = scop_of(independent)
        info_b = detect_pipeline(scop_b)
        graph_b = TaskGraph.from_task_ast(generate_task_ast(info_b))

        strict = check_legality(scop_a, info_b, graph_b)
        assert not strict.ok  # the independent schedule reorders A's deps

        relaxed_report = check_legality(
            scop_a, info_b, graph_b, relaxed=relaxed
        )
        assert relaxed_report.ok
        assert relaxed_report.checked_pairs < strict.checked_pairs

    def test_unverified_proofs_contribute_nothing(self):
        from repro.schedule import plan_privatization

        assert plan_privatization(scop_of(SUBSWAP)).relaxed() == {}


# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_analyze_kernel_portfolio(self):
        result = analyze_kernel(HISTOGRAM, {"N": 8}, portfolio=True)
        assert result.portfolio is not None
        codes = {d.code for d in result.report}
        assert {"RPA050", "RPA051", "RPA052"} <= codes
        (cls,) = result.classifications()
        assert cls["classification"] == "pipeline-after-privatization"
        assert cls["original_classification"] == "sequential"
        assert cls["privatization_proof"]["arrays"] == ["H"]
        assert cls["proof_verified"] is True

    def test_analyze_kernel_portfolio_uncovered(self):
        result = analyze_kernel(SUBSWAP, {"N": 8}, portfolio=True)
        codes = {d.code for d in result.report}
        assert "RPA054" in codes
        assert "RPA051" not in codes

    def test_portfolio_off_by_default(self):
        result = analyze_kernel(HISTOGRAM, {"N": 8})
        assert result.portfolio is None
        codes = {d.code for d in result.report}
        assert not any(c.startswith("RPA05") for c in codes)

    def test_dotprod_waiver_downgrades_rpa013(self):
        dotprod = "for(i=0; i<N; i++)\n  S: s[0] += dot(a[i], b[i]);"
        result = analyze_kernel(dotprod, {"N": 8}, portfolio=True)
        codes = {d.code for d in result.report}
        assert "RPA013" not in codes  # waived: proven accumulation
        assert "RPA055" in codes
        assert result.ok  # warnings only — exit code 0
        (nest,) = result.portfolio.nests
        assert nest.pattern is NestPattern.REDUCTION

    def test_non_reduction_overwrite_still_errors(self):
        overwrite = "for(i=0; i<N; i++)\n  S: s[0] = f(a[i], s[0]);"
        result = analyze_kernel(overwrite, {"N": 8}, portfolio=True)
        codes = {d.code for d in result.report}
        assert "RPA013" in codes or "RPA022" in codes
        assert not result.ok
