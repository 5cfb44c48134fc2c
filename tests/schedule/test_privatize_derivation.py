"""The privatization plan is one derivation with one check.

:func:`repro.schedule.plan_privatization` derives each group from the
SCoP: the candidate proof removes every incident relation of
``iter_dependences`` in full and is verified once.  These tests pin

* what that costs — one ``verify_privatization`` per group, cold and
  warm, and no pattern-portfolio pass on the compile path;
* that it is the same plan as the partition-based planner (gates, then
  every incident partition's residual, then one verification), kept
  below as ``reference_plan``: the two may differ only on kernels with
  a dependence from a later statement of a loop body to an earlier one,
  which the partition walk skipped;
* that the proof JSON is byte-identical to a per-element rendering.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.portfolio.partition import partition_pair
from repro.analysis.portfolio.privatize import (
    PrivatizationProof,
    ReductionClaim,
    RemovedDependence,
)
from repro.analysis.portfolio.reduction import find_reduction_specs
from repro.driver import TransformOptions, analyze
from repro.interp import Interpreter
from repro.schedule import plan_privatization
from repro.schedule.legality import verify_privatization
from repro.scop import DepKind, iter_dependences
from repro.workloads.pkernels import TABLE9

from ..fuzz.test_reduction_fuzz import generate_reduction_samples

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "kernels"

HISTOGRAM = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""

MINMAX = """
for(i=0; i<N; i++)
  S: lo[0] = min(lo[0], A[i]);
for(i=0; i<N; i++)
  R: hi[0] = max(hi[0], A[i]);
"""

#: a member whose read array a later non-member overwrites: the anti
#: relation S -> T is wholly true, so 'H' is refused with its count
TRUE_DEPENDENCE = """
for(i=0; i<N; i++)
  S: H[0] += A[i];
for(i=0; i<N; i++)
  T: A[i] = f(B[i]);
"""

MIXED_GROUPS = """
for(i=0; i<N; i++)
  S: T[i] += A[i];
for(i=0; i<N; i++)
  R: T[i] = min(T[i], B[i]);
"""

#: two accumulations into one cell inside one loop body: T[i] -> S[i+1]
#: runs against textual order
TWO_IN_ONE_BODY = """
for(i=0; i<N; i++) {
  S: H[0] += f(A[i]);
  T: H[0] += g(B[i]);
}
"""


def scop_of(source, params):
    return Interpreter.from_source(source, params).scop


# ----------------------------------------------------------------------
# the partition-based planner, kept as an independent reference
# ----------------------------------------------------------------------
def reference_partitions(scop, specs):
    """Partitions of every (source, target) with the target not before
    the source in textual order."""
    out = {}
    for src in scop.statements:
        for tgt in scop.statements:
            if tgt.position < src.position:
                continue
            for kind in DepKind:
                part = partition_pair(scop, src, tgt, kind, specs)
                if not part.full.is_empty():
                    out[part.key] = part
    return out


def reference_plan(scop):
    """``(groups, rejected)``: each group as ``(plan row, proof)``."""
    specs = find_reduction_specs(s.assign for s in scop.statements)
    partitions = reference_partitions(scop, specs)
    groups, rejected = [], []
    for array in sorted({spec.array for spec in specs.values()}):
        members = sorted(n for n, s in specs.items() if s.array == array)
        ops = {specs[m].group for m in members}
        if len(ops) != 1:
            rejected.append(
                (array, "updates mix operator groups "
                 + "/".join(sorted(g.value for g in ops)))
            )
            continue
        outside = sorted(
            st.name
            for st in scop.statements
            if st.name not in members
            and any(a.array == array for a in (*st.reads, *st.writes))
        )
        if outside:
            rejected.append(
                (array, "accessed by non-reduction statement(s) "
                 + ", ".join(outside))
            )
            continue
        removed, reason = [], None
        for part in partitions.values():
            if part.source not in members and part.target not in members:
                continue
            if not part.residual.is_empty():
                reason = (
                    f"{part.kind.value} {part.source} -> {part.target} "
                    f"keeps {len(part.residual)} true dependence pair(s)"
                )
                break
            removed.append(
                RemovedDependence(
                    part.source, part.target, part.kind,
                    part.reduction_carried,
                )
            )
        if reason is not None:
            rejected.append((array, reason))
            continue
        proof = PrivatizationProof(
            tuple(ReductionClaim.of(specs[m]) for m in members),
            tuple(removed),
        )
        check = verify_privatization(scop, proof)
        if not check.ok:
            rejected.append(
                (array, f"proof re-verification failed: {check.failures[0]}")
            )
            continue
        group = next(iter(ops)).value
        row = {
            "array": array,
            "group": group,
            "statements": members,
            "removed_pairs": proof.removed_pairs,
        }
        groups.append((row, proof))
    return groups, rejected


def has_reversed_pairs(scop) -> bool:
    return any(
        tgt.position < src.position
        for src, tgt, _kind, _rel in iter_dependences(scop)
    )


def assert_same_plan(scop):
    plan = plan_privatization(scop)
    ref_groups, ref_rejected = reference_plan(scop)
    assert list(plan.rejected) == ref_rejected
    assert len(plan.groups) == len(ref_groups)
    for group, (ref_row, ref_proof) in zip(plan.groups, ref_groups):
        assert group.verification.ok is True
        assert {
            "array": group.array,
            "group": group.group,
            "statements": list(group.statements),
            "removed_pairs": group.proof.removed_pairs,
        } == ref_row
        assert group.proof.to_dict() == ref_proof.to_dict()
    return plan


def _inputs():
    for name in sorted(TABLE9):
        for n in (6, 9):
            yield f"{name}@{n}", TABLE9[name].source(n), {}
    for path in sorted(EXAMPLES.glob("*.c")):
        yield path.stem, path.read_text(), {"N": 10}
    from ledger.workloads import generate

    for seed in (1, 2):
        for case in generate("reduction", seed, tiny=True).cases:
            yield f"{case.id}/{seed}", case.source, case.params
    for label, source in (
        ("histogram", HISTOGRAM),
        ("minmax", MINMAX),
        ("true-dependence", TRUE_DEPENDENCE),
        ("mixed-groups", MIXED_GROUPS),
    ):
        yield label, source, {"N": 7}


@pytest.mark.parametrize(
    "source,params", [pytest.param(s, p, id=i) for i, s, p in _inputs()]
)
def test_derivation_equals_the_partition_planner(source, params):
    scop = scop_of(source, params)
    assert not has_reversed_pairs(scop)
    assert_same_plan(scop)


def test_derivation_equals_the_partition_planner_on_fuzz_kernels(
    pytestconfig,
):
    seed = pytestconfig.getoption("--fuzz-seed")
    planned = 0
    for sample in generate_reduction_samples(seed ^ 0xD1FF, 60):
        scop = scop_of(sample.source, {})
        assert not has_reversed_pairs(scop), sample.describe()
        planned += bool(assert_same_plan(scop).groups)
    assert planned > 0, "no fuzz kernel privatized: generator broken"


def test_true_dependence_refusal_names_the_relation():
    plan = plan_privatization(scop_of(TRUE_DEPENDENCE, {"N": 7}))
    assert plan.rejected == (
        ("H", "anti S -> T keeps 7 true dependence pair(s)"),
    )


def test_reversed_body_pairs_are_what_the_derivation_adds():
    """The one permitted difference: the partition walk never saw
    T -> S, so its proof relaxes too little; the derivation covers it."""
    scop = scop_of(TWO_IN_ONE_BODY, {"N": 6})
    assert has_reversed_pairs(scop)
    (group,) = plan_privatization(scop).groups
    ((_, ref_proof),) = reference_plan(scop)[0]
    derived = group.proof.relaxed_map()
    reference = ref_proof.relaxed_map()
    assert reference.items() <= derived.items()
    assert {k[:2] for k in derived.keys() - reference.keys()} == {("T", "S")}


# ----------------------------------------------------------------------
# verification work: one check per group, no portfolio pass
# ----------------------------------------------------------------------
@pytest.fixture
def counted(monkeypatch):
    import repro.analysis.explain as explain
    import repro.analysis.portfolio as portfolio
    import repro.analysis.portfolio.analyze as portfolio_analyze
    import repro.schedule.legality as legality

    calls = {"verify": 0, "portfolio": 0, "classify": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        legality, "verify_privatization",
        counting("verify", legality.verify_privatization),
    )
    run = counting("portfolio", portfolio_analyze.run_portfolio)
    monkeypatch.setattr(portfolio, "run_portfolio", run)
    monkeypatch.setattr(portfolio_analyze, "run_portfolio", run)
    classify = counting("classify", explain.classify_nest_pairs)
    monkeypatch.setattr(explain, "classify_nest_pairs", classify)
    monkeypatch.setattr(portfolio_analyze, "classify_nest_pairs", classify)
    return calls


@pytest.mark.parametrize(
    "source,groups", [(HISTOGRAM, 1), (MINMAX, 2)], ids=["one", "two"]
)
def test_verification_runs_once_per_group_cold_and_warm(
    tmp_path, counted, source, groups
):
    from repro.service import cached_analysis
    from repro.service.compile import load_analysis
    from repro.store import ArtifactStore, artifact_key

    params = {"N": 8}
    opts = TransformOptions(privatize=True, verify=False, workers=2)
    store = ArtifactStore(str(tmp_path))
    interp = Interpreter.from_source(source, params)
    analysis, status = cached_analysis(interp, source, params, opts, store)
    assert status == "cold" and len(analysis.plan.groups) == groups
    assert counted == {"verify": groups, "portfolio": 0, "classify": 0}

    artifact = store.get(artifact_key(source, params, opts))
    counted["verify"] = 0
    warm = load_analysis(Interpreter.from_source(source, params), opts,
                         artifact)
    assert len(warm.plan.groups) == groups
    assert counted == {"verify": groups, "portfolio": 0, "classify": 0}

    counted["verify"] = 0
    analyze(Interpreter.from_source(source, params), opts)
    assert counted["verify"] == groups


# ----------------------------------------------------------------------
# the proof JSON
# ----------------------------------------------------------------------
def per_element(r: RemovedDependence) -> dict:
    return {
        "source": r.source,
        "target": r.target,
        "kind": r.kind.value,
        "pairs": len(r.pairs),
        "dims": [r.pairs.n_in, r.pairs.n_out],
        "instance_pairs": [
            {
                "target": [int(v) for v in r.pairs.in_part[k]],
                "source": [int(v) for v in r.pairs.out_part[k]],
            }
            for k in range(len(r.pairs))
        ],
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_proof_json_is_byte_identical_to_per_element_rendering(seed):
    from ledger.workloads import generate

    for case in generate("reduction", seed, tiny=True).cases:
        plan = plan_privatization(scop_of(case.source, case.params))
        removed = [r for g in plan.groups for r in g.proof.removed]
        assert removed, case.id
        for r in removed:
            assert json.dumps(r.to_dict()) == json.dumps(per_element(r))
