"""Parallel-execution battery for privatized reduction schedules.

The three execution paths — serial, thread pool, process pool — must
agree **bit-exactly** with each other for any part count (the join folds
privates in one fixed order inside one task), and agree with sequential
execution bit-exactly for min/max and integer-exact sums, or within an
explicit associativity-aware tolerance for true floating-point sums.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.interp import (
    Interpreter,
    execute_privatized,
    privatized_matches,
)
from repro.pipeline.detect import detect_pipeline
from repro.schedule import (
    build_privatized_graph,
    check_legality,
    generate_task_ast,
    plan_privatization,
    privatize_info,
)
from repro.scop import DepKind

BACKENDS = ("serial", "threads", "processes")

DOTPROD = """
for(i=0; i<N; i++)
  S: s[0] += dot(a[i], b[i]);
"""

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

MINMAX = """
for(i=0; i<N; i++)
  S: lo[0] = min(lo[0], A[i]);
for(i=0; i<N; i++)
  R: hi[0] = max(hi[0], A[i]);
"""

SUBSWAP = """
for(i=0; i<N; i++)
  S: T[i] = A[i] - T[i];
for(i=0; i<N; i++)
  R: T[N-1-i] = B[i] - T[N-1-i];
"""

#: two accumulations into one cell in one loop body: T[i] -> S[i+1]
#: runs against textual order, and the plan must relax it too
TWO_IN_ONE_BODY = """
for(i=0; i<N; i++) {
  S: H[0] += f(A[i]);
  T: H[0] += g(B[i]);
}
"""

KERNELS = {
    "dotprod": DOTPROD,
    "histogram": HISTOGRAM,
    "sumstencil": SUMSTENCIL,
    "minmax": MINMAX,
    "two-in-one-body": TWO_IN_ONE_BODY,
}


def privatized_setup(source, n, parts):
    interp = Interpreter.from_source(source, {"N": n})
    plan = plan_privatization(interp.scop)
    assert plan.groups, "battery kernels must privatize"
    info = detect_pipeline(
        interp.scop, kinds=tuple(DepKind), validate=False
    )
    pinfo = privatize_info(info, plan, parts=parts)
    # what every backend replays must order each pair the plan keeps
    graph, _ = build_privatized_graph(generate_task_ast(pinfo), plan)
    check_legality(
        interp.scop, pinfo, graph, relaxed=plan.relaxed()
    ).raise_if_illegal()
    return interp, plan, pinfo


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("n", [5, 8, 17])
def test_three_paths_are_bit_identical(kernel, n):
    """serial ≡ threads ≡ processes, bitwise, for the same part count."""
    interp, plan, pinfo = privatized_setup(KERNELS[kernel], n, parts=3)
    stores = {}
    for backend in BACKENDS:
        out, stats = execute_privatized(
            interp, pinfo, plan, backend=backend, workers=2
        )
        stores[backend] = out
        assert stats.privatization is not None
        assert stats.privatization["privates"] >= 1
        # no private scratch buffer leaks into the caller's store
        assert not any(a.startswith("__priv_") for a in out.arrays)
    assert stores["serial"].equal(stores["threads"])
    assert stores["serial"].equal(stores["processes"])


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("parts", [1, 2, 4, 7])
def test_privatized_matches_sequential(kernel, parts):
    """Default stores hold small integers in float64, so even the sum
    groups reassociate exactly: every kernel matches sequential
    bit-exactly here."""
    interp, plan, pinfo = privatized_setup(KERNELS[kernel], 12, parts)
    seq = interp.run_sequential(interp.new_store())
    out, _ = execute_privatized(interp, pinfo, plan, backend="serial")
    ok, detail = privatized_matches(plan, seq, out)
    assert ok, detail
    assert seq.equal(out), "integer-exact kernels must match bitwise"


def test_min_max_groups_are_exact_on_arbitrary_floats():
    """Reordering min/max is exact in float64 — the battery asserts
    bitwise equality even on irrational-ish inputs."""
    interp, plan, pinfo = privatized_setup(MINMAX, 16, parts=4)
    assert {g.group for g in plan.groups} == {"min", "max"}
    rng = np.random.default_rng(20260809)
    seed = interp.new_store()
    seed.arrays["A"].data[:] = rng.standard_normal(
        seed.arrays["A"].data.shape
    )
    seq = interp.run_sequential(seed.copy())
    for backend in BACKENDS:
        out, _ = execute_privatized(
            interp, pinfo, plan, backend=backend, workers=2,
            store=seed.copy(),
        )
        ok, detail = privatized_matches(plan, seq, out)
        assert ok and detail == "bit-exact", detail


def test_fp_sum_reassociation_stays_within_tolerance():
    """With genuinely non-representable addends the privatized sum may
    differ from sequential in the last ulps — ``privatized_matches``
    accepts it (and says so), plain bitwise equality may not."""
    interp, plan, pinfo = privatized_setup(DOTPROD, 64, parts=8)
    rng = np.random.default_rng(7)
    seed = interp.new_store()
    for name in ("a", "b"):
        seed.arrays[name].data[:] = rng.uniform(
            0.1, 0.9, seed.arrays[name].data.shape
        )
    seq = interp.run_sequential(seed.copy())
    outs = []
    for backend in BACKENDS:
        out, _ = execute_privatized(
            interp, pinfo, plan, backend=backend, workers=2,
            store=seed.copy(),
        )
        ok, detail = privatized_matches(plan, seq, out)
        assert ok, detail
        outs.append(out)
    # the three privatized paths still agree bitwise with *each other*
    assert outs[0].equal(outs[1]) and outs[0].equal(outs[2])


def test_privatized_matches_compares_bits():
    """Both branches treat the same NaN as equal; the exact branch (a
    non-accumulator array) tells ``0.0`` from ``-0.0``."""
    interp = Interpreter.from_source(HISTOGRAM, {"N": 6})
    plan = plan_privatization(interp.scop)
    assert [g.array for g in plan.groups] == ["H"]  # sum: tolerance branch
    seq = interp.run_sequential(interp.new_store())
    seq.arrays["H"].data[0, 0] = np.nan
    seq.arrays["A"].data[0, 0] = np.nan
    assert privatized_matches(plan, seq, seq.copy()) == (True, "bit-exact")
    flipped = seq.copy()
    flipped.arrays["A"].data[1, 1] = 0.0
    seq.arrays["A"].data[1, 1] = -0.0
    ok, detail = privatized_matches(plan, seq, flipped)
    assert not ok and detail == "A: exact comparison failed"


def test_part_count_does_not_change_the_result():
    interp = Interpreter.from_source(HISTOGRAM, {"N": 10})
    plan = plan_privatization(interp.scop)
    info = detect_pipeline(
        interp.scop, kinds=tuple(DepKind), validate=False
    )
    seq = interp.run_sequential(interp.new_store())
    for parts in (1, 2, 5, 50):
        pinfo = privatize_info(info, plan, parts=parts)
        out, stats = execute_privatized(interp, pinfo, plan)
        assert seq.equal(out)
        expected = min(parts, 100)
        assert stats.privatization["parts"] == {
            "R": expected, "S": expected
        }


def test_join_task_appears_in_runtime_events():
    """Observability: the generated join must be visible as a task event
    so traces show the combine step."""
    interp, plan, pinfo = privatized_setup(HISTOGRAM, 8, parts=4)
    _, stats = execute_privatized(
        interp, pinfo, plan, backend="threads", workers=2,
        collect_events=True,
    )
    assert stats.privatization["joins"] == ["join(H)"]
    assert stats.events is not None
    statements = {e.statement for e in stats.events.events}
    assert "join(H)" in statements


def test_subswap_has_no_plan_and_falls_back_unchanged():
    """``execute_privatized`` with an empty plan is the standard
    measured path — bit-identical to it, no privates, no joins."""
    interp = Interpreter.from_source(SUBSWAP, {"N": 8})
    plan = plan_privatization(interp.scop)
    assert not plan.groups
    info = detect_pipeline(
        interp.scop, kinds=tuple(DepKind), validate=False
    )
    seq = interp.run_sequential(interp.new_store())
    out, stats = execute_privatized(interp, info, plan)
    assert seq.equal(out)
    assert stats.privatization is None
