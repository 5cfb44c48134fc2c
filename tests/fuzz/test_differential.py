"""Differential fuzzing of the whole pipeline stack.

For every seeded random program (see :mod:`tests.fuzz.generator`):

* **Schedule differential** — the sequential interpretation must equal a
  block-pipelined execution (``execute_blocks_in_order``) of a *randomly
  chosen* topological order of the task graph.
* **Cache differential** — the entire path (SCoP extraction, Algorithm 1,
  task AST, execution) must produce bit-identical arrays with the
  Presburger op cache enabled and disabled.
* **Reduction differential** — the lowered plan's transitively reduced
  schedule, hybrid off and on, must order what the unreduced quotient
  orders, and a random topological order of it must reproduce the
  sequential arrays.
* **Oracle differential** — ``run_sequential``, which computes on Python
  floats, must equal ``reference_program`` (tests/conftest.py), the
  NumPy-scalar oracle, byte for byte on every sample, in the tier-1
  sweep and in the nightly tier-2 campaign.
* **Legality differential** — ``check_legality``, which reads the SCoP's
  batched dependence table as arrays, must report what
  ``reference_check_legality`` (tests/conftest.py: one join per
  statement pair and kind, dense reachability) reports, on the task
  graph as compiled and again with a random third of its edges dropped,
  in the tier-1 sweep and in the nightly tier-2 campaign.

Reproduce one run exactly with::

    pytest tests/fuzz -q --fuzz-seed 12345 --fuzz-samples 200

and the oracle differential of one seed alone with::

    pytest tests/fuzz/test_differential.py -q --fuzz-seed 12345 \
        --fuzz-samples 200 -k pipelined_execution_matches_sequential
"""

from __future__ import annotations

import random

import pytest

from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.presburger import cache
from repro.schedule import check_legality, generate_task_ast
from repro.tasking import TaskGraph
from tests.conftest import (
    KERNEL_FORMS,
    compile_for_exec,
    execute_blocks_in_order,
    fused_statements,
    reference_check_legality,
    reference_run,
    run_whole_blocks,
)
from tests.interp.test_plan import (
    assert_claims_are_exact,
    assert_reduced_with_the_same_order,
    graph_quotient,
)

from tests.tasking.test_chain_reach import without_edges

from .generator import generate_samples, random_topological_order


def _analysis_blocks(sample):
    """Frontend → Algorithm 1 → task AST → graph; returns all of it."""
    interp = Interpreter.from_source(sample.source, {})
    info = detect_pipeline(interp.scop)
    ast = generate_task_ast(info)
    graph = TaskGraph.from_task_ast(ast)
    return interp, ast, graph


def _checked_sequential(interp, sample):
    """``run_sequential`` of a fresh store, asserted byte for byte equal
    to the NumPy-scalar ``reference_program``."""
    seq = interp.run_sequential(interp.new_store())
    assert seq.equal(reference_run(interp)), (
        f"{sample.describe()}: the oracle diverged from the NumPy-scalar "
        f"reference\n{sample.source}"
    )
    return seq


def _assert_legality_equals_reference(interp, graph, sample, rng):
    """``check_legality`` reports what ``reference_check_legality`` does
    on ``graph`` and on a copy with a random third of its edges dropped
    (which violates dependences on most samples)."""
    info = detect_pipeline(interp.scop)
    dropped = without_edges(graph, lambda pred, succ: rng.random() >= 1 / 3)
    for g in (graph, dropped):
        got = check_legality(interp.scop, info, g)
        want = reference_check_legality(interp.scop, info, g)
        assert got == want, (
            f"{sample.describe()}: legality diverged from the reference "
            f"({got} vs {want})\n{sample.source}"
        )
    return not got.ok  # of the dropped edges


def _run_pipelined(interp, graph, order):
    store = interp.new_store()
    blocks = [graph.tasks[tid].block for tid in order]
    return execute_blocks_in_order(interp, store, blocks)


def _store_bytes(store):
    """Canonical bit-exact snapshot of every array."""
    return {
        name: view.data.tobytes()
        for name, view in sorted(store.arrays.items())
    }


@pytest.fixture(scope="module")
def samples(pytestconfig):
    seed = pytestconfig.getoption("--fuzz-seed")
    count = pytestconfig.getoption("--fuzz-samples")
    return generate_samples(seed, count)


def test_pipelined_execution_matches_sequential(samples, pytestconfig):
    """Random topological orders are semantics-preserving on every
    sample, and the oracle equals its NumPy-scalar reference."""
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = random.Random(seed ^ 0x5EED)
    for sample in samples:
        interp, _ast, graph = _analysis_blocks(sample)
        seq = _checked_sequential(interp, sample)
        order = random_topological_order(graph, rng)
        par = _run_pipelined(interp, graph, order)
        assert seq.equal(par), (
            f"{sample.describe()}: pipelined execution diverged "
            f"(max abs diff {seq.max_abs_diff(par):g})\n{sample.source}"
        )


def test_legality_equals_reference(samples, pytestconfig):
    """The array legality check equals the per-pair reference on every
    sample, as compiled and with edges dropped."""
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = random.Random(seed ^ 0x1E6A1)
    broken = 0
    for sample in samples:
        interp, _ast, graph = _analysis_blocks(sample)
        broken += _assert_legality_equals_reference(interp, graph, sample, rng)
    # the dropped edges must reach the violation path, too
    assert broken > len(samples) // 2


def test_cache_on_off_results_bit_identical(samples):
    """The op cache is semantically invisible end to end, per sample."""
    for sample in samples:
        results = {}
        for enabled in (True, False):
            with cache.overridden(enabled=enabled):
                cache.cache_clear()
                interp, ast, graph = _analysis_blocks(sample)
                seq = interp.run_sequential(interp.new_store())
                order = graph.topological_order()
                par = _run_pipelined(interp, graph, order)
                results[enabled] = (
                    _store_bytes(seq),
                    _store_bytes(par),
                    [
                        (b.statement, b.block_id, b.iterations.tobytes())
                        for b in ast.all_blocks()
                    ],
                )
        assert results[True] == results[False], (
            f"{sample.describe()}: cache-enabled run differs from "
            f"cache-disabled run\n{sample.source}"
        )


def test_generator_is_reproducible():
    a = generate_samples(seed=99, count=10)
    b = generate_samples(seed=99, count=10)
    assert [s.kernel for s in a] == [s.kernel for s in b]
    assert [s.n for s in a] == [s.n for s in b]


@pytest.mark.tier2
def test_long_fuzz_campaign(pytestconfig):
    """Nightly: a 200-sample schedule + oracle + legality differential
    sweep."""
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = random.Random(seed ^ 0xCA3)
    for sample in generate_samples(seed + 1, 200):
        interp, _ast, graph = _analysis_blocks(sample)
        _assert_legality_equals_reference(interp, graph, sample, rng)
        seq = _checked_sequential(interp, sample)
        par = _run_pipelined(
            interp, graph, random_topological_order(graph, rng)
        )
        assert seq.equal(par), sample.describe()


def test_process_backend_matches_serial(samples):
    """A few samples through the full process-backend execution path."""
    from repro.interp import execute_measured

    for sample in samples[:4]:
        interp = Interpreter.from_source(sample.source, {})
        seq = interp.run_sequential(interp.new_store())
        info = detect_pipeline(interp.scop, coarsen=8)
        store, stats = execute_measured(
            interp, info, backend="processes", workers=2
        )
        assert seq.equal(store), sample.describe()
        assert stats.scheduler["tasks"] > 0


def test_threads_replay_runs_exact_claims(samples):
    """One threaded replay per sample: its claims are the exact
    contraction of the plan's schedule, and it is the oracle."""
    for sample in samples:
        interp, info = compile_for_exec(sample.source, "auto", coarsen=3)
        assert_claims_are_exact(
            interp, interp.exec_plan(info), interp.oracle()
        )


def _run_fused_blocks(sample, fuse):
    """Whole-statement block execution with the given fuse mode."""
    interp = Interpreter.from_source(sample.source, {}, fuse=fuse)
    return run_whole_blocks(interp), interp


def _assert_both_forms_match_oracle(sample, monkeypatch):
    """The sequential oracle vs the loop forms alone (``fuse="off"``) vs
    all-slices vs all-loops on one sample (the hand-written shape family
    — permuted writes, ``iv`` values, compound ops, ``.copy()`` bodies —
    is ``tests/interp/test_vectorize.py``).  Returns whether any block
    ran in slice form."""
    from repro.interp import fused

    scalar, interp = _run_fused_blocks(sample, "off")
    assert interp.run_sequential(interp.new_store()).equal(scalar), (
        f"{sample.describe()}: loop forms diverged\n{sample.source}"
    )
    for form, points in KERNEL_FORMS.items():
        with monkeypatch.context() as patch:
            patch.setattr(fused, "LOOP_FORM_POINTS", points)
            out, interp = _run_fused_blocks(sample, "auto")
        assert scalar.equal(out), (
            f"{sample.describe()}: fused execution ({form}) diverged "
            f"(max abs diff {scalar.max_abs_diff(out):g})\n{sample.source}"
        )
    return bool(fused_statements(interp))


def test_fused_execution_matches_interpreter(samples, monkeypatch):
    """Both forms of the kernels, and the loop forms alone, are
    bit-identical to the sequential oracle per sample."""
    fused_any = False
    for sample in samples:
        fused_any |= _assert_both_forms_match_oracle(
            sample, monkeypatch
        )
    # the sample family must actually exercise the fused path
    assert fused_any


def test_fuse_fuzz_campaign(pytestconfig, monkeypatch):
    """Opt-in: a 2x200-sample fused-vs-oracle bit-equality sweep
    (oracle vs loop forms alone vs all-slices vs all-loops).

    Enable with ``pytest tests/fuzz --fuzz-fuse``; every 25th sample
    additionally runs the full fused task program (chain merging
    included), rotating through the serial, threads and process
    backends.  Two seed offsets: ``+4`` is this campaign's own, ``+2`` the
    retired vectorized campaign's, so the sampled kernel set did not
    shrink when the tiers collapsed.
    """
    if not pytestconfig.getoption("--fuzz-fuse"):
        pytest.skip("enable with --fuzz-fuse")
    from repro.interp import execute_measured

    seed = pytestconfig.getoption("--fuzz-seed")
    for offset in (2, 4):
        for sample in generate_samples(seed + offset, 200):
            _assert_both_forms_match_oracle(sample, monkeypatch)
            if sample.index % 25 == 0:
                backend = ("serial", "threads", "processes")[
                    sample.index // 25 % 3
                ]
                interp = Interpreter.from_source(sample.source, {})
                store, _stats = execute_measured(
                    interp, detect_pipeline(interp.scop, coarsen=8),
                    backend=backend, workers=2,
                )
                assert interp.run_sequential(interp.new_store()).equal(
                    store
                ), sample.describe()


def _closure_preserved(interp, info, hybrid):
    """The lowered plan (of the hybrid-relaxed AST when ``hybrid``): its
    schedule is reduced and orders exactly what the unreduced quotient
    of the checked graph orders."""
    from repro.schedule import relax

    ast = relax(interp.scop, info, generate_task_ast(info), hybrid=hybrid)
    plan = interp.exec_plan(info, ast)
    assert_reduced_with_the_same_order(
        plan.schedule.preds(), graph_quotient(plan)
    )
    return plan


def _run_plan_in(interp, plan, rng):
    """The plan's rows in a random topological order of its schedule."""
    from types import SimpleNamespace

    from repro.interp.plan import bind_rows

    sched = plan.schedule
    order = random_topological_order(
        SimpleNamespace(
            preds=sched.preds(), succs=sched.succs, tasks=plan.rows
        ),
        rng,
    )
    store = interp.new_store()
    call = bind_rows(interp.funcs, plan.rows, plan.streams, store)
    for row in order:
        call(row)
    return store


def _assert_reduced_plans_run(sample, rng):
    for hybrid in (False, True):
        interp = Interpreter.from_source(sample.source, {})
        info = detect_pipeline(interp.scop)
        plan = _closure_preserved(interp, info, hybrid)
        seq = interp.run_sequential(interp.new_store())
        par = _run_plan_in(interp, plan, rng)
        assert seq.equal(par), (
            f"{sample.describe()} (hybrid={hybrid}): reduced-schedule "
            f"execution diverged (max abs diff {seq.max_abs_diff(par):g})"
            f"\n{sample.source}"
        )


def test_reduction_preserves_transitive_closure(samples, pytestconfig):
    """The reduction of the lowered schedule never changes the enforced
    partial order.

    On every fuzzed program, with ``hybrid`` off and on, the plan's
    schedule has the reachability of the unreduced quotient, and running
    its rows in a random topological order of it reproduces the
    sequential arrays.
    """
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = random.Random(seed ^ 0x2ED0CE)
    for sample in samples:
        _assert_reduced_plans_run(sample, rng)


def test_reduce_fuzz_campaign(pytestconfig):
    """Opt-in: the same check on 200 further samples.

    Enable with ``pytest tests/fuzz --fuzz-reduce``.
    """
    if not pytestconfig.getoption("--fuzz-reduce"):
        pytest.skip("enable with --fuzz-reduce")
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = random.Random(seed ^ 0x2ED1CE)
    for sample in generate_samples(seed + 3, 200):
        _assert_reduced_plans_run(sample, rng)


def test_random_topological_orders_are_legal(samples):
    """Every emitted order respects every precedence edge."""
    rng = random.Random(7)
    sample = samples[0]
    _interp, _ast, graph = _analysis_blocks(sample)
    for _ in range(5):
        order = random_topological_order(graph, rng)
        pos = {tid: k for k, tid in enumerate(order)}
        assert sorted(order) == list(range(len(graph.tasks)))
        for succ, preds in enumerate(graph.preds):
            for pred in preds:
                assert pos[pred] < pos[succ]
