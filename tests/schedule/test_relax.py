"""The one relaxation consumer: hybrid frontier tokens and privatization
join rows written into one task AST (``repro.schedule.relax``)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.driver import TransformOptions, analyze, replay
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import check_legality, generate_task_ast, relax
from repro.service import cached_analysis
from repro.store import ArtifactStore
from repro.store.disk import session_counters
from repro.tasking import TaskGraph
from repro.workloads import TABLE9
from tests.conftest import dense_reach, reference_relax_self_chains

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "kernels"
PKERNELS = sorted(TABLE9, key=lambda k: int(k[1:]))


@pytest.mark.parametrize("name", PKERNELS)
def test_frontier_graph_orders_what_the_prefix_graph_orders(name):
    """Tokens on a relaxed source's frontier reach what tokens on every
    block up to it reach, so the legality reports are equal too."""
    for n in (6, 10):
        scop = Interpreter.from_source(TABLE9[name].source(n), {}).scop
        for coarsen in (1, 3):
            info = detect_pipeline(scop, coarsen=coarsen)
            raw = generate_task_ast(info)
            frontier = TaskGraph.from_task_ast(
                relax(scop, info, raw, hybrid=True)
            )
            prefix = TaskGraph.from_task_ast(
                reference_relax_self_chains(scop, info, raw)
            )
            assert frontier.num_edges <= prefix.num_edges
            assert np.array_equal(
                dense_reach(frontier), dense_reach(prefix)
            ), (n, coarsen)
            report = check_legality(scop, info, frontier)
            assert report.ok
            assert report == check_legality(scop, info, prefix)


def test_hybrid_p5_at_14_keeps_few_edges():
    """At most 5x the 2,265 row edges lowering's reduction keeps (the
    prefix tokens had 117,240)."""
    interp = Interpreter.from_source(TABLE9["P5"].source(14), {})
    info = detect_pipeline(interp.scop)
    ast = relax(interp.scop, info, generate_task_ast(info), hybrid=True)
    assert TaskGraph.from_task_ast(ast).num_edges <= 11_325


def test_no_evidence_leaves_the_ast_itself():
    interp = Interpreter.from_source(TABLE9["P1"].source(6), {})
    info = detect_pipeline(interp.scop)
    ast = generate_task_ast(info)
    assert relax(interp.scop, info, ast) is ast
    relaxed = relax(interp.scop, info, ast, hybrid=True)
    assert relax(interp.scop, info, relaxed, hybrid=True) is relaxed


@pytest.mark.parametrize("kernel", ["histogram.c", "sumstencil.c"])
def test_privatize_and_hybrid_compose(kernel):
    """One relaxation carries both: the members unchained under one join
    row per group, each backend's replay within ``privatized_matches``
    and bit-identical to the others."""
    source = (EXAMPLES / kernel).read_text()
    interp = Interpreter.from_source(source, {"N": 10})
    a = analyze(interp, TransformOptions(
        privatize=True, hybrid=True, workers=2
    ))
    arrays = a.task_ast.arrays
    assert a.privatized and a.legality.ok
    assert [j.array for j in arrays.joins] == list(a.joins)
    assert not any(arrays.chained)
    oracle = interp.run_sequential(interp.new_store())
    outs = []
    for backend in ("serial", "threads", "processes"):
        out, _, (ok, detail) = replay(interp, a, backend, 2, oracle=oracle)
        assert ok, (backend, detail)
        outs.append(out)
    assert all(outs[0].equal(out) for out in outs[1:])


def test_a_warm_load_whose_plan_lacks_a_group_recompiles(
    tmp_path, monkeypatch
):
    """Join rows are never read from disk: a re-verified plan without
    the stored group leaves the stored members unchained with no join,
    which the load refuses — a counted replay failure, then a cold
    compile."""
    import repro.schedule.privatize as privatize
    from repro.schedule import PrivatizationPlan

    source = (EXAMPLES / "histogram.c").read_text()
    opts = TransformOptions(privatize=True, workers=2)
    store = ArtifactStore(str(tmp_path))

    def compile_once():
        interp = Interpreter.from_source(source, {"N": 8})
        return cached_analysis(interp, source, {"N": 8}, opts, store)

    assert compile_once()[1] == "cold"
    monkeypatch.setattr(
        privatize, "plan_from_proofs", lambda scop, proofs: (
            PrivatizationPlan(())
        ),
    )
    before = session_counters().get("replay_failures", 0)
    analysis, status = compile_once()
    assert status == "cold"
    assert session_counters().get("replay_failures", 0) == before + 1
    assert analysis.privatized and analysis.task_ast.arrays.joins
