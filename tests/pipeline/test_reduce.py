"""Transitive reduction of the block dependency relations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.interp import Interpreter
from repro.pipeline import (
    detect_pipeline,
    reduce_dependencies,
    task_graph_stats,
)
from repro.pipeline.reduce import _reduce_exact
from repro.schedule import generate_task_ast
from repro.tasking import TaskGraph
from repro.workloads import TABLE9

from ..conftest import LISTING3


def _graph(info):
    return TaskGraph.from_task_ast(generate_task_ast(info))


def _reachability(info):
    return _graph(info).reachability()


def _relations(info):
    """Canonical (statement, source, relation) triples for comparison."""
    return {
        (name, pos): dep.relation
        for name, deps in info.in_deps.items()
        for pos, dep in enumerate(deps)
    }


@pytest.fixture(scope="module")
def listing3_info():
    interp = Interpreter.from_source(LISTING3, {"N": 16})
    return detect_pipeline(interp.scop)


def test_reduction_removes_slots_on_listing3(listing3_info):
    reduced, stats = reduce_dependencies(listing3_info)
    assert stats.slots_after < stats.slots_before
    assert stats.removed == stats.slots_before - stats.slots_after
    assert 0.0 < stats.ratio < 1.0
    # the per-dependency records tile the totals exactly
    assert stats.slots_before == sum(
        r.slots_before for r in stats.per_dependency
    )
    assert stats.slots_after == sum(
        r.slots_after for r in stats.per_dependency
    )


def test_reduction_preserves_reachability_on_listing3(listing3_info):
    reduced, _stats = reduce_dependencies(listing3_info)
    assert np.array_equal(
        _reachability(listing3_info), _reachability(reduced)
    )


def test_exact_and_index_paths_bit_identical(listing3_info):
    by_index, s_index = reduce_dependencies(listing3_info)
    by_exact, s_exact = _reduce_exact(listing3_info)
    assert s_index.method == "index"
    assert s_exact.method == "exact"
    assert s_index.slots_after == s_exact.slots_after
    assert _relations(by_index) == _relations(by_exact)


@pytest.mark.parametrize("name", sorted(TABLE9))
def test_exact_and_index_agree_on_table9(name):
    interp = Interpreter.from_source(TABLE9[name].source(10), {})
    info = detect_pipeline(interp.scop)
    by_index, _ = reduce_dependencies(info)
    by_exact, _ = _reduce_exact(info)
    assert _relations(by_index) == _relations(by_exact)
    assert np.array_equal(_reachability(info), _reachability(by_index))


def test_reduction_is_idempotent(listing3_info):
    once, _first = reduce_dependencies(listing3_info)
    twice, second = reduce_dependencies(once)
    assert second.removed == 0
    assert _relations(once) == _relations(twice)


def test_p5_cuts_at_least_a_quarter_of_slots():
    """The ISSUE acceptance ratio, pinned on the strongest kernel."""
    interp = Interpreter.from_source(TABLE9["P5"].source(12), {})
    info = detect_pipeline(interp.scop)
    _, stats = reduce_dependencies(info)
    assert stats.ratio >= 0.25


def test_reduction_survives_coarsening():
    interp = Interpreter.from_source(TABLE9["P5"].source(12), {})
    info = detect_pipeline(interp.scop, coarsen=3)
    reduced, stats = reduce_dependencies(info)
    assert stats.slots_after <= stats.slots_before
    assert np.array_equal(_reachability(info), _reachability(reduced))


@pytest.mark.parametrize("name", ["P1", "P2"])
def test_noop_kernels_skip_the_pass(name):
    """P1/P2 have nothing to cut: every relation comes back whole."""
    interp = Interpreter.from_source(TABLE9[name].source(10), {})
    info = detect_pipeline(interp.scop)
    reduced, stats = reduce_dependencies(info)
    assert stats.removed == 0
    assert stats.ratio == 0.0
    assert all(
        r.slots_after == r.slots_before for r in stats.per_dependency
    )
    assert _relations(reduced) == _relations(info)
    assert np.array_equal(_reachability(info), _reachability(reduced))


def test_cut_kernels_still_run_the_pass():
    """A kernel with removable slots loses some of them."""
    interp = Interpreter.from_source(TABLE9["P4"].source(10), {})
    info = detect_pipeline(interp.scop)
    reduced, stats = reduce_dependencies(info)
    assert stats.method == "index"
    assert stats.removed > 0
    assert _relations(reduced) != _relations(info)


@pytest.mark.parametrize("side", ["target", "source"])
def test_off_chain_endpoint_is_named(listing3_interp, side):
    """An endpoint inside its statement's domain but no block end of it
    is refused by name, not reduced as the block it falls in."""
    import dataclasses

    from repro.presburger import PointRelation

    coarse = detect_pipeline(listing3_interp.scop, coarsen=3)
    name, deps = next((n, d) for n, d in coarse.in_deps.items() if d)
    dep = deps[0]
    stmt = name if side == "target" else dep.source
    ends = coarse.blockings[stmt].ends.points
    inner = coarse.blockings[stmt].mapping.in_part
    off = inner[~(inner[:, None, :] == ends[None, :, :]).all(-1).any(1)][0]
    pairs = dep.relation.pairs.copy()
    if side == "target":
        pairs[0, : dep.relation.n_in] = off
    else:
        pairs[0, dep.relation.n_in :] = off
    forged = dataclasses.replace(
        dep, relation=PointRelation(pairs, dep.relation.n_in)
    )
    info = dataclasses.replace(
        coarse, in_deps={**coarse.in_deps, name: (forged,) + deps[1:]}
    )
    with pytest.raises(ValueError) as err:
        reduce_dependencies(info)
    assert f"{stmt}{off.tolist()}" in str(err.value)
    assert "block end" in str(err.value)


def test_reduced_execution_matches_sequential(listing3_interp):
    """The reduced graph's topological order reproduces the arrays."""
    info = detect_pipeline(listing3_interp.scop)
    reduced, _ = reduce_dependencies(info)
    seq = listing3_interp.run_sequential(listing3_interp.new_store())
    graph = _graph(reduced)
    store = listing3_interp.new_store()
    blocks = [graph.tasks[tid].block for tid in graph.topological_order()]
    par = listing3_interp.execute_blocks_in_order(store, blocks)
    assert seq.equal(par)


def test_task_graph_stats_shape(listing3_info):
    graph = _graph(listing3_info)
    tg = task_graph_stats(listing3_info, graph)
    _, stats = reduce_dependencies(listing3_info)
    assert tg["tasks"] == len(graph)
    assert tg["edges"] == graph.num_edges
    assert tg["depend_in_slots"] == stats.slots_before
    assert tg["depend_in_slots_reduced"] == stats.slots_after
    assert tg["reduction_ratio"] == round(stats.ratio, 4)
    assert 0 < tg["critical_path_tasks"] <= tg["tasks"]
    assert tg["edges"] > 0


def test_stats_as_dict_and_summary(listing3_info):
    _, stats = reduce_dependencies(listing3_info)
    d = stats.as_dict()
    assert d["slots_before"] == stats.slots_before
    assert d["slots_after"] == stats.slots_after
    assert len(d["per_dependency"]) == len(stats.per_dependency)
    assert "depend-in slots" in stats.summary()
