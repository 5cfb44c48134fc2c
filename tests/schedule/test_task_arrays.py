"""The task AST and task graph as arrays only.

Generation writes :class:`~repro.schedule.astgen.TaskArrays` straight
from the blockings and the ``Q_S`` relations; task loop nests, blocks
and ``Task`` objects are views.  Here the arrays must equal the object
path they replaced (``tests.conftest.reference_nests`` /
``reference_relax`` / ``reference_graph``) byte for byte, the legality
reports over both graphs must be equal, and a cold verified compile
must build no per-block, per-task or per-edge object at all.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.driver import TransformOptions, transform
from repro.interp import Interpreter
from repro.pipeline import detect_pipeline
from repro.schedule import (
    TaskBlock,
    TaskLoopNest,
    build_schedule,
    check_legality,
    generate_task_ast,
    plan_privatization,
    privatize_info,
    relax,
    verify_privatized_graph,
)
from repro.schedule.serialize import dumps_task_ast
from repro.scop import DepKind
from repro.tasking import Task, TaskGraph
from repro.workloads import TABLE9, figure11_kernels
from tests.conftest import (
    Counter,
    ast_of_nests,
    reference_graph,
    reference_nests,
    reference_relax,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "kernels"


def assert_equivalent(scop, info, hybrid=False, plan=None):
    """Arrays byte-identical to the reference AST; legality (and the
    join re-check) equal over the array graph and the reference one."""
    schedule = build_schedule(info)
    ast = generate_task_ast(info, schedule)
    nests = reference_nests(info, schedule)
    ast = relax(scop, info, ast, hybrid=hybrid, plan=plan)
    if plan is not None:
        from dataclasses import replace

        nests = tuple(
            replace(n, chained=n.statement not in plan.statements)
            for n in nests
        )
    if hybrid:
        nests = reference_relax(scop, info, nests)
    assert dumps_task_ast(ast) == dumps_task_ast(ast_of_nests(nests))
    graph = TaskGraph.from_task_ast(ast)
    ref = reference_graph(nests, plan)
    assert graph.preds == ref.preds
    relaxed = plan.relaxed() if plan is not None else None
    report = check_legality(scop, info, graph, relaxed=relaxed)
    assert report == check_legality(scop, info, ref, relaxed=relaxed)
    assert report.ok
    if plan is not None:
        check = verify_privatized_graph(scop, plan, graph)
        assert check == verify_privatized_graph(scop, plan, ref)
        assert check.ok


@pytest.mark.parametrize("name", sorted(TABLE9))
def test_table9_arrays_equal_the_reference(name):
    for n in (6, 10, 14):
        scop = Interpreter.from_source(TABLE9[name].source(n), {}).scop
        for coarsen in (1, 3):
            info = detect_pipeline(scop, coarsen=coarsen)
            for hybrid in (False, True):
                assert_equivalent(scop, info, hybrid)


@pytest.mark.parametrize("kernel", figure11_kernels(), ids=lambda k: k.name)
def test_figure11_arrays_equal_the_reference(kernel):
    scop = Interpreter.from_source(kernel.source(8), {}).scop
    info = detect_pipeline(scop)
    for hybrid in (False, True):
        assert_equivalent(scop, info, hybrid)


@pytest.mark.parametrize("kernel", ["histogram.c", "sumstencil.c"])
def test_privatized_arrays_equal_the_reference(kernel):
    source = (EXAMPLES / kernel).read_text()
    for n in (6, 10):
        scop = Interpreter.from_source(source, {"N": n}).scop
        plan = plan_privatization(scop)
        assert plan.groups
        base = detect_pipeline(scop, kinds=tuple(DepKind), validate=False)
        for parts in (2, 3):
            info = privatize_info(base, plan, parts=parts)
            for hybrid in (False, True):
                assert_equivalent(scop, info, hybrid, plan)


def test_a_missing_producer_is_an_error():
    scop = Interpreter.from_source(TABLE9["P1"].source(6), {}).scop
    info = detect_pipeline(scop)
    blockings = dict(info.blockings)
    first = next(name for name, deps in info.in_deps.items() if deps)
    source = info.in_deps[first][0].source
    blockings[source] = blockings[source].coarsened(2)  # ends vanish
    from repro.pipeline import PipelineInfo

    broken = PipelineInfo(scop, info.pipeline_maps, blockings, info.in_deps)
    with pytest.raises(KeyError, match="no producer"):
        generate_task_ast(broken)


HISTOGRAM = (EXAMPLES / "histogram.c").read_text()


COLD_TRANSFORMS = pytest.mark.parametrize(
    "source,params,options",
    [
        pytest.param(TABLE9["P5"].source(14), {}, {}, id="P5@14"),
        pytest.param(
            TABLE9["P5"].source(14), {}, {"hybrid": True}, id="hybrid-P5@14"
        ),
        pytest.param(
            HISTOGRAM, {"N": 16}, {"privatize": True}, id="privatized-hist2d"
        ),
    ],
)


@COLD_TRANSFORMS
def test_a_cold_verified_transform_builds_no_object_per_block(
    monkeypatch, source, params, options
):
    """Generation, rewrites, graph, legality, lowering and the replay
    read arrays: not one ``TaskBlock``, ``TaskLoopNest`` or ``Task``
    is constructed and no edge is added one by one."""
    counts = {
        cls.__name__: Counter(monkeypatch, cls, "__init__")
        for cls in (TaskBlock, TaskLoopNest, Task)
    }
    counts["add_edge"] = Counter(monkeypatch, TaskGraph, "add_edge")
    result = transform(source, params, TransformOptions(workers=2, **options))
    assert result.verified is True and result.legality.ok
    assert {k: c.calls for k, c in counts.items()} == dict.fromkeys(counts, 0)
    if options.get("privatize"):
        assert result.joins


@COLD_TRANSFORMS
def test_a_cold_verified_threads_transform_derives_the_edges_once(
    monkeypatch, source, params, options
):
    """The checked graph, lowering's refusal and the replay's schedule
    read one derivation of the relaxed AST's edges."""
    import repro.schedule.astgen as astgen

    derived = Counter(monkeypatch, astgen, "task_edges")
    result = transform(source, params, TransformOptions(
        workers=2, exec_backend="threads", collect_events=True, **options
    ))
    assert result.verified is True and result.legality.ok
    assert derived.calls == 1
