"""Strong scaling: Section 4.4's ceiling in practice.

The paper argues the pipelined program cannot beat the heaviest nest
(Equation 5) and thus at most n tasks of an n-nest program run in
parallel.  The scaling curves make that ceiling visible: pure pipelining
plateaus at the nest count regardless of workers, while the hybrid
extension keeps scaling on kernels with parallel nests.
"""

from __future__ import annotations

import pytest

from repro.bench import build_scop
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast, relax
from repro.tasking import TaskGraph, scaling_curve
from repro.workloads import TABLE9, MatmulKernel

WORKERS = (1, 2, 4, 8, 16)


def graphs_for(kernel_source: str, cost_model):
    scop = build_scop(kernel_source)
    info = detect_pipeline(scop)
    ast = generate_task_ast(info)
    pipe = TaskGraph.from_task_ast(ast, cost_of_block=cost_model.block_cost)
    hyb = TaskGraph.from_task_ast(
        relax(scop, info, ast, hybrid=True),
        cost_of_block=cost_model.block_cost,
    )
    return pipe, hyb


def test_regenerate_scaling_curves():
    print()
    print(f"{'kernel':>10}  {'strategy':>8}  " +
          "".join(f"w={w}".rjust(8) for w in WORKERS))

    kern = TABLE9["P5"]
    pipe, hyb = graphs_for(kern.source(20), kern.cost_model(4))
    pipe_curve = scaling_curve(pipe, WORKERS)
    print(f"{'P5':>10}  {'pipeline':>8}  "
          + "".join(f"{pipe_curve[w]:8.2f}" for w in WORKERS))
    # Section 4.4: at most 4 nests overlap — the curve plateaus at <= 4.
    assert pipe_curve[8] == pipe_curve[16]
    assert pipe_curve[16] <= 4 + 1e-9
    assert pipe_curve[1] == pytest.approx(1.0)

    mm = MatmulKernel(3, "mm")
    pipe, hyb = graphs_for(mm.source(24), mm.cost_model(24))
    for name, graph in (("pipeline", pipe), ("hybrid", hyb)):
        curve = scaling_curve(graph, WORKERS)
        print(f"{'3mm':>10}  {name:>8}  "
              + "".join(f"{curve[w]:8.2f}" for w in WORKERS))
    pipe_curve = scaling_curve(pipe, WORKERS)
    hyb_curve = scaling_curve(hyb, WORKERS)
    # pipeline plateaus at the 3-nest ceiling; hybrid keeps scaling
    assert pipe_curve[16] <= 3 + 1e-9
    assert hyb_curve[16] > 2 * pipe_curve[16]
    # curves are monotone in workers
    for curve in (pipe_curve, hyb_curve):
        values = [curve[w] for w in WORKERS]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("workers", [2, 8])
def test_scaling_point(benchmark, workers):
    kern = TABLE9["P5"]
    pipe, _ = graphs_for(kern.source(16), kern.cost_model(4))

    from repro.tasking import simulate

    sim = benchmark(simulate, pipe, workers)
    benchmark.extra_info["speedup"] = round(
        pipe.total_cost() / sim.makespan, 2
    )
