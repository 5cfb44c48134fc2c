#!/usr/bin/env python3
"""Quickstart: cross-loop pipeline detection on the paper's Listing 1.

Walks the full stack on the motivating example of the paper:

1. parse the two-loop-nest kernel,
2. extract its SCoP and show that no loop is parallel (what stock Polly
   sees),
3. compute the pipeline map ``T_{S,R}`` (Section 4.1),
4. block the iteration domains (Section 4.2) and derive the block
   dependencies (Section 4.3),
5. build the schedule tree (Algorithm 2) and the task AST (Figure 6),
6. replay the lowered task program on real threads and check the result
   against sequential execution,
7. simulate the execution on a quad-core and report the speed-up.

Run:  python examples/quickstart.py
"""

from repro.interp import Interpreter, execute_measured
from repro.pipeline import compute_pipeline_map, detect_pipeline
from repro.schedule import build_schedule, generate_task_ast
from repro.scop import parallel_levels
from repro.tasking import TaskGraph, simulate

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);

for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""


def main() -> None:
    n = 20  # the size the paper instantiates in its worked example
    interp = Interpreter.from_source(LISTING1, {"N": n})
    scop = interp.scop

    print("=== SCoP ===")
    print(scop)

    print("\n=== What per-loop parallelism finds (the Polly view) ===")
    for nest in (0, 1):
        levels = parallel_levels(scop, nest)
        print(f"nest {nest}: parallel loop levels = {levels or 'none'}")

    print("\n=== Pipeline map T_{S,R} (Section 4.1) ===")
    pm = compute_pipeline_map(scop, scop.statement("S"), scop.statement("R"))
    assert pm is not None
    from repro.pipeline import describe_pipeline_map

    print(f"  {describe_pipeline_map(pm)}")
    for probe in ((0, 0), (0, 2), (0, 16), (8, 16)):
        out = pm.relation.lookup(probe)
        if out.shape[0]:
            print(f"  after S{list(probe)} finishes, R may run up to "
                  f"R{out[0].tolist()}")

    print("\n=== Blocking + dependencies (Algorithm 1) ===")
    info = detect_pipeline(scop)
    print(info.summary())

    print("\n=== Schedule tree (Algorithm 2) ===")
    print(build_schedule(info).pretty())

    print("\n=== Task AST (Figure 6) ===")
    ast = generate_task_ast(info)
    print(ast.pretty())

    print("\n=== Execute pipelined on 4 threads and verify ===")
    seq = interp.run_sequential(interp.new_store())
    par, _ = execute_measured(
        interp, info, backend="threads", workers=4, task_ast=ast
    )
    print(f"arrays identical to sequential execution: {seq.equal(par)}")

    print("\n=== Simulated quad-core performance ===")
    graph = TaskGraph.from_task_ast(ast)
    sim = simulate(graph, workers=8)
    print(f"tasks: {len(graph)}, critical path: "
          f"{graph.critical_path()[0]:.0f} units")
    print(f"sequential: {graph.total_cost():.0f} units, "
          f"pipelined makespan: {sim.makespan:.0f} units, "
          f"speed-up: {graph.total_cost() / sim.makespan:.2f}x")


if __name__ == "__main__":
    main()
