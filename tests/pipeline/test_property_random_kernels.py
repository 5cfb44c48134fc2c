"""Property test: on *random* kernels, pipelined execution is semantics-
preserving.

Hypothesis generates small multi-nest kernels with random affine read
accesses into earlier arrays; for each we check, end to end, that

1. Algorithm 1 + 2 + task extraction produce an acyclic task graph,
2. executing the blocks in *several* topological orders of that graph
   yields arrays bit-identical to the sequential interpreter, and
3. every instance-level flow dependence is ordered by the graph.

This is the strongest statement of the paper's correctness claim the
library can check automatically.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import Interpreter
from repro.lang import parse
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.scop import dependence_relation, extract_scop, validate_scop
from repro.tasking import TaskGraph

from tests.conftest import dense_reach, rowwise_lex_le


@st.composite
def kernels(draw) -> str:
    """A random 2-3 nest kernel with affine cross-nest reads.

    Nest depths mix 1-D and 2-D loops (reads into 2-D producers from a 1-D
    nest pin the column), exercising the mixed-arity paths of the memory
    encoding and the pipeline algebra.
    """
    num_nests = draw(st.integers(2, 3))
    n = draw(st.integers(4, 7))
    depths = [draw(st.sampled_from([1, 2, 2])) for _ in range(num_nests)]
    chunks = []
    for k in range(1, num_nests + 1):
        depth = depths[k - 1]
        own = f"A{k}[i][j]" if depth == 2 else f"A{k}[i][0]"
        reads = [own]
        for src in range(1, k):
            if not draw(st.booleans()):
                continue
            ci = draw(st.sampled_from([0, 1, 2]))
            oi = draw(st.integers(0, 2))
            row = f"{ci}*i+{oi}" if ci else f"{oi}"
            if depths[src - 1] == 1:
                col = "0"
            elif depth == 2:
                cj = draw(st.sampled_from([0, 1, 2]))
                oj = draw(st.integers(0, 2))
                col = f"{cj}*j+{oj}" if cj else f"{oj}"
            else:  # 1-D reader of a 2-D producer: pin the column
                col = str(draw(st.integers(0, 2)))
            reads.append(f"A{src}[{row}][{col}]")
        # bound the nest so every access stays within the n x n producers
        m = n
        for acc in reads[1:]:
            m = min(m, _max_extent_for(acc, n))
        if depth == 2:
            chunks.append(
                f"for(i=0; i<{m}; i++)\n"
                f"  for(j=0; j<{m}; j++)\n"
                f"    S{k}: A{k}[i][j] = compute({', '.join(reads)});"
            )
        else:
            chunks.append(
                f"for(i=0; i<{m}; i++)\n"
                f"  S{k}: A{k}[i][0] = compute({', '.join(reads)});"
            )
    return "\n".join(chunks)


def _max_extent_for(access: str, n: int) -> int:
    inner = access[access.index("[") :].strip("[]")
    for m in range(n, 0, -1):
        env = {"i": m - 1, "j": m - 1}
        ok = True
        for template in access.split("[")[1:]:
            value = eval(template.rstrip("]"), {"__builtins__": {}}, env)
            if not 0 <= value < n:
                ok = False
                break
        if ok:
            return m
    return 1


@settings(max_examples=25, deadline=None)
@given(kernels(), st.integers(0, 2**31 - 1))
def test_random_kernel_pipelining_preserves_semantics(src, seed):
    program = parse(src)
    scop = extract_scop(program)
    report = validate_scop(scop)
    if not report.ok:  # the generator occasionally makes non-injective writes
        return

    interp = Interpreter(program, scop)
    info = detect_pipeline(scop)
    ast = generate_task_ast(info)
    graph = TaskGraph.from_task_ast(ast)

    # (1) acyclic, all tasks covered exactly once
    order = graph.topological_order()
    assert len(order) == len(graph)
    total_iters = sum(b.size for n_ in ast.nests for b in n_.blocks)
    assert total_iters == sum(len(s.points) for s in scop.statements)

    # (2) several random topological orders reproduce sequential results
    seq = interp.run_sequential(interp.new_store())
    rng = random.Random(seed)
    for _ in range(3):
        store = interp.new_store()
        for tid in _random_topological_order(graph, rng):
            block = graph.tasks[tid].block
            interp.run_block(store, block.statement, block.iterations)
        assert seq.equal(store), f"kernel diverged:\n{src}"

    # (3) instance-level flow deps ordered by the graph
    reach = dense_reach(graph)
    token_to_task = {
        b.out_token: tid
        for tid, b in (
            (t.task_id, t.block) for t in graph.tasks if t.block is not None
        )
    }
    for src_stmt in scop.statements:
        for tgt_stmt in scop.statements:
            if src_stmt.nest_index >= tgt_stmt.nest_index:
                continue
            rel = dependence_relation(scop, src_stmt, tgt_stmt)
            if rel.is_empty():
                continue
            sb = info.blockings[src_stmt.name]
            tb = info.blockings[tgt_stmt.name]
            s_ids = sb.block_of_rows(rel.out_part)
            t_ids = tb.block_of_rows(rel.in_part)
            for s_block, t_block in zip(s_ids, t_ids):
                s_tid = token_to_task[
                    (
                        src_stmt.name,
                        tuple(int(v) for v in sb.ends.points[s_block]),
                    )
                ]
                t_tid = token_to_task[
                    (
                        tgt_stmt.name,
                        tuple(int(v) for v in tb.ends.points[t_block]),
                    )
                ]
                assert s_tid == t_tid or reach[s_tid, t_tid], (
                    f"unordered dependence in kernel:\n{src}"
                )


def _random_topological_order(graph: TaskGraph, rng: random.Random):
    indeg = [len(p) for p in graph.preds]
    ready = [t for t in range(len(graph)) if indeg[t] == 0]
    order = []
    while ready:
        idx = rng.randrange(len(ready))
        tid = ready.pop(idx)
        order.append(tid)
        for s in graph.succs[tid]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    assert len(order) == len(graph)
    return order


@settings(max_examples=15, deadline=None)
@given(kernels())
def test_hybrid_graphs_legal_and_correct(src):
    """Relaxed ASTs order what the reference hybrid graph orders, pass
    the legality checker, and execute correctly — in a topological order
    of the graph and as a threads replay of the lowered plan."""
    from repro.interp import execute_measured
    from repro.schedule import check_legality, generate_task_ast, relax
    from repro.tasking import TaskGraph
    from tests.tasking.test_hybrid import reference_hybrid_graph

    program = parse(src)
    scop = extract_scop(program)
    if not validate_scop(scop).ok:
        return
    interp = Interpreter(program, scop)
    info = detect_pipeline(scop)
    raw = generate_task_ast(info)
    relaxed = relax(scop, info, raw, hybrid=True)
    graph = TaskGraph.from_task_ast(relaxed)
    reference = reference_hybrid_graph(scop, info, raw)
    assert np.array_equal(dense_reach(graph), dense_reach(reference)), src
    assert check_legality(scop, info, graph).ok, src

    seq = interp.run_sequential(interp.new_store())
    store = interp.new_store()
    for tid in graph.topological_order():
        block = graph.tasks[tid].block
        interp.run_block(store, block.statement, block.iterations)
    assert seq.equal(store), src
    out, _ = execute_measured(
        interp, info, backend="threads", workers=4, task_ast=relaxed
    )
    assert seq.equal(out), src


@settings(max_examples=15, deadline=None)
@given(kernels())
def test_requirements_cover_flow_deps(src):
    """Q relations dominate every flow dependence (pure analysis check)."""
    scop = extract_scop(parse(src))
    if not validate_scop(scop).ok:
        return
    info = detect_pipeline(scop)
    for (s_name, t_name) in info.pipeline_maps:
        src_stmt = scop.statement(s_name)
        tgt_stmt = scop.statement(t_name)
        rel = dependence_relation(scop, src_stmt, tgt_stmt)
        dep = next(
            d for d in info.in_deps[t_name] if d.source == s_name
        )
        req_table = {
            tuple(r[: dep.relation.n_in]): np.asarray(r[dep.relation.n_in :])
            for r in dep.relation.pairs.tolist()
        }
        tb = info.blockings[t_name]
        end_lookup = {
            tuple(r[: tb.mapping.n_in]): tuple(r[tb.mapping.n_in :])
            for r in tb.mapping.pairs.tolist()
        }
        for row in rel.pairs.tolist():
            j = tuple(row[: rel.n_in])
            i = np.asarray(row[rel.n_in :])
            req = req_table[end_lookup[j]]
            assert bool(rowwise_lex_le(i[None, :], req[None, :])[0])
