"""Shared fixtures: the paper's kernels and small SCoP factories."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--fuzz-seed",
        type=int,
        default=20220822,
        help="seed of the differential fuzz harness (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-samples",
        type=int,
        default=48,
        help="number of random programs per fuzz test "
        "(raise to 200+ for a thorough run)",
    )
    parser.addoption(
        "--fuzz-reduce",
        action="store_true",
        default=False,
        help="run the 200-sample campaign on the lowered plans' reduced "
        "schedules, hybrid off and on: reachability of the unreduced "
        "quotient and a random-order replay (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-privatize",
        action="store_true",
        default=False,
        help="run the 200-sample privatized-parallel vs sequential "
        "execution agreement campaign (tests/fuzz)",
    )
    parser.addoption(
        "--fuzz-fuse",
        action="store_true",
        default=False,
        help="run the 2x200-sample fused-closure vs interpreter "
        "bit-equality differential campaign (tests/fuzz)",
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the golden codegen files instead of comparing",
    )


def pytest_collection_modifyitems(config, items):
    # tier-2 tests only run when explicitly selected (e.g. ``-m tier2``),
    # so the ROADMAP tier-1 verify line stays fast and unchanged.
    if "tier2" in (config.getoption("-m") or ""):
        return
    skip = pytest.mark.skip(reason="tier-2: run with -m tier2")
    for item in items:
        if "tier2" in item.keywords:
            item.add_marker(skip)

from repro.interp import Interpreter
from repro.scop import extract_scop
from repro.lang import parse

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);

for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""

LISTING3 = LISTING1 + """
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    U: C[i][j] = h(A[2*i][2*j], B[i][j], C[i][j+1], C[i+1][j+1], C[i][j]);
"""

TWO_NEST_COPY = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: A[i][j] = f(A[i][j]);
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    T: B[i][j] = g(A[i][j], B[i][j]);
"""


#: (label, backend, fuse) — fused kernels on all three backends plus
#: the loop forms only (``fuse="off"``); the one execution battery of
#: the suite.
EXEC_CONFIGS = (
    ("interp-serial", "serial", "off"),
    ("fused-serial", "serial", "auto"),
    ("fused-threads", "threads", "auto"),
    ("fused-processes", "processes", "auto"),
)


#: ``repro.interp.fused.LOOP_FORM_POINTS`` values that force one kernel
#: form on every rectangle, whatever its size.
KERNEL_FORMS = {"slices": 0, "loops": 1 << 62}


@pytest.fixture(params=sorted(KERNEL_FORMS))
def kernel_form(request, monkeypatch):
    """Run the test once with every fused rectangle in slice form and
    once with every one in loop form (forked process workers inherit
    the patched constant)."""
    from repro.interp import fused

    monkeypatch.setattr(
        fused, "LOOP_FORM_POINTS", KERNEL_FORMS[request.param]
    )
    return request.param


def compile_for_exec(source, fuse, params=None, coarsen=16, funcs=None):
    """``(interp, info)`` of ``source``: what ``execute_measured`` takes."""
    from repro.pipeline import detect_pipeline, flow_then_all_kinds

    interp = Interpreter.from_source(source, params or {}, funcs, fuse=fuse)
    info, _ = flow_then_all_kinds(
        lambda kinds: detect_pipeline(
            interp.scop, kinds=kinds, coarsen=coarsen
        )
    )
    return interp, info


def run_measured(source, backend, fuse, params=None, workers=2, coarsen=16):
    """``execute_measured`` of ``source`` on a fresh interpreter."""
    from repro.interp import execute_measured

    interp, info = compile_for_exec(source, fuse, params, coarsen)
    return execute_measured(interp, info, backend=backend, workers=workers)


def run_whole_blocks(interp):
    """Execute every statement as one whole block (program order) through
    ``run_block`` — the statement's kernel over the block's rectangles,
    unlike ``run_sequential``, which never touches the block kernels."""
    store = interp.new_store()
    for stmt in interp.scop.statements:
        interp.run_block(store, stmt.name, stmt.points.points)
    return store


def fused_statements(interp):
    """Statements whose kernels have a slice form."""
    return {
        s.name
        for s in interp.scop.statements
        if interp.fused_program.get(s.name).fn is not None
    }


def assert_all_configs_match_sequential(
    source, params=None, coarsen=16, replays=1, funcs=None
):
    """Every ``EXEC_CONFIGS`` run is bit-identical to ``run_sequential``
    — each of ``replays`` runs of the one lowered plan per config."""
    from repro.interp import execute_measured

    oracle = Interpreter.from_source(source, params or {}, funcs)
    seq = oracle.run_sequential(oracle.new_store())
    for label, backend, fuse in EXEC_CONFIGS:
        interp, info = compile_for_exec(source, fuse, params, coarsen, funcs)
        for k in range(replays):
            store, stats = execute_measured(
                interp, info, backend=backend, workers=2
            )
            assert seq.equal(store), f"{label} run {k + 1} diverged"
            assert (stats.backend, stats.fuse) == (backend, fuse)


@pytest.fixture
def listing1_scop():
    return extract_scop(parse(LISTING1), {"N": 20})


@pytest.fixture
def listing1_scop_small():
    return extract_scop(parse(LISTING1), {"N": 10})


@pytest.fixture
def listing3_scop():
    return extract_scop(parse(LISTING3), {"N": 16})


@pytest.fixture
def listing1_interp():
    return Interpreter.from_source(LISTING1, {"N": 12})


@pytest.fixture
def listing3_interp():
    return Interpreter.from_source(LISTING3, {"N": 12})


@pytest.fixture
def copy_scop():
    return extract_scop(parse(TWO_NEST_COPY), {"N": 8})


def dense_reach(graph):
    """The reference reachability: ``R[a, b]`` is True iff task ``a``
    precedes task ``b`` along the graph's edges (strictly, so the
    diagonal is False).  A tasks × tasks matrix, for test-sized graphs."""
    import numpy as np

    reach = np.zeros((len(graph), len(graph)), dtype=bool)
    for tid in reversed(graph.topological_order()):
        for s in graph.succs[tid]:
            reach[tid, s] = True
            reach[tid] |= reach[s]
    return reach


def from_nests(nests):
    """The reference ``TaskArrays`` of task loop nests (the object path
    generation no longer takes): a token no block produces raises
    ``KeyError``.  Tests that hand-edit an AST edit its nests and come
    back through here."""
    import numpy as np

    from repro.schedule.astgen import TaskArrays, block_offsets

    producer: dict = {}
    starts = [0]
    for nest in nests:
        for block in nest.blocks:
            producer[block.out_token] = len(producer)
        starts.append(len(producer))
    iters, shapes, ends, indptr, indices = [], [], [], [0], []
    for nest in nests:
        for block in nest.blocks:
            it = np.asarray(block.iterations, dtype=np.int64)
            iters.append(it.ravel())
            shapes.append((it.shape[0], it.shape[1] if it.ndim == 2 else -1))
            ends.extend(block.end)
            for token in block.in_tokens:
                if token not in producer:
                    raise KeyError(f"in-dependency {token} has no producer")
                indices.append(producer[token])
            indptr.append(len(indices))
    shapes_arr = np.asarray(shapes, dtype=np.int64).reshape(-1, 2)
    return TaskArrays(
        statements=tuple(n.statement for n in nests),
        depths=tuple(n.depth for n in nests),
        chained=tuple(n.chained for n in nests),
        starts=np.asarray(starts, dtype=np.int64),
        shapes=shapes_arr,
        offsets=block_offsets(shapes_arr),
        flat=np.concatenate(iters) if iters else np.empty(0, np.int64),
        ends=np.asarray(ends, dtype=np.int64),
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
    )


def ast_of_nests(nests):
    """A ``TaskAst`` of hand-built or hand-edited task loop nests."""
    from repro.schedule import TaskAst

    return TaskAst(from_nests(tuple(nests)))


def reference_nests(info, schedule=None):
    """The task loop nests of ``info``, generated block by block with
    per-row token tables (the object path the array generator
    replaced): the reference it must equal byte for byte."""
    from repro.schedule import TaskBlock, TaskLoopNest, build_schedule
    from repro.schedule.astgen import _find_payload, _is_block_domain
    from repro.schedule.tree import DomainNode

    schedule = schedule if schedule is not None else build_schedule(info)
    nests = []
    for node in schedule.walk():
        if not (isinstance(node, DomainNode) and _is_block_domain(node)):
            continue
        name = node.statement
        blocking = info.blockings[name]
        tables = []
        for dep in _find_payload(node).in_deps:
            n_in = dep.relation.n_in
            tables.append((dep.source, {
                tuple(int(v) for v in row[:n_in]):
                    tuple(int(v) for v in row[n_in:])
                for row in dep.relation.pairs
            }))
        blocks = []
        for block_id, iters in enumerate(blocking.iterations_by_block()):
            end = tuple(int(v) for v in blocking.ends.points[block_id])
            blocks.append(TaskBlock(
                name, block_id, end, iters,
                tuple((src, t[end]) for src, t in tables if end in t),
                (name, end),
            ))
        nests.append(TaskLoopNest(name, blocking.ends.ndim, tuple(blocks)))
    return tuple(nests)


def reference_relax(scop, info, nests):
    """``relax_self_chains`` on task loop nests, token tuple by token
    tuple (the object path the CSR rewrite replaced)."""
    from dataclasses import replace

    from repro.tasking import intra_block_edges

    ends, self_tokens = {}, {}
    for nest in nests:
        if not nest.chained:
            continue
        edges = intra_block_edges(scop, info, nest.statement)
        if all((k, k + 1) in edges for k in range(nest.num_blocks - 1)):
            continue
        ends[nest.statement] = [b.end for b in nest.blocks]
        for a, b in sorted(edges):
            self_tokens.setdefault(nest.blocks[b].out_token, []).append(
                nest.blocks[a].out_token
            )

    def tokens_of(block):
        tokens = []
        for src, end in block.in_tokens:
            prefix = ends.get(src, [end])
            tokens += [(src, e) for e in prefix[: prefix.index(end) + 1]]
        tokens += self_tokens.get(block.out_token, ())
        return tuple(dict.fromkeys(tokens))

    return tuple(
        replace(
            nest,
            chained=nest.chained and nest.statement not in ends,
            blocks=tuple(
                replace(b, in_tokens=tokens_of(b)) for b in nest.blocks
            ),
        )
        for nest in nests
    )


def reference_graph(nests, plan=None):
    """The task graph of task loop nests, task by task and edge by edge
    through the builders (the object path ``from_task_ast`` replaced)."""
    from repro.schedule.privatize import join_label
    from repro.tasking import TaskGraph

    groups = plan.groups if plan is not None else ()
    unchained = {s for g in groups for s in g.statements}
    graph, tid_of, tids = TaskGraph(), {}, {}
    for nest in nests:
        for block in nest.blocks:
            tid = graph.add_task(
                nest.statement, block.block_id, float(block.size), block
            )
            tid_of[block.out_token] = tid
            tids.setdefault(nest.statement, []).append(tid)
    for group in groups:
        join = graph.add_task(join_label(group.array), 0)
        for name in group.statements:
            for tid in tids.get(name, ()):
                graph.add_edge(tid, join)
    for nest in nests:
        mine = tids.get(nest.statement, [])
        if nest.chained and nest.statement not in unchained:
            for prev, nxt in zip(mine, mine[1:]):
                graph.add_edge(prev, nxt)
        for block in nest.blocks:
            for token in block.in_tokens:
                graph.add_edge(tid_of[token], tid_of[block.out_token])
    graph.validate()
    return graph


def reference_schedule(edges, members, floors):
    """The reduced quotient schedule, edge by edge: one ``set`` entry per
    row edge, then each task's predecessors sorted latest first inside
    the reduction (the bulk ``quotient_schedule`` replaced)."""
    import numpy as np

    from repro.tasking import Schedule

    row_of = {t: row for row, ts in enumerate(members) for t in ts}
    preds: list[set[int]] = [set() for _ in members]
    for s, d in zip(*(np.asarray(e).tolist() for e in edges)):
        s, d = row_of[s], row_of[d]
        if s > d:
            raise RuntimeError("a task waits on one created after it")
        if s != d:
            preds[d].add(d - 1 if s >= floors[d] else s)
    reach: list[int] = []
    reduced: list[set[int]] = []
    for tid, ps in enumerate(preds):
        kept, seen = set(), 0
        for p in sorted(ps, reverse=True):
            if not seen >> p & 1:
                kept.add(p)
                seen |= reach[p] | 1 << p
        reach.append(seen)
        reduced.append(kept)
    return Schedule.from_preds(reduced)


def reference_tokenize(source):
    """The character-at-a-time lexer the one-pattern scan replaced,
    yielding ``(kind, text, line, column, end_column)`` up to EOF or its
    ``LexerError``: the reference the token stream must equal, error for
    error, except that it lexes a non-decimal digit (``²``) as a number
    ``int`` cannot read."""
    from repro.lang import LexerError, SourceLocation
    from repro.lang.tokens import KEYWORDS, TokenKind

    pos, line, column = 0, 1, 1

    def advance(n):
        nonlocal pos, line, column
        for _ in range(n):
            if source[pos] == "\n":
                line, column = line + 1, 1
            else:
                column += 1
            pos += 1

    def take_while(predicate):
        start = pos
        while pos < len(source) and predicate(source[pos]):
            advance(1)
        return source[start:pos]

    while True:
        while pos < len(source):  # trivia
            if source[pos] in " \t\r\n":
                advance(1)
            elif source.startswith("//", pos):
                while pos < len(source) and source[pos] != "\n":
                    advance(1)
            elif source.startswith("/*", pos):
                start = SourceLocation(line, column)
                advance(2)
                while not source.startswith("*/", pos):
                    if pos >= len(source):
                        raise LexerError("unterminated block comment", start)
                    advance(1)
                advance(2)
            else:
                break
        at = (line, column)
        if pos >= len(source):
            yield TokenKind.EOF, "", *at, None
            return
        ch = source[pos]
        if ch.isalpha() or ch == "_":
            text = take_while(lambda c: c.isalnum() or c == "_")
            kind = KEYWORDS.get(text, TokenKind.IDENT)
        elif ch.isdigit():
            text, kind = take_while(str.isdigit), TokenKind.NUMBER
        elif source[pos : pos + 2] in (
            "+=", "-=", "*=", "/=", "%=", "++", "<=", ">=",
        ):
            text = source[pos : pos + 2]
            kind = TokenKind(text)
            advance(2)
        elif ch in "()[]{};:,=+-*/%<>":
            text, kind = ch, TokenKind(ch)
            advance(1)
        else:
            raise LexerError(
                f"unexpected character {ch!r}", SourceLocation(*at)
            )
        yield kind, text, *at, column


def reference_extent(scop, name):
    """``Scop.array_extent`` one array at a time: a min and max per
    access of ``name`` in every statement (the per-array loop the
    one-pass-per-statement extents replaced)."""
    import numpy as np

    rank = scop.arrays[name]
    lo = np.full(rank, np.iinfo(np.int64).max, dtype=np.int64)
    hi = np.full(rank, np.iinfo(np.int64).min, dtype=np.int64)
    for stmt in scop.statements:
        points = stmt.points.points
        if points.shape[0] == 0:
            continue
        for acc in stmt.accesses:
            if acc.array != name:
                continue
            matrix, const = acc.index_map(stmt.space)
            cells = points @ matrix.T + const
            np.minimum(lo, cells.min(axis=0), out=lo)
            np.maximum(hi, cells.max(axis=0), out=hi)
    if (lo > hi).any():
        return tuple((0, 0) for _ in range(rank))
    return tuple((int(a), int(b)) for a, b in zip(lo, hi))


def reference_access_relation(scop, stmt, kind):
    """``Scop.access_relation`` as a pairwise ``union`` chain of one
    tabulated relation per access (the path the one canonicalisation
    replaced)."""
    from repro.presburger import PointRelation

    rels = [
        acc.explicit_relation(
            stmt.points, stmt.space, scop.array_ids[acc.array], scop.mem_rank
        )
        for acc in stmt.accesses
        if acc.kind is kind
    ]
    if not rels:
        return PointRelation.empty(stmt.depth, scop.mem_rank + 1)
    out = rels[0]
    for r in rels[1:]:
        out = out.union(r)
    return out


class Counter:
    """Wrap ``owner.name`` so calls are counted (and still happen) — the
    one spy of the count guards; worker threads may call it at once.
    ``kwargs`` holds each call's keyword arguments, in call order."""

    def __init__(self, monkeypatch, owner, name):
        import threading

        self.calls = 0
        self.kwargs: list[dict] = []
        lock = threading.Lock()
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            with lock:
                self.calls += 1
                self.kwargs.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def unique_axis0_calls(monkeypatch):
    """The ``numpy.unique(..., axis=0)`` calls made while the test runs —
    the generic row sort the packed row keys replace (one entry each)."""
    import numpy as np

    real, calls = np.unique, []

    def counting(*args, **kwargs):
        if kwargs.get("axis") == 0:
            calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.fixture
def executions(monkeypatch):
    """Counts of every way ``transform`` — called directly or behind
    ``repro.cli.main`` — can execute the program."""
    import repro.tasking
    from repro.interp import plan as plan_mod
    from repro.interp import privexec

    seen = {"oracle": 0, "graph": 0, "replay": []}

    def counted(owner, name, note):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            note(*args, **kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def bump(key):
        return lambda *a, **k: seen.__setitem__(key, seen[key] + 1)

    counted(Interpreter, "run_sequential", bump("oracle"))
    counted(repro.tasking, "execute", bump("graph"))
    for owner in (plan_mod, privexec):  # privexec binds it at import
        counted(
            owner, "run_plan",
            lambda interp, plan, backend, *a, **k: seen["replay"].append(
                backend
            ),
        )
    return seen


def reference_program(program, scop):
    """The sequential oracle on NumPy scalars, loop for loop, as
    ``compile_program`` generated it before it computed on Python
    floats: every read boxes an ``np.float64`` out of the store's own
    arrays and every write stores into them in place.  The reference
    ``run_sequential`` must equal byte for byte — ``(store, funcs) ->
    store`` like it."""
    from repro.interp.compile import _binop, array_offsets
    from repro.lang.ast import ArrayAccess, BinOp, Call, IntLit, Loop, VarRef

    offsets = array_offsets(scop)
    func_names: set[str] = set()
    body: list[str] = []

    def py(expr, loop_vars):
        if isinstance(expr, IntLit):
            return str(expr.value)
        if isinstance(expr, VarRef):
            if expr.name in loop_vars:
                return expr.name
            return str(scop.params[expr.name])
        if isinstance(expr, BinOp):
            op = "//" if expr.op == "/" else expr.op
            lhs, rhs = py(expr.lhs, loop_vars), py(expr.rhs, loop_vars)
            return f"({lhs} {op} {rhs})"
        if isinstance(expr, ArrayAccess):
            idx = [
                f"({py(e, loop_vars)}) - ({off})" if off else py(e, loop_vars)
                for e, off in zip(expr.indices, offsets[expr.array])
            ]
            return f"__arr_{expr.array}[{', '.join(idx)}]"
        if isinstance(expr, Call):
            func_names.add(expr.func)
            args = ", ".join(py(a, loop_vars) for a in expr.args)
            return f"__fn_{expr.func}({args})"
        raise TypeError(f"cannot compile expression {expr!r}")

    def emit(loop, enclosing, indent):
        upper = py(loop.upper, enclosing)
        if not loop.upper_strict:
            upper = f"{upper} + 1"
        body.append(
            f"{indent}for {loop.var} in __range("
            f"{py(loop.lower, enclosing)}, {upper}):"
        )
        indent += "    "
        for item in loop.body:
            if isinstance(item, Loop):
                emit(item, enclosing | {loop.var}, indent)
                continue
            stmt = scop.statement(item.label)
            loop_vars = set(stmt.space.dims)
            lhs = py(stmt.assign.target, loop_vars)
            rhs = py(stmt.assign.value, loop_vars)
            binop = _binop(stmt)
            if binop != "=":
                rhs = f"{lhs} {binop} ({rhs})"
            body.append(f"{indent}{lhs} = {rhs}")
        if not loop.body:
            body.append(f"{indent}pass")

    for nest in program.nests:
        emit(nest, set(), "    ")
    lines = ["def __program(__store, __funcs):"]
    lines += [
        f"    __arr_{arr} = __store.arrays[{arr!r}].data"
        for arr in sorted(scop.arrays)
    ] + [
        f"    __fn_{fname} = __funcs[{fname!r}]"
        for fname in sorted(func_names)
    ]
    lines += body
    lines.append("    return __store")
    namespace = {"__range": range}
    exec("\n".join(lines), namespace)  # noqa: S102 - a test's own AST
    return namespace.pop("__program")


def reference_run(interp):
    """``reference_program`` of ``interp`` on a fresh store."""
    fn = reference_program(interp.program, interp.scop)
    return fn(interp.new_store(), interp.funcs)
