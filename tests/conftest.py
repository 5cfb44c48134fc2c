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
from repro.scop import DepKind, extract_scop
from repro.lang import parse
from repro.lang.ast import (
    ArrayAccess,
    Assign,
    BinOp,
    Call,
    Expr,
    IntLit,
    Loop,
    Program,
    VarRef,
)
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import ASSIGN_OPS, Token, TokenKind

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


def marks(tree, name=None):
    """The mark nodes of a schedule tree (named ``name``, if given)."""
    from repro.schedule import MarkNode

    return [
        n for n in tree.walk()
        if isinstance(n, MarkNode) and (name is None or n.name == name)
    ]


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


def reference_filter_execution_order(candidates, src, tgt):
    """The pairs of ``candidates`` (``tgt`` instance → ``src`` instance)
    in sequential execution order, by the rule written out: a source
    nest before the target nest, or one nest ordered on the shared loop
    dimensions with textual order as tie break; one statement needs
    strict lexicographic precedence."""
    import numpy as np

    from repro.presburger import PointRelation, rowwise_lex_lt

    if candidates.is_empty():
        return candidates
    tgt_iters = candidates.in_part
    src_iters = candidates.out_part
    if src.nest_index < tgt.nest_index:
        return candidates
    if src.nest_index > tgt.nest_index:
        return PointRelation.empty(candidates.n_in, candidates.n_out)
    common = min(src.depth, tgt.depth)
    src_prefix = src_iters[:, :common]
    tgt_prefix = tgt_iters[:, :common]
    before = rowwise_lex_lt(src_prefix, tgt_prefix)
    equal = np.all(src_prefix == tgt_prefix, axis=1)
    if src.name == tgt.name:
        keep = before | (equal & rowwise_lex_lt(src_iters, tgt_iters))
    elif src.position < tgt.position:
        keep = before | equal
    else:
        keep = before
    return candidates.subset(keep)


def reference_join_dependence(scop, src, tgt, kind):
    """One dependence relation joined on its own, as
    ``dependence_relation`` answered before the batched table: the two
    statements' access relations in ``kind``'s roles, composed, then
    filtered by :func:`reference_filter_execution_order`."""
    from repro.presburger import PointRelation
    from repro.scop.deps import paired_accesses

    src_accs, tgt_accs = paired_accesses(src, tgt, kind)
    shared = {a.array for a in src_accs} & {a.array for a in tgt_accs}
    if src.nest_index > tgt.nest_index or not shared:
        return PointRelation.empty(tgt.depth, src.depth)
    src_role, tgt_role = src_accs[0].kind, tgt_accs[0].kind
    candidates = (
        scop.access_relation(src, src_role)
        .inverse()
        .after(scop.access_relation(tgt, tgt_role))
    )
    return reference_filter_execution_order(candidates, src, tgt)


def reference_check_legality(
    scop, info, graph, kinds=tuple(DepKind), max_violations=20, relaxed=None
):
    """``check_legality`` per statement pair, as it was before it read
    the dependence table: one :func:`reference_join_dependence` per
    ``(source, target, kind)``, minus its ``relaxed`` cut, one
    ``block_of_rows`` per relation side, ordered by :func:`dense_reach`
    (a pair inside one task holds)."""
    import numpy as np

    from repro.schedule.legality import (
        LegalityReport,
        Violation,
        tasks_by_block,
    )

    precedes = dense_reach(graph) | np.eye(len(graph), dtype=bool)
    task_of_block = tasks_by_block(info, graph)
    checked, violations = 0, []
    for source in scop.statements:
        for target in scop.statements:
            for kind in kinds:
                rel = reference_join_dependence(scop, source, target, kind)
                cut = (relaxed or {}).get((source.name, target.name, kind))
                if cut is not None and not cut.is_empty():
                    rel = rel.difference(cut)
                checked += len(rel)
                s_tids = task_of_block[source.name][
                    info.blockings[source.name].block_of_rows(rel.out_part)
                ]
                t_tids = task_of_block[target.name][
                    info.blockings[target.name].block_of_rows(rel.in_part)
                ]
                for idx in np.flatnonzero(~precedes[s_tids, t_tids]):
                    if len(violations) >= max_violations:
                        break
                    violations.append(Violation(
                        kind,
                        source.name,
                        tuple(int(v) for v in rel.out_part[idx]),
                        target.name,
                        tuple(int(v) for v in rel.in_part[idx]),
                    ))
    return LegalityReport(checked, tuple(violations))


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
        for block_id, iters in enumerate(iterations_by_block(blocking)):
            end = tuple(int(v) for v in blocking.ends.points[block_id])
            blocks.append(TaskBlock(
                name, block_id, end, iters,
                tuple((src, t[end]) for src, t in tables if end in t),
                (name, end),
            ))
        nests.append(TaskLoopNest(name, blocking.ends.ndim, tuple(blocks)))
    return tuple(nests)


def reference_relax(scop, info, nests):
    """The hybrid relaxation on task loop nests, token tuple by token
    tuple (the object path the CSR rewrite replaced): a token on an
    unchained source's block ``p`` becomes tokens on the blocks ``b <=
    p`` with no self successor ``<= p``."""
    from dataclasses import replace

    from repro.schedule.relax import intra_block_edges

    frontier, self_tokens = {}, {}
    for nest in nests:
        if not nest.chained:
            continue
        edges = intra_block_edges(scop, info, nest.statement)
        if all((k, k + 1) in edges for k in range(nest.num_blocks - 1)):
            continue
        ends = [b.end for b in nest.blocks]
        frontier[nest.statement] = {
            end: [
                ends[b] for b in range(p + 1)
                if not any((b, c) in edges for c in range(b + 1, p + 1))
            ]
            for p, end in enumerate(ends)
        }
        for a, b in sorted(edges):
            self_tokens.setdefault(nest.blocks[b].out_token, []).append(
                nest.blocks[a].out_token
            )

    def tokens_of(block):
        tokens = []
        for src, end in block.in_tokens:
            kept = frontier.get(src, {}).get(end, [end])
            tokens += [(src, e) for e in kept]
        tokens += self_tokens.get(block.out_token, ())
        return tuple(dict.fromkeys(tokens))

    return tuple(
        replace(
            nest,
            chained=nest.chained and nest.statement not in frontier,
            blocks=tuple(
                replace(b, in_tokens=tokens_of(b)) for b in nest.blocks
            ),
        )
        for nest in nests
    )


def reference_relax_self_chains(scop, info, ast):
    """The hybrid relaxation with *prefix* tokens, the CSR rewrite
    ``relax`` replaced: a token on an unchained source's block ``p``
    becomes tokens on every block of it up to ``p``.  Its graph has the
    reachability the frontier graph must have."""
    from dataclasses import replace

    import numpy as np

    from repro.schedule import TaskAst
    from repro.schedule.astgen import csr_indptr, csr_rows
    from repro.schedule.relax import intra_block_edges

    a = ast.arrays
    relaxed = np.zeros(len(a.statements), dtype=bool)
    selfs = [np.zeros((0, 2), dtype=np.int64)]  # (source, waiting) blocks
    for k, name in enumerate(a.statements):
        edges = intra_block_edges(scop, info, name) if a.chained[k] else {}
        if a.chained[k] and not all(
            (j, j + 1) in edges for j in range(len(a.blocks(k)) - 1)
        ):
            relaxed[k] = True
            pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
            selfs.append(a.starts[k] + pairs)
    if not relaxed.any():
        return ast
    nest = csr_rows(a.starts)[a.indices]
    low = np.where(relaxed[nest], a.starts[nest], a.indices)
    counts = a.indices - low + 1
    skip = np.repeat(np.cumsum(counts) - counts - low, counts)
    selfs = np.concatenate(selfs)
    src = np.concatenate([np.arange(counts.sum()) - skip, selfs[:, 0]])
    dst = np.concatenate([np.repeat(csr_rows(a.indptr), counts), selfs[:, 1]])
    by_block = np.argsort(dst, kind="stable")
    key = (dst * a.num_blocks + src)[by_block]
    keep = by_block[np.sort(np.unique(key, return_index=True)[1])]
    return TaskAst(replace(
        a,
        chained=tuple(c and not r for c, r in zip(a.chained, relaxed)),
        indptr=csr_indptr(dst[keep], a.num_blocks),
        indices=src[keep].astype(np.int64),
    ))


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


def reference_parse(source):
    """The recursive-descent parser over the token list that the
    one-pass parser replaced: the reference its ASTs, locations and
    errors must equal.  Except: it labels an unlabelled statement
    ``S<k>`` even where the program spells that label out, accepts two
    equal labels, and recurses without a bound (``RecursionError`` on
    deep nesting) -- what the one-pass parser mends."""
    return _ReferenceParser(source).parse_program()


#: an assignment operator's token kind -> its text (``ASSIGN_OPS``)
_ASSIGN_KINDS = {TokenKind(op): op for op in ASSIGN_OPS}
_EXPECTED_ASSIGN = (
    ", ".join(repr(op) for op in list(ASSIGN_OPS)[:-1])
    + f" or {list(ASSIGN_OPS)[-1]!r}"
)


class _ReferenceParser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.source = source
        self._auto_label = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind) -> Token:
        tok = self.current
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.location
            )
        return self.advance()

    def accept(self, kind: TokenKind) -> Token | None:
        if self.current.kind is kind:
            return self.advance()
        return None

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------
    def parse_program(self) -> Program:
        nests: list[Loop] = []
        while self.current.kind is not TokenKind.EOF:
            if self.current.kind is not TokenKind.KW_FOR:
                raise ParseError(
                    f"expected a top-level 'for' loop, found {self.current.text!r}",
                    self.current.location,
                )
            nests.append(self.parse_loop())
        if not nests:
            raise ParseError("empty program")
        return Program(tuple(nests), self.source)

    def parse_loop(self) -> Loop:
        loc = self.expect(TokenKind.KW_FOR).location
        self.expect(TokenKind.LPAREN)
        var_tok = self.expect(TokenKind.IDENT)
        self.expect(TokenKind.ASSIGN)
        lower = self.parse_expr()
        self.expect(TokenKind.SEMI)

        cond_var = self.expect(TokenKind.IDENT)
        if cond_var.text != var_tok.text:
            raise ParseError(
                f"loop condition tests {cond_var.text!r}, "
                f"but the loop variable is {var_tok.text!r}",
                cond_var.location,
            )
        if self.accept(TokenKind.LT):
            strict = True
        elif self.accept(TokenKind.LE):
            strict = False
        else:
            raise ParseError(
                f"expected '<' or '<=' in loop condition, found {self.current.text!r}",
                self.current.location,
            )
        upper = self.parse_expr()
        self.expect(TokenKind.SEMI)

        incr_var = self.expect(TokenKind.IDENT)
        if incr_var.text != var_tok.text:
            raise ParseError(
                f"loop increment updates {incr_var.text!r}, "
                f"but the loop variable is {var_tok.text!r}",
                incr_var.location,
            )
        if self.accept(TokenKind.PLUS_PLUS):
            pass
        elif self.accept(TokenKind.PLUS_ASSIGN):
            step_tok = self.expect(TokenKind.NUMBER)
            if step_tok.value != 1:
                raise ParseError(
                    "only unit-step loops are supported "
                    f"(got step {step_tok.value})",
                    step_tok.location,
                )
        else:
            raise ParseError(
                f"expected '++' or '+= 1', found {self.current.text!r}",
                self.current.location,
            )
        self.expect(TokenKind.RPAREN)

        body = self.parse_body()
        return Loop(var_tok.text, lower, upper, strict, tuple(body), loc)

    def parse_body(self) -> list[Loop | Assign]:
        if self.accept(TokenKind.LBRACE):
            items: list[Loop | Assign] = []
            while not self.accept(TokenKind.RBRACE):
                if self.current.kind is TokenKind.EOF:
                    raise ParseError("unterminated '{' block", self.current.location)
                items.append(self.parse_item())
            return items
        return [self.parse_item()]

    def parse_item(self) -> Loop | Assign:
        if self.current.kind is TokenKind.KW_FOR:
            return self.parse_loop()
        return self.parse_statement()

    def parse_statement(self) -> Assign:
        loc = self.current.location
        label: str | None = None
        if (
            self.current.kind is TokenKind.IDENT
            and self.peek().kind is TokenKind.COLON
        ):
            label = self.advance().text
            self.expect(TokenKind.COLON)
        if label is None:
            label = f"S{self._auto_label}"
            self._auto_label += 1

        target = self.parse_access()
        op = _ASSIGN_KINDS.get(self.current.kind)
        if op is None:
            raise ParseError(
                f"expected {_EXPECTED_ASSIGN}, found {self.current.text!r}",
                self.current.location,
            )
        self.advance()
        value = self.parse_expr()
        self.expect(TokenKind.SEMI)
        return Assign(label, target, op, value, loc)

    def parse_access(self) -> ArrayAccess:
        name = self.expect(TokenKind.IDENT)
        if self.current.kind is not TokenKind.LBRACKET:
            raise ParseError(
                f"expected a subscripted array access after {name.text!r}",
                self.current.location,
            )
        indices: list[Expr] = []
        while self.accept(TokenKind.LBRACKET):
            indices.append(self.parse_expr())
            self.expect(TokenKind.RBRACKET)
        return ArrayAccess(name.text, tuple(indices), name.location)

    # -- expressions -----------------------------------------------------
    def parse_expr(self) -> Expr:
        lhs = self.parse_term()
        while self.current.kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance()
            rhs = self.parse_term()
            lhs = BinOp(op.text, lhs, rhs, op.location)
        return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_unary()
        while self.current.kind in (
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ):
            op = self.advance()
            rhs = self.parse_unary()
            lhs = BinOp(op.text, lhs, rhs, op.location)
        return lhs

    def parse_unary(self) -> Expr:
        if self.current.kind is TokenKind.MINUS:
            op = self.advance()
            inner = self.parse_unary()
            return BinOp("-", IntLit(0, op.location), inner, op.location)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.current
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            return IntLit(tok.value, tok.location)
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expr()
            self.expect(TokenKind.RPAREN)
            return inner
        if tok.kind is TokenKind.IDENT:
            nxt = self.peek()
            if nxt.kind is TokenKind.LPAREN:
                return self.parse_call()
            if nxt.kind is TokenKind.LBRACKET:
                return self.parse_access()
            self.advance()
            return VarRef(tok.text, tok.location)
        raise ParseError(f"unexpected token {tok.text!r}", tok.location)

    def parse_call(self) -> Call:
        name = self.expect(TokenKind.IDENT)
        self.expect(TokenKind.LPAREN)
        args: list[Expr] = []
        if self.current.kind is not TokenKind.RPAREN:
            args.append(self.parse_expr())
            while self.accept(TokenKind.COMMA):
                args.append(self.parse_expr())
        self.expect(TokenKind.RPAREN)
        return Call(name.text, tuple(args), name.location)


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


# ----------------------------------------------------------------------
# Definition-level references: Section 4's objects recomputed with plain
# Python loops over points, independent of the vectorized algorithm in
# ``repro.pipeline``, so the tests can cross-check the fast path (and
# ``benchmarks/bench_ablation_backend.py`` can price the naive one).
# ----------------------------------------------------------------------
def pipeline_pairs_bruteforce(scop, source, target, kind=DepKind.FLOW):
    """The pipeline map straight from the paper's definition.

    ``(i, j)`` belongs to the map iff (1) running T up to ``j`` is safe
    once S finished up to ``i``; (2) ``i`` is the smallest vector and ``j``
    the largest vector with property (1).
    """
    from repro.pipeline import raw_dependence_map

    P = raw_dependence_map(scop, source, target, kind)
    if P.is_empty():
        return []
    deps = [
        (tuple(int(v) for v in row[: P.n_in]), tuple(int(v) for v in row[P.n_in :]))
        for row in P.pairs
    ]  # (target j', source i') pairs
    tgt_points = [tuple(int(v) for v in r) for r in target.points.points]

    def safe(i, j):
        return all(ip <= i for jp, ip in deps if jp <= j)

    # For each target point j: the minimal source prefix enabling it.
    def min_source_for(j):
        needed = [ip for jp, ip in deps if jp <= j]
        return max(needed) if needed else None

    # Pair each source anchor with the largest safe target point.
    anchors = {}
    for j in tgt_points:
        i_min = min_source_for(j)
        if i_min is None:
            continue
        if i_min not in anchors or j > anchors[i_min]:
            anchors[i_min] = j
    out = sorted(anchors.items())
    for i, j in out:
        assert safe(i, j), "oracle inconsistency"
    return out


def blocking_bruteforce(domain, ends):
    """Blocking map from its definition: smallest end >= each iteration."""
    pts = sorted(tuple(int(v) for v in r) for r in domain)
    sorted_ends = sorted(ends)
    top = pts[-1]
    return {
        x: next((e for e in sorted_ends if e >= x), top) for x in pts
    }


def pipeline_relation_as_dict(rel):
    """Single-valued relation -> Python dict (for oracle comparisons)."""
    return {
        tuple(int(v) for v in row[: rel.n_in]): tuple(
            int(v) for v in row[rel.n_in :]
        )
        for row in rel.pairs
    }


def lexmin_per_domain(rel):
    """Keep, for each input tuple, the lexicographically smallest output
    (the canonical pairs are sorted by (in, out): the first of a group)."""
    import numpy as np

    if rel.is_empty():
        return rel
    inp = rel.in_part
    return rel.subset(
        np.concatenate([[True], np.any(inp[1:] != inp[:-1], axis=1)])
    )


def source_blocking(statement, domain, pmap):
    """Blocking of the *source* statement of a pipeline map (ends = Dom T)."""
    from repro.pipeline import blocking_from_ends

    return blocking_from_ends(statement, domain, pmap.relation.domain())


def combine_blockings(statement, domain, blockings):
    """Equation 3 as the product computes it: blocking by the union of
    all end sets, which equals the pointwise ``lexmin`` of the maps."""
    from repro.pipeline.blocking import blocking_from_end_sets

    return blocking_from_end_sets(
        statement, domain, [b.ends for b in blockings]
    )


def pointwise_lexmin(statement, blockings):
    """Literal Equation 3: per-iteration lexmin across blocking maps."""
    from repro.pipeline import Blocking

    if not blockings:
        raise ValueError("need at least one blocking map")
    union = blockings[0].mapping
    for b in blockings[1:]:
        union = union.union(b.mapping)
    return Blocking(statement, lexmin_per_domain(union))


def block_index(blocking):
    """Block end tuple -> dense block id in execution order."""
    return {
        tuple(int(v) for v in row): k
        for k, row in enumerate(blocking.ends.points)
    }


def iterations_of_block(blocking, block_id):
    """All iterations belonging to one block, in lexicographic order."""
    import numpy as np

    end = blocking.ends.points[block_id]
    mask = np.all(blocking.mapping.out_part == end, axis=1)
    return blocking.mapping.in_part[mask]


def iterations_by_block(blocking):
    """Iterations of every block at once: ``grouped_iterations`` split
    per block."""
    rows, bounds = blocking.grouped_iterations()
    return [
        rows[bounds[k] : bounds[k + 1]] for k in range(blocking.num_blocks)
    ]


def block_sizes(blocking):
    """Number of iterations in each block, in execution order."""
    import numpy as np

    from repro.presburger import lex_ranks

    _, ranks = np.unique(
        lex_ranks(blocking.mapping.out_part), return_inverse=True
    )
    return np.bincount(ranks, minlength=blocking.num_blocks)


def execute_blocks_in_order(interp, store, blocks):
    """Execute ``TaskBlock`` items in the given order — validates
    topological orders of the task graph."""
    for block in blocks:
        interp.run_block(store, block.statement, block.iterations)
    return store


def element(view, idx):
    """The ``view.data`` index of a kernel index: each dimension's
    offset taken off (a bare int is a 1-D index)."""
    if not isinstance(idx, tuple):
        idx = (idx,)
    return tuple(i - o for i, o in zip(idx, view.offsets))


# ----------------------------------------------------------------------
# The latency-bound stage: an opaque statement body that blocks per call
# (the paper's expensive prime-search kernel, or any I/O / external
# library call).  It is not elementwise, so the fuser refuses it and a
# sequential run pays the full latency serially, while the pipeline
# backends overlap blocked tasks even on one core.
# ----------------------------------------------------------------------
#: Seconds each opaque call blocks in the latency-bound workload.
LATENCY_S = 0.002

#: Two passes over one histogram, the second reversed.
HISTOGRAM_LATENCY = (
    "for(i=0; i<N; i++)\n"
    "  S: H[i] += compute(A[i]);\n"
    "for(i=0; i<N; i++)\n"
    "  R: H[N-1-i] += compute(B[i]);\n"
)


def blocking_compute(*args):
    """Opaque statement body that *blocks* per call.

    Deliberately not marked elementwise: the fuser must refuse it
    (calling it once per block would change semantics from once per
    iteration), so every sequential path pays the latency serially.
    Module-level, hence picklable for the process backend.
    """
    import time

    from repro.interp.interp import _mix

    time.sleep(LATENCY_S)
    return _mix(*args)


def unpack(packer, code):
    """Integer -> vector: the inverse of ``VectorPacker.pack``, the
    oracle its bijectivity is checked against."""
    if not 0 <= code < packer.capacity:
        raise ValueError(f"code {code} outside packer capacity")
    digits = []
    for r in reversed(packer.ranges):
        digits.append(code % r)
        code //= r
    return tuple(d + lo for d, lo in zip(reversed(digits), packer.mins))


# ----------------------------------------------------------------------
# Constraint-system helpers the presburger tests build and check their
# sets with; the product tabulates sets (``enumerate_basic_set``) and
# never asks these questions.
# ----------------------------------------------------------------------
def equality(coeffs, const):
    """The constraint ``coeffs . x + const == 0``."""
    from repro.presburger import Constraint, Kind

    return Constraint(tuple(int(c) for c in coeffs), int(const), Kind.EQ)


def satisfied(constraint, point):
    """Does ``point`` satisfy ``constraint``?"""
    from repro.presburger import Kind

    value = constraint.const + sum(
        c * x for c, x in zip(constraint.coeffs, point)
    )
    return value == 0 if constraint.kind is Kind.EQ else value >= 0


def box(space, bounds):
    """The box ``lo_k <= x_k <= hi_k`` (inclusive) as a ``BasicSet``."""
    from repro.presburger import BasicSet, Constraint

    if len(bounds) != space.ndim:
        raise ValueError("one (lo, hi) pair per dimension required")
    cons = []
    for k, (lo, hi) in enumerate(bounds):
        unit = [int(j == k) for j in range(space.ndim)]
        cons.append(Constraint.ge(tuple(unit), -lo))
        cons.append(Constraint.ge(tuple(-u for u in unit), hi))
    return BasicSet(space, tuple(cons))


def with_constraints(bset, extra):
    """``bset`` with more constraints, each padded to its columns."""
    from repro.presburger import BasicSet

    extra = tuple(c.padded(bset.ncols) for c in extra)
    return BasicSet(bset.space, bset.constraints + extra, bset.n_div)


def contains(bset, point):
    """Membership by evaluating the constraints; with divs, by
    enumerating the (bounded) div columns under ``dims == point``."""
    from repro.presburger import enumerate_basic_set

    if len(point) != bset.ndim:
        raise ValueError("point arity mismatch")
    if bset.n_div == 0:
        return all(satisfied(c, point) for c in bset.constraints)
    pinned = [
        equality([int(k == col) for k in range(bset.ndim)], -int(val))
        for col, val in enumerate(point)
    ]
    return len(enumerate_basic_set(with_constraints(bset, pinned))) > 0


def evaluate(expr, env):
    """Exact value of an ``AffineExpr`` under a full variable binding."""
    return expr.const + sum(v * env[k] for k, v in expr.coeffs)


def rowwise_lex_le(a, b):
    """Element-wise ``a[k] <=lex b[k]`` over two equal-shaped row arrays."""
    import numpy as np

    from repro.presburger import rowwise_lex_lt

    return rowwise_lex_lt(a, b) | np.all(a == b, axis=1)
