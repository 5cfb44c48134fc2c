"""Mutation tests for the legality checker.

Starting from known-good pipelined task graphs, deliberately corrupt the
edge set — drop a cross-statement edge, drop a self-chain link, reverse
an edge — and assert the checker pinpoints the exact violated instance
pairs rather than merely flagging "illegal".
"""

import pytest

from repro.lang import parse
from repro.pipeline import detect_pipeline
from repro.schedule import check_legality, generate_task_ast
from repro.schedule.legality import IllegalScheduleError
from repro.scop import DepKind, extract_scop
from repro.tasking import TaskGraph

LISTING1 = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""


@pytest.fixture(scope="module")
def good():
    scop = extract_scop(parse(LISTING1), {"N": 12})
    info = detect_pipeline(scop)
    ast = generate_task_ast(info)
    graph = TaskGraph.from_task_ast(ast)
    return scop, info, ast, graph


def rebuild(graph, *, drop=(), reverse=()):
    """Copy ``graph`` with some (pred, succ) edges dropped or reversed."""
    out = TaskGraph()
    for task in graph.tasks:
        out.add_task(task.statement, task.block_id, task.cost, task.block)
    for succ, preds in enumerate(graph.preds):
        for pred in preds:
            if (pred, succ) in drop:
                continue
            if (pred, succ) in reverse:
                out.add_edge(succ, pred)
            else:
                out.add_edge(pred, succ)
    return out


def cross_edges(graph):
    """(pred, succ) pairs connecting different statements."""
    return [
        (pred, succ)
        for succ, preds in enumerate(graph.preds)
        for pred in preds
        if graph.tasks[pred].statement != graph.tasks[succ].statement
    ]


def self_edges(graph, statement):
    return [
        (pred, succ)
        for succ, preds in enumerate(graph.preds)
        for pred in preds
        if graph.tasks[pred].statement == statement
        and graph.tasks[succ].statement == statement
    ]


class TestBaseline:
    def test_untouched_graph_is_legal(self, good):
        scop, info, _, graph = good
        report = check_legality(scop, info, graph)
        assert report.ok
        assert report.checked_pairs > 0


class TestDroppedCrossEdge:
    def test_violations_name_the_exact_instance_pairs(self, good):
        scop, info, _, graph = good
        edges = cross_edges(graph)
        assert edges, "the pipeline graph must have cross-statement edges"
        # Drop the last cross edge: its consumer block loses its only path
        # from the producer block it depends on.
        pred, succ = edges[-1]
        mutated = rebuild(graph, drop={(pred, succ)})
        report = check_legality(scop, info, mutated)
        assert not report.ok
        for v in report.violations:
            assert v.kind is DepKind.FLOW
            assert (v.source, v.target) == ("S", "R")
            # every reported pair is a real dependence: the source writes
            # A[i][j], the target reads A[i][2j]
            si, sj = v.source_instance
            ti, tj = v.target_instance
            assert (si, sj) == (ti, 2 * tj)

    def test_raise_if_illegal(self, good):
        scop, info, _, graph = good
        pred, succ = cross_edges(graph)[-1]
        mutated = rebuild(graph, drop={(pred, succ)})
        with pytest.raises(IllegalScheduleError, match="must precede"):
            check_legality(scop, info, mutated).raise_if_illegal()


class TestDroppedSelfEdge:
    def test_broken_self_chain_violates_intra_statement_deps(self, good):
        scop, info, _, graph = good
        chain = self_edges(graph, "S")
        assert len(chain) > 2
        mutated = rebuild(graph, drop={chain[len(chain) // 2]})
        report = check_legality(scop, info, mutated)
        assert not report.ok
        assert all(
            v.source == "S" and v.target == "S" for v in report.violations
        )
        # each violated pair respects lexicographic order in the original
        for v in report.violations:
            assert tuple(v.source_instance) < tuple(v.target_instance)


class TestReversedEdge:
    def test_reversed_cross_edge_detected(self, good):
        scop, info, _, graph = good
        pred, succ = cross_edges(graph)[0]
        mutated = rebuild(graph, reverse={(pred, succ)})
        report = check_legality(scop, info, mutated)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert DepKind.FLOW in kinds

    def test_reversing_whole_chain_is_cyclic_or_illegal(self, good):
        from repro.tasking.task import CyclicTaskGraphError

        scop, info, _, graph = good
        edges = set(self_edges(graph, "R"))
        try:
            mutated = rebuild(graph, reverse=edges)
        except CyclicTaskGraphError:
            return  # reversal already rejected at construction
        try:
            report = check_legality(scop, info, mutated)
        except CyclicTaskGraphError:
            return  # reachability refuses cyclic graphs
        assert not report.ok


class TestMissingTask:
    def test_block_without_a_task_is_named(self, good):
        """A blocking block the graph has no task for is refused by
        name, never looked up at a wrapped ``-1`` index."""
        scop, info, _, graph = good
        last = max(t.task_id for t in graph.tasks if t.statement == "R")
        assert last == len(graph) - 1
        out = TaskGraph()
        for task in graph.tasks[:last]:
            out.add_task(task.statement, task.block_id, task.cost, task.block)
        for succ, preds in enumerate(graph.preds[:last]):
            for pred in preds:
                out.add_edge(pred, succ)
        block = graph.tasks[last].block_id
        with pytest.raises(
            IllegalScheduleError,
            match=f"block {block} of statement 'R' has no task",
        ):
            check_legality(scop, info, out)


# ----------------------------------------------------------------------
# the checker against dependences spelled out instance by instance
# ----------------------------------------------------------------------
def executes_before(src, a, tgt, b) -> bool:
    """Sequential order of instance ``a`` of ``src`` and ``b`` of ``tgt``."""
    if src.nest_index != tgt.nest_index:
        return src.nest_index < tgt.nest_index
    common = min(src.depth, tgt.depth)
    if a[:common] != b[:common]:
        return a[:common] < b[:common]
    if src is tgt:
        return a < b
    return src.position < tgt.position


def bruteforce_dependences(scop):
    """``(kind, source, source instance, target, target instance)`` of
    every instance-level dependence, by the definition: two instances
    touching one cell of one array in the roles of the kind, the source
    executing first.  Python loops and a cell dictionary, no relation."""
    touched = {}  # (statement, role) -> {(array, cell): [instances]}
    for stmt in scop.statements:
        for acc in stmt.accesses:
            matrix, const = acc.index_map(stmt.space)
            cells = touched.setdefault((stmt.name, acc.kind.value), {})
            for point in stmt.points.points:
                cell = (acc.array, tuple((matrix @ point + const).tolist()))
                cells.setdefault(cell, []).append(tuple(point.tolist()))
    roles = {
        DepKind.FLOW: ("write", "read"),
        DepKind.ANTI: ("read", "write"),
        DepKind.OUTPUT: ("write", "write"),
    }
    found = set()
    for kind, (src_role, tgt_role) in roles.items():
        for src in scop.statements:
            for tgt in scop.statements:
                theirs = touched.get((tgt.name, tgt_role), {})
                for cell, mine in touched.get((src.name, src_role), {}).items():
                    for a in mine:
                        for b in theirs.get(cell, ()):
                            if executes_before(src, a, tgt, b):
                                found.add((kind, src.name, a, tgt.name, b))
    return found


class TestAgainstBruteForceDependences:
    """Dropping an edge must report exactly the dependences the mutated
    graph no longer orders — every one, of every kind, and no other."""

    @staticmethod
    def expected_violations(scop, info, graph, deps):
        from tests.conftest import dense_reach

        reach = dense_reach(graph)
        tasks = {(t.statement, t.block_id): t.task_id for t in graph.tasks}

        def task_of(name, instance):
            (block,) = info.blockings[name].block_of_rows([list(instance)])
            return tasks[name, int(block)]

        bad = set()
        for kind, src, a, tgt, b in deps:
            s, t = task_of(src, a), task_of(tgt, b)
            if not (reach[s, t] or (src == tgt and s == t)):
                bad.add((kind, src, a, tgt, b))
        return bad

    def test_legal_graph_checks_every_dependence(self, good):
        scop, info, _, graph = good
        deps = bruteforce_dependences(scop)
        # (writes are injective: Listing 1 has no output dependence)
        assert {kind for kind, *_ in deps} == {DepKind.FLOW, DepKind.ANTI}
        report = check_legality(scop, info, graph)
        assert report.ok and report.checked_pairs == len(deps)

    def test_each_dropped_edge_reports_exactly_the_lost_pairs(self, good):
        scop, info, _, graph = good
        deps = bruteforce_dependences(scop)
        cross, chain = cross_edges(graph), self_edges(graph, "S")
        dropped = [cross[0], cross[len(cross) // 2], cross[-1]]
        dropped += [chain[1], chain[len(chain) // 2]]
        dropped += self_edges(graph, "R")[-1:]
        kinds_seen = set()
        for edge in dropped:
            mutated = rebuild(graph, drop={edge})
            report = check_legality(
                scop, info, mutated, max_violations=len(deps)
            )
            got = {
                (v.kind, v.source, v.source_instance, v.target,
                 v.target_instance)
                for v in report.violations
            }
            assert len(got) == len(report.violations)
            assert got == self.expected_violations(
                scop, info, mutated, deps
            ), edge
            assert got, edge
            assert report.checked_pairs == len(deps)
            kinds_seen |= {kind for kind, *_ in got}
        assert kinds_seen == {DepKind.FLOW, DepKind.ANTI}

    def test_checked_pairs_is_every_dependence_on_table9(self):
        from repro.workloads import TABLE9

        for name in sorted(TABLE9):
            scop = extract_scop(parse(TABLE9[name].source(8)), None)
            info = detect_pipeline(scop, coarsen=3)
            graph = TaskGraph.from_task_ast(generate_task_ast(info))
            report = check_legality(scop, info, graph)
            assert report.ok, name
            assert report.checked_pairs == len(
                bruteforce_dependences(scop)
            ), name
