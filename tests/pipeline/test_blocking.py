"""Tests for blocking maps (Section 4.2, Equations 2 and 3)."""

import numpy as np
import pytest

from repro.presburger import PointSet
from repro.pipeline import (
    blocking_from_ends,
    compute_pipeline_map,
)
from tests.conftest import (
    block_index,
    block_sizes,
    blocking_bruteforce,
    combine_blockings,
    execute_blocks_in_order,
    iterations_by_block,
    iterations_of_block,
    pointwise_lexmin,
    source_blocking,
    target_blocking,
)


def pset(rows):
    return PointSet(np.asarray(rows, dtype=np.int64))


def line(n):
    return pset([[k] for k in range(n)])


class TestBlockingFromEnds:
    def test_basic_partition(self):
        b = blocking_from_ends("S", line(10), pset([[2], [5]]))
        m = {int(r[0]): int(r[1]) for r in b.mapping.pairs}
        assert m == {0: 2, 1: 2, 2: 2, 3: 5, 4: 5, 5: 5,
                     6: 9, 7: 9, 8: 9, 9: 9}
        assert b.num_blocks == 3

    def test_last_end_equals_lexmax(self):
        b = blocking_from_ends("S", line(5), pset([[4]]))
        assert b.num_blocks == 1

    def test_no_ends_single_block(self):
        b = blocking_from_ends("S", line(5), PointSet.empty(1))
        assert b.num_blocks == 1
        assert b.ends.points.ravel().tolist() == [4]

    def test_empty_domain(self):
        b = blocking_from_ends("S", PointSet.empty(1), pset([[1]]))
        assert b.num_blocks == 0

    def test_ends_outside_domain_dropped(self):
        b = blocking_from_ends("S", line(4), pset([[1], [99]]))
        assert b.ends.points.ravel().tolist() == [1, 3]

    def test_matches_bruteforce(self):
        domain = pset([[i, j] for i in range(4) for j in range(4)])
        ends = pset([[0, 2], [1, 1], [2, 3]])
        b = blocking_from_ends("S", domain, ends)
        expect = blocking_bruteforce(
            domain.points, [tuple(r) for r in ends.points.tolist()]
        )
        got = {
            tuple(r[:2]): tuple(r[2:]) for r in b.mapping.pairs.tolist()
        }
        assert got == expect

    def test_totality_and_idempotence(self):
        domain = pset([[i, j] for i in range(5) for j in range(3)])
        ends = pset([[1, 1], [3, 0]])
        b = blocking_from_ends("S", domain, ends)
        assert len(b.mapping) == len(domain)  # total
        # idempotent: ends map to themselves
        for e in b.ends.points:
            assert b.mapping.lookup(tuple(int(v) for v in e)).tolist() == [
                e.tolist()
            ]


class TestPaperBlockingExample:
    def test_listing1_blocks(self, listing1_scop):
        """Section 4.1's example: [1,1],[1,2] one block; [1,3],[1,4] another."""
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        b = source_blocking("S", S.points, pm)
        m = {
            tuple(r[:2]): tuple(r[2:]) for r in b.mapping.pairs.tolist()
        }
        assert m[(1, 1)] == (1, 2)
        assert m[(1, 2)] == (1, 2)
        assert m[(1, 3)] == (1, 4)
        assert m[(1, 4)] == (1, 4)

    def test_leftover_rows_map_to_lexmax(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        b = source_blocking("S", S.points, pm)
        m = {
            tuple(r[:2]): tuple(r[2:]) for r in b.mapping.pairs.tolist()
        }
        # rows 9..18 of S feed nothing: all in the final block at lexmax
        assert m[(9, 0)] == (18, 18)
        assert m[(18, 18)] == (18, 18)

    def test_target_blocking_uses_range(self, listing1_scop):
        S = listing1_scop.statement("S")
        R = listing1_scop.statement("R")
        pm = compute_pipeline_map(listing1_scop, S, R)
        b = target_blocking("R", R.points, pm)
        assert b.ends == pm.relation.range()


class TestCombine:
    def test_union_of_ends(self):
        b1 = blocking_from_ends("S", line(10), pset([[3]]))
        b2 = blocking_from_ends("S", line(10), pset([[5]]))
        combined = combine_blockings("S", line(10), [b1, b2])
        assert combined.ends.points.ravel().tolist() == [3, 5, 9]

    def test_combine_equals_pointwise_lexmin(self, listing3_scop):
        """Equation 3 two ways: union-of-ends == literal pointwise lexmin."""
        S = listing3_scop.statement("S")
        maps = []
        for tgt_name in ("R", "U"):
            pm = compute_pipeline_map(
                listing3_scop, S, listing3_scop.statement(tgt_name)
            )
            maps.append(source_blocking("S", S.points, pm))
        fast = combine_blockings("S", S.points, maps)
        literal = pointwise_lexmin("S", maps)
        assert fast.mapping == literal.mapping

    def test_empty_list_single_block(self):
        combined = combine_blockings("S", line(6), [])
        assert combined.num_blocks == 1

    def test_refinement_never_coarser(self):
        b1 = blocking_from_ends("S", line(12), pset([[2], [7]]))
        b2 = blocking_from_ends("S", line(12), pset([[4]]))
        combined = combine_blockings("S", line(12), [b1, b2])
        # every original end survives
        for b in (b1, b2):
            for e in b.ends.points:
                assert combined.ends.contains(tuple(int(v) for v in e))


class TestBlockAccessors:
    def make(self):
        return blocking_from_ends("S", line(10), pset([[2], [5]]))

    def test_block_sizes(self):
        assert block_sizes(self.make()).tolist() == [3, 3, 4]

    def test_iterations_of_block(self):
        b = self.make()
        assert iterations_of_block(b, 1).ravel().tolist() == [3, 4, 5]

    def test_block_of_rows(self):
        b = self.make()
        ids = b.block_of_rows(np.array([[0], [4], [9]]))
        assert ids.tolist() == [0, 1, 2]

    def test_block_index(self):
        b = self.make()
        assert block_index(b) == {(2,): 0, (5,): 1, (9,): 2}


class TestIterationsByBlock:
    def test_matches_per_block_queries(self, listing1_scop):
        from repro.pipeline import detect_pipeline

        info = detect_pipeline(listing1_scop)
        for name in ("S", "R"):
            blocking = info.blockings[name]
            grouped = iterations_by_block(blocking)
            assert len(grouped) == blocking.num_blocks
            for block_id, iters in enumerate(grouped):
                import numpy as np

                assert np.array_equal(
                    iters, iterations_of_block(blocking, block_id)
                )

    def test_empty_blocking(self):
        b = blocking_from_ends("S", PointSet.empty(1), pset([[1]]))
        assert iterations_by_block(b) == []


class TestCoarsen:
    def test_coarsen_merges(self):
        b = blocking_from_ends(
            "S", line(20), pset([[1], [3], [5], [7], [9]])
        )
        c = b.coarsened(2)
        assert c.ends.points.ravel().tolist() == [3, 7, 19]

    def test_factor_one_identity(self):
        b = self.make_blocking()
        assert b.coarsened(1) is b

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            self.make_blocking().coarsened(0)

    def test_coarsen_covers_domain(self):
        b = self.make_blocking()
        c = b.coarsened(3)
        assert len(c.mapping) == len(b.mapping)
        # every coarse end is one of the original ends
        for e in c.ends.points:
            assert b.ends.contains(tuple(int(v) for v in e))

    @staticmethod
    def make_blocking():
        return blocking_from_ends(
            "S", line(15), pset([[1], [4], [6], [8], [11]])
        )


class TestCoarsenParameterized:
    """Regression: ``coarsened()`` on domains driven by a symbolic N.

    The blockings of a real kernel inherit their shape from the size
    parameter; ragged cases (N odd, factor not dividing the block count)
    historically risked dropping iterations or moving the final end.
    ``coarsened()`` now asserts both invariants itself — these tests pin
    them across sizes and factors.
    """

    KERNEL = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: A[i][j] = f(A[i][j]);
for(i=0; i<N/2; i++)
  for(j=0; j<N; j++)
    T: B[i][j] = g(A[2*i][j], B[i][j]);
"""

    @pytest.mark.parametrize("n", [5, 7, 8, 11, 12])
    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_invariants_across_sizes(self, n, factor):
        from repro.interp import Interpreter
        from repro.pipeline import detect_pipeline

        interp = Interpreter.from_source(self.KERNEL, {"N": n})
        info = detect_pipeline(interp.scop)
        for name, b in info.blockings.items():
            c = b.coarsened(factor)
            # same statement domain, block count shrunk as expected
            assert c.mapping.domain() == b.mapping.domain()
            assert c.num_blocks == -(-b.num_blocks // factor)
            # coarse ends are original ends, final end preserved
            assert len(c.ends.difference(b.ends)) == 0
            assert (c.ends.points[-1] == b.ends.points[-1]).all()

    @pytest.mark.parametrize("n", [5, 9])
    def test_coarsened_pipeline_executes_identically(self, n):
        from repro.interp import Interpreter
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast
        from repro.tasking import TaskGraph

        interp = Interpreter.from_source(self.KERNEL, {"N": n})
        seq = interp.run_sequential(interp.new_store())
        info = detect_pipeline(interp.scop, coarsen=3)
        graph = TaskGraph.from_task_ast(generate_task_ast(info))
        store = interp.new_store()
        blocks = [
            graph.tasks[tid].block for tid in graph.topological_order()
        ]
        par = execute_blocks_in_order(interp, store, blocks)
        assert seq.equal(par)
