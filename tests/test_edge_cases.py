"""Edge cases across the whole stack."""

import pytest

from repro import TransformOptions, transform
from repro.bench import build_scop
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.tasking import TaskGraph


class TestEmptyDomains:
    EMPTY_SECOND = (
        "for(i=0; i<4; i++) S: A[i][0] = f(A[i][0]);\n"
        "for(i=0; i<0; i++) T: B[i][0] = g(A[i][0]);"
    )
    ALL_EMPTY = "for(i=0; i<0; i++) S: A[i][0] = f(A[i][0]);"
    EMPTY_SOURCE = (
        "for(i=0; i<0; i++) S: A[i][0] = f(A[i][0]);\n"
        "for(i=0; i<4; i++) T: B[i][0] = g(C[i][0]);"
    )

    def test_empty_second_nest(self):
        result = transform(self.EMPTY_SECOND)
        assert result.verified
        assert result.num_tasks == 1  # only S produces a block

    def test_all_nests_empty(self):
        result = transform(self.ALL_EMPTY)
        assert result.num_tasks == 0
        assert result.simulation.makespan == 0.0

    def test_empty_source_nest(self):
        result = transform(self.EMPTY_SOURCE)
        assert result.verified

    # The three tests above are the ``exec_backend=None`` point (their
    # ids are pinned by the test floor, so they stay unparametrized);
    # this is the measured rest: a nest without blocks must lower to no
    # task rows, not crash in the packer.
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize(
        "source,tasks",
        [
            pytest.param(EMPTY_SECOND, 1, id="empty_second_nest"),
            pytest.param(ALL_EMPTY, 0, id="all_nests_empty"),
            pytest.param(EMPTY_SOURCE, 1, id="empty_source_nest"),
        ],
    )
    def test_measured_backends(self, source, tasks, backend):
        result = transform(
            source, options=TransformOptions(exec_backend=backend)
        )
        assert result.verified
        assert result.num_tasks == tasks
        assert result.execution.backend == backend
        assert result.execution.blocks_total == tasks


class TestSingleIteration:
    def test_one_by_one_domains(self):
        result = transform(
            "for(i=0; i<1; i++) S: A[i][0] = f(A[i][0]);\n"
            "for(i=0; i<1; i++) T: B[i][0] = g(A[i][0]);"
        )
        assert result.verified
        assert result.num_tasks == 2
        assert result.info.pipeline_maps

    def test_single_point_pipeline_map(self):
        scop = build_scop(
            "for(i=0; i<1; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=0; i<1; i++) T: C[i][0] = g(A[i][0]);"
        )
        info = detect_pipeline(scop)
        pm = info.pipeline_maps[("S", "T")]
        assert pm.relation.pairs.tolist() == [[0, 0]]


class TestDeepAndWide:
    def test_three_deep_nest_analysis(self):
        """Depth-3 nests analyze correctly (codegen-level depth limits are
        the paper's, not the analysis')."""
        result = transform(
            "for(i=0; i<3; i++) for(j=0; j<3; j++) for(k=0; k<3; k++) "
            "S: A[i][j][k] = f(A[i][j][k]);\n"
            "for(i=0; i<3; i++) for(j=0; j<3; j++) for(k=0; k<3; k++) "
            "T: B[i][j][k] = g(A[i][j][k], B[i][j][k]);"
        )
        assert result.verified
        assert result.speedup > 1.0

    def test_rank3_arrays(self):
        scop = build_scop(
            "for(i=0; i<2; i++) S: A[i][0][1] = f(B[i][i][i]);"
        )
        assert scop.arrays == {"A": 3, "B": 3}

    def test_many_nests(self):
        chunks = ["for(i=0; i<4; i++) S1: A1[i][0] = f(A1[i][0]);"]
        for k in range(2, 7):
            chunks.append(
                f"for(i=0; i<4; i++) S{k}: A{k}[i][0] = "
                f"f(A{k}[i][0], A{k - 1}[i][0]);"
            )
        result = transform("\n".join(chunks), options=TransformOptions(workers=6))
        assert result.verified
        assert len(result.info.pipeline_maps) >= 5


class TestDegenerateAccesses:
    def test_constant_subscripts(self):
        """A target reading one fixed cell pipelines on that single write."""
        scop = build_scop(
            "for(i=0; i<5; i++) S: A[i][0] = f(B[i][0]);\n"
            "for(i=0; i<5; i++) T: C[i][0] = g(A[3][0]);"
        )
        info = detect_pipeline(scop)
        pm = info.pipeline_maps[("S", "T")]
        # every T iteration needs exactly S[3]
        assert pm.requirement.range().points.ravel().tolist() == [3]

    def test_negative_offsets(self):
        result = transform(
            "for(i=0; i<6; i++) S: A[i][0] = f(A[i-1][0]);\n"
            "for(i=2; i<6; i++) T: B[i][0] = g(A[i-2][0], B[i-1][0]);"
        )
        assert result.verified

    def test_nonunit_lower_bounds(self):
        result = transform(
            "for(i=3; i<9; i++) S: A[i][0] = f(A[i][0]);\n"
            "for(i=3; i<9; i++) T: B[i][0] = g(A[i][0], B[i][0]);"
        )
        assert result.verified
        assert result.info.blockings["S"].ends.lexmin()[0] >= 3


class TestGraphEdgeCases:
    def test_task_graph_from_empty_ast(self):
        scop = build_scop("for(i=0; i<0; i++) S: A[i][0] = f(A[i][0]);")
        info = detect_pipeline(scop)
        ast = generate_task_ast(info)
        graph = TaskGraph.from_task_ast(ast)
        assert len(graph) == 0
        graph.validate()
