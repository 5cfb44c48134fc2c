"""Tests for the report/visualization helpers."""

import pytest

from repro.bench import (
    ascii_timeline,
    build_scop,
    pipeline_task_graph,
)
from repro.tasking import TaskGraph, simulate
from repro.workloads import CostModel


@pytest.fixture(scope="module")
def sim_setup():
    src = (
        "for(i=0; i<8; i++) for(j=0; j<8; j++) S1: A1[i][j]=f(A1[i][j]);\n"
        "for(i=0; i<8; i++) for(j=0; j<8; j++) "
        "S2: A2[i][j]=f(A2[i][j], A1[i][j]);"
    )
    scop = build_scop(src)
    graph = pipeline_task_graph(scop, CostModel.uniform(1.0))
    sim = simulate(graph, workers=4)
    return graph, sim


class TestAsciiTimeline:
    def test_one_row_per_statement(self, sim_setup):
        graph, sim = sim_setup
        text = ascii_timeline(graph, sim)
        lines = text.splitlines()
        assert lines[0].startswith("S1 |")
        assert lines[1].startswith("S2 |")

    def test_overlap_visible(self, sim_setup):
        graph, sim = sim_setup
        lines = ascii_timeline(graph, sim, width=40).splitlines()
        row1 = lines[0].split("|")[1]
        row2 = lines[1].split("|")[1]
        overlap = sum(
            1 for a, b in zip(row1, row2) if a == "#" and b == "#"
        )
        assert overlap > 10  # the nests genuinely pipeline

    def test_scale_line(self, sim_setup):
        graph, sim = sim_setup
        assert ascii_timeline(graph, sim).splitlines()[-1].strip().startswith("0")

    def test_width_checked(self, sim_setup):
        graph, sim = sim_setup
        with pytest.raises(ValueError):
            ascii_timeline(graph, sim, width=2)

    def test_empty_schedule(self):
        g = TaskGraph()
        sim = simulate(g, workers=1)
        assert "empty" in ascii_timeline(g, sim)

