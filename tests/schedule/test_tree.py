"""Tests for schedule tree nodes."""

import numpy as np

from repro.presburger import PointRelation, PointSet
from repro.schedule import (
    BandNode,
    DomainNode,
    ExpansionNode,
    Leaf,
    MarkNode,
    ScheduleTree,
    SequenceNode,
)
from tests.conftest import marks


def ps(rows):
    return PointSet(np.asarray(rows, dtype=np.int64))


def small_tree():
    inner = DomainNode(
        "S",
        ps([[0], [1]]),
        MarkNode("pipeline_deps", {"x": 1}, BandNode(1, Leaf(), role="intra")),
    )
    outer = DomainNode(
        "S",
        ps([[1]]),
        BandNode(
            1,
            ExpansionNode(
                PointRelation(np.array([[0, 1], [1, 1]]), 1), inner
            ),
            role="block",
        ),
    )
    return ScheduleTree(SequenceNode((outer,)))


class TestWalk:
    def test_walk_visits_all(self):
        kinds = [type(n).__name__ for n in small_tree().walk()]
        assert kinds == [
            "SequenceNode",
            "DomainNode",
            "BandNode",
            "ExpansionNode",
            "DomainNode",
            "MarkNode",
            "BandNode",
            "Leaf",
        ]

    def test_marks_by_name(self):
        tree = small_tree()
        assert len(marks(tree, "pipeline_deps")) == 1
        assert len(marks(tree, "other")) == 0
        assert len(marks(tree)) == 1

    def test_leaf_has_no_children(self):
        assert Leaf().children() == ()


class TestPretty:
    def test_labels(self):
        text = small_tree().pretty()
        assert "sequence (1 children)" in text
        assert "domain S (1 points)" in text
        assert "band[1] (block)" in text
        assert "expansion (|E| = 2)" in text
        assert "mark 'pipeline_deps'" in text
        assert "leaf" in text

    def test_indentation_reflects_depth(self):
        lines = small_tree().pretty().splitlines()
        assert lines[0].startswith("sequence")
        assert lines[1].startswith("  domain")
        assert lines[-1].strip() == "leaf"

    def test_str_equals_pretty(self):
        t = small_tree()
        assert str(t) == t.pretty()
