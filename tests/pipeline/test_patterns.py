"""Tests for closed-form pattern inference of pipeline maps."""

import numpy as np
import pytest

from repro.pipeline import (
    NoPatternError,
    QuasiAffineForm,
    compute_pipeline_map,
    describe_pipeline_map,
    infer_quasi_affine,
    infer_relation_pattern,
)
from repro.presburger import PointRelation


class TestQuasiAffineForm:
    def test_affine_evaluation(self):
        form = QuasiAffineForm((2, -1), 3, 1)
        rows = np.array([[0, 0], [1, 2], [5, 5]])
        assert form.evaluate_rows(rows).tolist() == [3, 3, 8]
        assert form.is_affine

    def test_floor_evaluation(self):
        form = QuasiAffineForm((1,), 0, 2)
        rows = np.array([[0], [1], [2], [3]])
        assert form.evaluate_rows(rows).tolist() == [0, 0, 1, 1]
        assert not form.is_affine

    def test_render(self):
        assert QuasiAffineForm((1, 0), 0, 1).render(("i", "j")) == "i"
        assert QuasiAffineForm((1,), 0, 2).render(("i",)) == "floor((i) / 2)"
        assert "2i" in QuasiAffineForm((2, 1), -1, 1).render(("i", "j"))
        assert QuasiAffineForm((0,), 5, 1).render(("i",)) == "5"
        assert QuasiAffineForm((1, -1), 0, 1).render(("i", "j")) == "i - j"


class TestInference:
    def test_identity(self):
        rows = np.arange(10).reshape(-1, 1)
        form = infer_quasi_affine(rows, rows.ravel())
        assert form == QuasiAffineForm((1,), 0, 1)

    def test_affine_two_vars(self):
        rows = np.array([[i, j] for i in range(5) for j in range(5)])
        outs = 3 * rows[:, 0] - 2 * rows[:, 1] + 7
        form = infer_quasi_affine(rows, outs)
        assert form.coeffs == (3, -2) and form.const == 7 and form.denom == 1

    def test_floor_division(self):
        rows = np.arange(20).reshape(-1, 1)
        outs = (rows.ravel() + 1) // 3
        form = infer_quasi_affine(rows, outs)
        assert form.denom == 3
        assert np.array_equal(form.evaluate_rows(rows), outs)

    def test_no_pattern(self):
        rows = np.arange(10).reshape(-1, 1)
        outs = rows.ravel() ** 2
        with pytest.raises(NoPatternError):
            infer_quasi_affine(rows, outs)

    def test_relation_pattern_requires_function(self):
        rel = PointRelation(np.array([[0, 1], [0, 2]]), 1)
        with pytest.raises(NoPatternError):
            infer_relation_pattern(rel)

    def test_empty_rejected(self):
        with pytest.raises(NoPatternError):
            infer_quasi_affine(np.zeros((0, 1), dtype=np.int64),
                               np.zeros(0, dtype=np.int64))


class TestPaperMap:
    def test_listing1_symbolic_form(self, listing1_scop):
        """Recovers the paper's printed map for Listing 1 at N = 20."""
        pm = compute_pipeline_map(
            listing1_scop,
            listing1_scop.statement("S"),
            listing1_scop.statement("R"),
        )
        text = describe_pipeline_map(pm)
        assert "o0 = i0" in text
        assert "o1 = floor((i1) / 2)" in text
        assert "0 <= i0 <= 8" in text
        assert "0 <= i1 <= 16" in text
        assert text.startswith("{ S[")
