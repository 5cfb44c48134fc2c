"""Tests for the array store."""

import numpy as np
import pytest

from repro.interp import ArrayStore, ArrayView
from repro.lang import parse
from repro.scop import extract_scop
from tests.conftest import element


def scop_of(src, **params):
    return extract_scop(parse(src), params or None)


class TestAllocation:
    def test_shapes_cover_extents(self, listing1_scop_small):
        store = ArrayStore.for_scop(listing1_scop_small)
        # A touched up to index 9 (i+1 with i <= 8): shape 10x10
        assert store.arrays["A"].data.shape == (10, 10)

    def test_offsets_for_negative_indices(self):
        scop = scop_of("for(i=0; i<5; i++) S: A[i][0] = f(A[i-2][0]);")
        store = ArrayStore.for_scop(scop)
        view = store.arrays["A"]
        assert view.offsets[0] == -2
        view.data[element(view, (-2, 0))] = 42.0
        assert view.data[0, 0] == 42.0

    def test_init_modes(self, listing1_scop_small):
        zeros = ArrayStore.for_scop(listing1_scop_small, init="zeros")
        ones = ArrayStore.for_scop(listing1_scop_small, init="ones")
        index = ArrayStore.for_scop(listing1_scop_small, init="index")
        assert zeros.arrays["A"].data.sum() == 0
        assert ones.arrays["A"].data.min() == 1
        assert index.arrays["A"].data.std() > 0

    def test_bad_init(self, listing1_scop_small):
        with pytest.raises(ValueError):
            ArrayStore.for_scop(listing1_scop_small, init="random")

    def test_index_init_deterministic(self, listing1_scop_small):
        a = ArrayStore.for_scop(listing1_scop_small)
        b = ArrayStore.for_scop(listing1_scop_small)
        assert a.equal(b)


class TestViews:
    def test_get_set_roundtrip(self):
        view = ArrayView("A", np.zeros((3, 3)), (1, 0))
        view.data[element(view, (1, 2))] = 5.0
        assert view.data[element(view, (1, 2))] == 5.0
        assert view.data[0, 2] == 5.0

    def test_single_index(self):
        view = ArrayView("v", np.zeros(4), (1,))
        view.data[element(view, 1)] = 2.0
        assert view.data[0] == 2.0


class TestComparison:
    def test_copy_independent(self, listing1_scop_small):
        a = ArrayStore.for_scop(listing1_scop_small)
        b = a.copy()
        b.arrays["A"].data[0, 0] += 1
        assert not a.equal(b)
        assert a.max_abs_diff(b) == 1.0

    def test_equal_different_keys(self, listing1_scop_small, copy_scop):
        a = ArrayStore.for_scop(listing1_scop_small)
        c = ArrayStore.for_scop(copy_scop)
        assert not a.equal(c)

    def test_equal_is_bit_identity(self, listing1_scop_small):
        """A NaN equals the same NaN; 0.0 does not equal -0.0; dtype and
        shape are part of the comparison."""
        a = ArrayStore.for_scop(listing1_scop_small, init="zeros")
        a.arrays["A"].data[1, 1] = np.nan
        assert a.equal(a.copy())  # np.array_equal says False
        negzero = a.copy()
        negzero.arrays["B"].data[0, 0] = -0.0
        assert not a.equal(negzero)  # np.array_equal says True
        assert a.max_abs_diff(negzero) == 0.0
        narrow = a.copy()
        narrow.arrays["B"].data = narrow.arrays["B"].data.astype(np.float32)
        assert not a.equal(narrow)
        flat = a.copy()
        flat.arrays["B"].data = flat.arrays["B"].data.reshape(-1)
        assert not a.equal(flat)

    def test_max_abs_diff_is_nan_honest(self, listing1_scop_small):
        a = ArrayStore.for_scop(listing1_scop_small, init="zeros")
        a.arrays["A"].data[0, 0] = np.nan
        a.arrays["A"].data[0, 1] = np.inf
        b = a.copy()
        b.arrays["A"].data[2, 2] = 3.0
        assert a.max_abs_diff(b) == 3.0  # same NaN, same inf: no difference
        b.arrays["A"].data[0, 0] = 1.0  # NaN on one side only
        assert np.isnan(a.max_abs_diff(b))
