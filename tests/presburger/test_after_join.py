"""``PointRelation.after`` against a brute-force double loop.

The join looks every left row up in the (already sorted) right keys and
then takes one of two shapes: a plain gather when no left row matches
more than one right row, a per-row range expansion otherwise.  Seeded
random relations drive both, on packed keys and on the
``np.unique(axis=0)`` rank fallback.
"""

import numpy as np
import pytest

from repro.presburger import PointRelation


def brute(left: PointRelation, right: PointRelation) -> list[list[int]]:
    """``right ∘ left`` by the definition, canonically ordered."""
    n = left.n_in
    return [
        list(t)
        for t in sorted(
            {
                tuple(lrow[:n]) + tuple(rrow[right.n_in :])
                for lrow in left.pairs.tolist()
                for rrow in right.pairs.tolist()
                if lrow[n:] == rrow[: right.n_in]
            }
        )
    ]


def relation(rng, rows, n_in, n_out, lo, hi, scale=1):
    pairs = rng.integers(lo, hi, size=(rows, n_in + n_out)) * scale
    return PointRelation(pairs.astype(np.int64), n_in)


def function_on(rng, keys: np.ndarray, n_out: int) -> PointRelation:
    """A single-valued relation with the given (distinct) input rows."""
    out = rng.integers(-9, 9, size=(keys.shape[0], n_out))
    return PointRelation.from_arrays(keys, out)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("scale", [1, 2**40], ids=["packed", "unpackable"])
def test_gather_shape_function_valued_right_side(
    seed, scale, unique_axis0_calls
):
    rng = np.random.default_rng(seed)
    left = relation(rng, 40, 1, 2, -6, 6, scale)
    keys = np.unique(
        rng.integers(-6, 6, size=(30, 2)) * scale, axis=0
    ).astype(np.int64)
    right = function_on(rng, keys, 2)
    assert right.is_single_valued()
    ranked = len(unique_axis0_calls)
    got = right.after(left)
    assert (len(unique_axis0_calls) > ranked) == (scale != 1)
    assert got.pairs.tolist() == brute(left, right)
    assert (got.n_in, got.n_out) == (1, 2)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("scale", [1, 2**40], ids=["packed", "unpackable"])
def test_expanding_shape_many_to_many_on_both_sides(
    seed, scale, unique_axis0_calls
):
    rng = np.random.default_rng(100 + seed)
    # two-column keys out of a 3 x 3 box: every key repeats on both sides
    keys = lambda: rng.integers(0, 3, size=(35, 2)) * scale
    values = lambda: rng.integers(0, 50, size=(35, 1))
    left = PointRelation.from_arrays(values(), keys())
    right = PointRelation.from_arrays(keys(), values())
    assert not right.is_single_valued()
    ranked = len(unique_axis0_calls)
    got = right.after(left)
    assert (len(unique_axis0_calls) > ranked) == (scale != 1)
    expected = brute(left, right)
    assert len(expected) > len(left)  # really a cross product per key
    assert got.pairs.tolist() == expected


@pytest.mark.parametrize("scale", [1, 2**40], ids=["packed", "unpackable"])
def test_no_common_key_is_the_empty_relation(scale):
    rng = np.random.default_rng(7)
    left = relation(rng, 20, 1, 2, 0, 5, scale)
    right = relation(rng, 20, 2, 3, 5, 10, scale)
    got = right.after(left)
    assert got.is_empty() and (got.n_in, got.n_out) == (1, 3)
    assert brute(left, right) == []


def test_partial_overlap_keeps_only_matching_rows():
    # left keys 0..9, right keys 5..14, right a function: rows below 5 and
    # the keys above 9 must drop out of the gather
    left = PointRelation.from_arrays(
        np.arange(10).reshape(-1, 1), np.arange(10).reshape(-1, 1)
    )
    right = PointRelation.from_arrays(
        np.arange(5, 15).reshape(-1, 1), np.arange(5, 15).reshape(-1, 1) * 10
    )
    assert right.after(left).pairs.tolist() == [
        [k, 10 * k] for k in range(5, 10)
    ]


def test_empty_operands():
    rng = np.random.default_rng(3)
    rel = relation(rng, 10, 2, 2, 0, 4)
    none = PointRelation.empty(2, 2)
    for got in (rel.after(none), none.after(rel), none.after(none)):
        assert got.is_empty() and (got.n_in, got.n_out) == (2, 2)


def test_arity_mismatch_still_raises():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="arity"):
        relation(rng, 5, 2, 1, 0, 4).after(relation(rng, 5, 1, 1, 0, 4))
