"""Enumeration of bounded integer sets into NumPy point arrays.

This bridges constraint systems and the explicit layer
(:mod:`repro.presburger.explicit`): a bounded :class:`BasicSet` is scanned
level by level, with per-level rational bounds obtained by Fourier–Motzkin
elimination, and the resulting candidate points filtered exactly against the
original constraints.  All per-level work is vectorized over the set of
partial prefixes, following the HPC guides' "no Python loops over points"
rule.
"""

from __future__ import annotations

import numpy as np

from .basic_set import BasicSet
from .cache import count
from .constraint import Constraint, Kind
from .explicit import lexsorted_rows, unique_rows


class UnboundedSetError(ValueError):
    """Enumeration was asked for a set with an unbounded dimension."""


def _as_inequalities(constraints: tuple[Constraint, ...]) -> list[Constraint]:
    """Replace each equality by the two opposite inequalities."""
    out: list[Constraint] = []
    for c in constraints:
        if c.kind is Kind.EQ:
            out.append(Constraint.ge(c.coeffs, c.const))
            out.append(Constraint.ge(tuple(-a for a in c.coeffs), -c.const))
        else:
            out.append(c)
    return out


def _eliminate_last(cons: list[Constraint], ncols: int) -> list[Constraint]:
    """Fourier–Motzkin elimination of the last column (exact integers)."""
    lowers, uppers, rest = [], [], []
    for c in cons:
        a = c.coeffs[ncols - 1]
        if a > 0:
            lowers.append(c)
        elif a < 0:
            uppers.append(c)
        else:
            rest.append(Constraint.ge(c.coeffs[: ncols - 1], c.const))
    combined: set[tuple[tuple[int, ...], int]] = set()
    for lo in lowers:
        al = lo.coeffs[ncols - 1]
        for up in uppers:
            au = -up.coeffs[ncols - 1]
            coeffs = tuple(
                au * cl + al * cu
                for cl, cu in zip(lo.coeffs[: ncols - 1], up.coeffs[: ncols - 1])
            )
            const = au * lo.const + al * up.const
            combined.add((coeffs, const))
    out = rest + [Constraint.ge(c, k).normalized() for c, k in combined]
    # Deduplicate to contain FM blowup.
    seen: set[tuple[tuple[int, ...], int]] = set()
    deduped: list[Constraint] = []
    for c in out:
        key = (c.coeffs, c.const)
        if key not in seen and not c.is_trivial():
            seen.add(key)
            deduped.append(c)
    return deduped


def enumerate_basic_set(bs: BasicSet) -> np.ndarray:
    """All integer points of a bounded basic set, lexicographically sorted.

    Existential columns are scanned too, then projected away with
    deduplication, so sets whose divs encode floor divisions enumerate
    correctly.  Raises :class:`UnboundedSetError` when a scanned column has
    no finite rational bound.
    """
    count("enumeration.basic_set")
    ncols = bs.ncols
    if ncols == 0:
        return np.zeros((1, 0), dtype=np.int64)

    ineqs = _as_inequalities(bs.constraints)
    # Per-level systems via successive FM elimination from the last column.
    levels: list[list[Constraint]] = [[] for _ in range(ncols)]
    current = [c.padded(ncols) for c in ineqs]
    for k in range(ncols - 1, -1, -1):
        levels[k] = current
        if k > 0:
            current = _eliminate_last(current, k + 1)
            if any(c.is_contradiction() for c in current):
                return np.zeros((0, bs.ndim), dtype=np.int64)

    prefixes = np.zeros((1, 0), dtype=np.int64)
    for k in range(ncols):
        lows, ups = [], []
        for c in levels[k]:
            a = c.coeffs[k]
            head = np.asarray(c.coeffs[:k], dtype=np.int64)
            if a > 0:
                lows.append((a, head, c.const))
            elif a < 0:
                ups.append((a, head, c.const))
        if not lows or not ups:
            raise UnboundedSetError(
                f"column {k} of {bs} has no finite bound"
            )
        n = prefixes.shape[0]
        if n == 0:
            return np.zeros((0, bs.ndim), dtype=np.int64)
        lb = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        ub = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        for a, head, const in lows:
            # a*x_k >= -(head·prefix + const); x_k >= ceil(rhs / a)
            rhs = -(prefixes @ head + const)
            np.maximum(lb, -((-rhs) // a), out=lb)
        for a, head, const in ups:
            # a*x_k >= -(head·prefix + const) with a < 0; x_k <= floor(rhs/-a)
            rhs = prefixes @ head + const
            np.minimum(ub, rhs // (-a), out=ub)
        counts = np.clip(ub - lb + 1, 0, None)
        total = int(counts.sum())
        if total == 0:
            return np.zeros((0, bs.ndim), dtype=np.int64)
        rows = np.repeat(np.arange(n), counts)
        starts = np.repeat(lb, counts)
        # offset within each run: global arange minus run start index
        run_starts = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        values = starts + (np.arange(total) - run_starts)
        prefixes = np.concatenate(
            [prefixes[rows], values[:, None]], axis=1
        )

    # Exact integral filter against original constraints (incl. equalities).
    if bs.constraints:
        keep = np.ones(prefixes.shape[0], dtype=bool)
        for c in bs.constraints:
            vals = prefixes @ np.asarray(c.coeffs, dtype=np.int64) + c.const
            keep &= (vals == 0) if c.kind is Kind.EQ else (vals >= 0)
        prefixes = prefixes[keep]

    pts = prefixes[:, : bs.ndim]
    if bs.n_div:
        pts = unique_rows(pts)
    else:
        pts = lexsorted_rows(pts)
    return np.ascontiguousarray(pts)

