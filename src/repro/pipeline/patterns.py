"""Closed-form pattern inference for pipeline maps.

The paper prints pipeline maps symbolically, e.g. for Listing 1::

    { S[i0, i1] -> R[o0, o1] : o0 = i0 and o1 = floor(i1 / 2) and ... }

Our analysis is instantiated (explicit points), but the affine/quasi-affine
*shape* of a map is recoverable from its tabulation: for each output
dimension, :func:`infer_quasi_affine` fits ``floor((a·x + c) / d)`` by
exact rational interpolation and verifies the formula against every pair.
:func:`describe_pipeline_map` renders the result in the paper's notation —
useful for inspecting analyses, for documentation, and for checking that a
map's shape is size-independent (:func:`consistent_across_sizes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..presburger import PointRelation


@dataclass(frozen=True)
class QuasiAffineForm:
    """``floor((coeffs · x + const) / denom)`` with integer coefficients."""

    coeffs: tuple[int, ...]
    const: int
    denom: int

    def evaluate_rows(self, rows: np.ndarray) -> np.ndarray:
        num = rows @ np.asarray(self.coeffs, dtype=np.int64) + self.const
        return num // self.denom

    @property
    def is_affine(self) -> bool:
        return self.denom == 1

    def render(self, var_names: tuple[str, ...]) -> str:
        terms: list[str] = []
        for c, name in zip(self.coeffs, var_names):
            if c == 0:
                continue
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}{name}"
            terms.append(("+ " if terms and not term.startswith("-") else "")
                         + (term if not terms or not term.startswith("-")
                            else f"- {term[1:]}"))
        body = " ".join(terms) if terms else "0"
        if self.const:
            sign = "+" if self.const > 0 else "-"
            body = f"{body} {sign} {abs(self.const)}" if terms else str(self.const)
        if self.denom == 1:
            return body
        return f"floor(({body}) / {self.denom})"


class NoPatternError(ValueError):
    """The relation does not follow a single quasi-affine pattern."""


def infer_quasi_affine(
    inputs: np.ndarray, outputs: np.ndarray, max_denom: int = 8
) -> QuasiAffineForm:
    """Fit one output column as ``floor(affine(x) / d)`` and verify exactly.

    Tries denominators 1..``max_denom``; for each, solves the rational
    least-squares system on ``d * y ≈ a·x + c`` restricted to an integer
    solution, then checks the floor formula on *every* row.  Raises
    :class:`NoPatternError` when nothing fits.
    """
    n, dim = inputs.shape
    if outputs.shape != (n,):
        raise ValueError("outputs must be one column aligned with inputs")
    if n == 0:
        raise NoPatternError("cannot infer a pattern from zero pairs")

    design = np.concatenate(
        [inputs.astype(np.float64), np.ones((n, 1))], axis=1
    )
    for denom in range(1, max_denom + 1):
        target = outputs.astype(np.float64) * denom
        sol, *_ = np.linalg.lstsq(design, target, rcond=None)
        cand = np.round(sol).astype(np.int64)
        form = QuasiAffineForm(
            tuple(int(v) for v in cand[:dim]), int(cand[dim]), denom
        )
        if np.array_equal(form.evaluate_rows(inputs), outputs):
            return form
        # The floor truncation biases the naive fit; retry with offsets.
        for offset in range(denom):
            form = QuasiAffineForm(
                tuple(int(v) for v in cand[:dim]),
                int(cand[dim]) + offset,
                denom,
            )
            if np.array_equal(form.evaluate_rows(inputs), outputs):
                return form
    raise NoPatternError(
        f"no quasi-affine pattern with denominator <= {max_denom}"
    )


def infer_relation_pattern(
    rel: PointRelation, max_denom: int = 8
) -> list[QuasiAffineForm]:
    """One quasi-affine form per output dimension of a functional relation."""
    if not rel.is_single_valued():
        raise NoPatternError("relation is not a function")
    return [
        infer_quasi_affine(rel.in_part, rel.out_part[:, k], max_denom)
        for k in range(rel.n_out)
    ]


def describe_pipeline_map(
    pmap,
    in_names: tuple[str, ...] | None = None,
    out_names: tuple[str, ...] | None = None,
) -> str:
    """The paper-style symbolic rendering of a pipeline map.

    Combines the inferred per-dimension formulas with the bounding box of
    the anchors; raises :class:`NoPatternError` for irregular maps.
    """
    rel = pmap.relation
    n_in, n_out = rel.n_in, rel.n_out
    in_names = in_names or tuple(f"i{k}" for k in range(n_in))
    out_names = out_names or tuple(f"o{k}" for k in range(n_out))
    forms = infer_relation_pattern(rel)
    eqs = [
        f"{name} = {form.render(in_names)}"
        for name, form in zip(out_names, forms)
    ]
    lo = rel.in_part.min(axis=0)
    hi = rel.in_part.max(axis=0)
    bounds = [
        f"{int(l)} <= {name} <= {int(h)}"
        for name, l, h in zip(in_names, lo, hi)
    ]
    return (
        f"{{ {pmap.source}[{', '.join(in_names)}] -> "
        f"{pmap.target}[{', '.join(out_names)}] : "
        + " and ".join(eqs + bounds)
        + " }"
    )

