"""The explicit relation layer (the reproduction's ISL substitute).

The paper's Section 4 algebra — ``P = Wr⁻¹ ∘ Rd``, the running
``lexmax``, blocking, the ``Q_S`` relations — runs on tabulated, bounded
sets and relations; this package is that substrate and nothing else:

* **Iteration domains** — :class:`Space`, :class:`AffineExpr`,
  :class:`Constraint` and :class:`BasicSet` (a conjunction of affine
  constraints, as the frontend extracts it from loop bounds), enumerated
  once by :func:`enumerate_basic_set` / :func:`to_point_set`
  (Fourier–Motzkin scan, :class:`UnboundedSetError` on an unbounded one).
* **Explicit layer** — :class:`PointSet` and :class:`PointRelation`,
  vectorized NumPy tabulations of bounded sets and relations, where the
  per-point lexmin/lexmax algebra of the paper runs.  Relations are
  immutable, so the facts asked again of one relation (its domain,
  range and per-input lexmax) are computed on first read and kept on it;
  every other operation computes.  :mod:`~repro.presburger.cache` only
  counts those computations per operation (the spans'
  ``presburger_ops``).
"""

from . import cache
from .affine import AffineExpr
from .basic_set import BasicSet
from .constraint import Constraint, Kind
from .convert import to_point_set
from .enumeration import UnboundedSetError, enumerate_basic_set
from .explicit import (
    PointRelation,
    PointSet,
    joint_ranks,
    lex_ranks,
    lexsorted_rows,
    rowwise_lex_lt,
    unique_rows,
)
from .space import Space

__all__ = [
    "AffineExpr",
    "BasicSet",
    "cache",
    "Constraint",
    "Kind",
    "PointRelation",
    "PointSet",
    "Space",
    "UnboundedSetError",
    "enumerate_basic_set",
    "joint_ranks",
    "lex_ranks",
    "lexsorted_rows",
    "rowwise_lex_lt",
    "to_point_set",
    "unique_rows",
]
