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
  per-point lexmin/lexmax algebra of the paper runs.
* **Performance layer** — :mod:`~repro.presburger.cache` hash-conses the
  value classes and memoizes the hot operations in a bounded LRU
  (``REPRO_PRESBURGER_CACHE`` env var, :func:`cache_configure`,
  :func:`cache_stats`).
"""

from . import cache
from .affine import AffineExpr
from .basic_set import BasicSet
from .cache import (
    CacheStats,
    cache_clear,
    configure as cache_configure,
    format_stats as cache_format_stats,
    overridden as cache_overridden,
    reset_stats as cache_reset_stats,
    stats as cache_stats,
)
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
    "CacheStats",
    "cache",
    "cache_clear",
    "cache_configure",
    "cache_format_stats",
    "cache_overridden",
    "cache_reset_stats",
    "cache_stats",
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
