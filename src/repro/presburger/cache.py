"""Per-operation computation counters of the explicit relation layer.

Nothing here caches: a fact derived from one immutable relation (its
domain, range, per-input lexmax) is kept on that relation
(:class:`~repro.presburger.explicit.PointRelation`), and every other
operation computes.  :func:`count` records one computation of an op;
:func:`op_call_counts` is what :mod:`repro.obs.spans` diffs across a span
(its ``presburger_ops``).

:func:`cache_clear` and :func:`stats` keep the names the benchmark
harness (``ledger/``) reads, until its pinned API surface is revised
(ROADMAP item 5): ``cache_clear()`` zeroes the counters, and ``stats()``
reports the computations as ``.calls``, with ``.hit_rate`` 0.0 and
``.evictions`` 0.
"""

from __future__ import annotations

from dataclasses import dataclass

_COUNTS: dict[str, int] = {}


def count(op: str) -> None:
    """Record one computation of ``op``."""
    _COUNTS[op] = _COUNTS.get(op, 0) + 1


def op_call_counts() -> dict[str, int]:
    """``{op name: computations}`` since the last :func:`cache_clear`."""
    return dict(_COUNTS)


def cache_clear() -> None:
    """Zero the counters."""
    _COUNTS.clear()


@dataclass(frozen=True)
class Stats:
    """The counters as the benchmark harness reads them."""

    calls: int
    hit_rate: float = 0.0
    evictions: int = 0


def stats() -> Stats:
    return Stats(calls=sum(_COUNTS.values()))
