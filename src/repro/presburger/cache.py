"""Performance layer: structural interning and a memoized operation cache.

Every stage of the pipeline algebra — ``P = Wr⁻¹ ∘ Rd``, the running
``lexmax`` of Section 4.1, the blocking refinement of Section 4.2, the
``Q_S`` construction of Section 4.3 — bottoms out in repeated point-set
and point-relation operations.  This module keeps that substrate from
recomputing identical results:

* **Interning (hash-consing).**  :func:`intern` maps every structurally
  equal :class:`~repro.presburger.basic_set.BasicSet`, ``Constraint``,
  ``Space``, ``PointSet`` or ``PointRelation`` to one canonical
  representative, so repeated operands compare by identity and hash once
  (the value classes cache their structural hash on first use).  The
  intern table is LRU-bounded; eviction only forgets canonical status,
  never changes semantics.

* **Memoized operation cache.**  :func:`memoized` wraps the hot operations
  (``intersect``, ``union``, ``difference``, ``after``/compose, ``apply``,
  per-domain ``lexmin`` / ``lexmax``, domain/range projection,
  enumeration) in a bounded LRU keyed on the *canonicalized* operands.
  Hit, miss, eviction and trivial-fast-path counters are kept per
  operation and surfaced through :func:`stats` / ``repro analyze --stats``
  and the :mod:`repro.bench` trace section.

Configuration: the ``REPRO_PRESBURGER_CACHE`` environment variable
(``0``/``off`` disables, ``1``/``on`` enables, an integer sets the LRU
capacity) sets the process default; :func:`configure` changes it and
:func:`overridden` scopes a change to a ``with`` block.  Correctness never depends on the cache: every memoized
operation is a pure function of immutable operands, and the differential
fuzz harness (``tests/fuzz/``) asserts bit-identical results with the
cache on and off.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TypeVar

T = TypeVar("T")

ENV_VAR = "REPRO_PRESBURGER_CACHE"
#: Default number of memoized results (and interned objects) kept.
DEFAULT_MAXSIZE = 8192


def _parse_env(raw: str | None) -> tuple[bool, int]:
    """``(enabled, maxsize)`` from a ``REPRO_PRESBURGER_CACHE`` value."""
    if raw is None:
        return True, DEFAULT_MAXSIZE
    value = raw.strip().lower()
    if value in {"", "1", "on", "true", "yes", "enabled"}:
        return True, DEFAULT_MAXSIZE
    if value in {"0", "off", "false", "no", "disabled"}:
        return False, DEFAULT_MAXSIZE
    try:
        size = int(value)
    except ValueError:
        return True, DEFAULT_MAXSIZE
    return (size > 0, size if size > 0 else DEFAULT_MAXSIZE)


@dataclass
class OpStats:
    """Counters of one memoized operation."""

    calls: int = 0
    hits: int = 0
    misses: int = 0
    #: calls answered by a trivial empty/universe fast path (no cache lookup)
    trivial: int = 0

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "calls": self.calls,
            "hits": self.hits,
            "misses": self.misses,
            "trivial": self.trivial,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache's counters."""

    enabled: bool
    maxsize: int
    entries: int
    interned: int
    hits: int
    misses: int
    evictions: int
    trivial: int
    ops: dict[str, OpStats] = field(default_factory=dict)

    @property
    def calls(self) -> int:
        return sum(op.calls for op in self.ops.values())

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "maxsize": self.maxsize,
            "entries": self.entries,
            "interned": self.interned,
            "calls": self.calls,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "trivial": self.trivial,
            "hit_rate": round(self.hit_rate, 4),
            "ops": {name: op.as_dict() for name, op in sorted(self.ops.items())},
        }

    def format(self) -> str:
        """Human-readable report (the ``repro analyze --stats`` section)."""
        state = "enabled" if self.enabled else "disabled"
        lines = [
            f"presburger cache: {state} "
            f"(maxsize={self.maxsize}, entries={self.entries}, "
            f"interned={self.interned})",
            f"  hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} trivial={self.trivial} "
            f"hit-rate={100.0 * self.hit_rate:.1f}%",
        ]
        if not self.ops:
            return "\n".join(lines)
        name_w = max(len(n) for n in self.ops) + 2
        lines.append(
            f"  {'operation':<{name_w}}{'calls':>8}{'hits':>8}"
            f"{'misses':>8}{'trivial':>9}"
        )
        for name in sorted(self.ops):
            op = self.ops[name]
            lines.append(
                f"  {name:<{name_w}}{op.calls:>8}{op.hits:>8}"
                f"{op.misses:>8}{op.trivial:>9}"
            )
        return "\n".join(lines)


class _PresburgerCache:
    """The process-wide bounded LRU op cache plus the intern table."""

    def __init__(self, enabled: bool, maxsize: int) -> None:
        self._lock = threading.RLock()
        self._data: OrderedDict[tuple, Any] = OrderedDict()
        self._interned: OrderedDict[Any, Any] = OrderedDict()
        self._ops: dict[str, OpStats] = {}
        self.enabled = enabled
        self.maxsize = max(1, int(maxsize))
        self.evictions = 0

    # -- stats ----------------------------------------------------------
    def op_stats(self, op: str) -> OpStats:
        st = self._ops.get(op)
        if st is None:
            with self._lock:
                st = self._ops.setdefault(op, OpStats())
        return st

    def snapshot(self) -> CacheStats:
        with self._lock:
            ops = {
                name: OpStats(st.calls, st.hits, st.misses, st.trivial)
                for name, st in self._ops.items()
            }
            return CacheStats(
                enabled=self.enabled,
                maxsize=self.maxsize,
                entries=len(self._data),
                interned=len(self._interned),
                hits=sum(st.hits for st in ops.values()),
                misses=sum(st.misses for st in ops.values()),
                evictions=self.evictions,
                trivial=sum(st.trivial for st in ops.values()),
                ops=ops,
            )

    def reset_stats(self) -> None:
        with self._lock:
            self._ops.clear()
            self.evictions = 0

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._interned.clear()

    # -- interning ------------------------------------------------------
    def intern(self, obj: T) -> T:
        with self._lock:
            canonical = self._interned.get(obj)
            if canonical is not None:
                self._interned.move_to_end(obj)
                return canonical
            self._interned[obj] = obj
            while len(self._interned) > self.maxsize:
                self._interned.popitem(last=False)
            return obj

    # -- memoization ----------------------------------------------------
    def get(self, key: tuple) -> tuple[bool, Any]:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return True, self._data[key]
            return False, None

    def put(self, key: tuple, value: Any) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1


_CACHE = _PresburgerCache(*_parse_env(os.environ.get(ENV_VAR)))

#: Value classes canonicalized by :func:`intern` when used as cache keys.
#: Populated by the defining modules via :func:`register_internable`.
_INTERNABLE: set[type] = set()


def register_internable(cls: type) -> type:
    """Mark a value class as hash-consed (usable as a canonical cache key)."""
    _INTERNABLE.add(cls)
    return cls


def intern(obj: T) -> T:
    """The canonical representative of a registered immutable value object.

    Objects of unregistered types are returned unchanged.  Two interned
    objects are structurally equal iff they are the same object (while both
    remain canonical — the table is LRU-bounded, so long-evicted objects
    may re-intern to a fresh representative; equality semantics are
    unaffected).
    """
    if type(obj) in _INTERNABLE:
        return _CACHE.intern(obj)
    return obj


def memoized(op: str, compute: Callable[[], T], *key_parts: Any) -> T:
    """Memoize ``compute()`` under ``op`` keyed on canonicalized operands.

    ``key_parts`` must be hashable; parts of registered value types are
    interned first so structurally equal operands share one cache entry
    and key hashing is O(1) after the first use.  With the cache disabled
    this only counts the call and runs ``compute``.
    """
    st = _CACHE.op_stats(op)
    st.calls += 1
    if not _CACHE.enabled:
        return compute()
    key = (op,) + tuple(
        _CACHE.intern(p) if type(p) in _INTERNABLE else p for p in key_parts
    )
    hit, value = _CACHE.get(key)
    if hit:
        st.hits += 1
        return value
    st.misses += 1
    value = compute()
    if type(value) in _INTERNABLE:
        value = _CACHE.intern(value)
    _CACHE.put(key, value)
    return value


def count_trivial(op: str) -> None:
    """Record a call answered by an empty/universe fast path."""
    st = _CACHE.op_stats(op)
    st.calls += 1
    st.trivial += 1


# ----------------------------------------------------------------------
# configuration and introspection
# ----------------------------------------------------------------------
def is_enabled() -> bool:
    return _CACHE.enabled


def configure(
    enabled: bool | None = None, maxsize: int | None = None
) -> None:
    """Adjust the process-wide cache.  ``None`` keeps the current value.

    Disabling clears the memo and intern tables (freeing their memory);
    shrinking ``maxsize`` evicts oldest entries down to the new bound.
    """
    if maxsize is not None:
        _CACHE.maxsize = max(1, int(maxsize))
        with _CACHE._lock:
            while len(_CACHE._data) > _CACHE.maxsize:
                _CACHE._data.popitem(last=False)
                _CACHE.evictions += 1
            while len(_CACHE._interned) > _CACHE.maxsize:
                _CACHE._interned.popitem(last=False)
    if enabled is not None:
        _CACHE.enabled = bool(enabled)
        if not _CACHE.enabled:
            _CACHE.clear()


@contextmanager
def overridden(
    enabled: bool | None = None, maxsize: int | None = None
) -> Iterator[None]:
    """Temporarily reconfigure the cache (restores the previous settings)."""
    prev_enabled, prev_maxsize = _CACHE.enabled, _CACHE.maxsize
    configure(enabled=enabled, maxsize=maxsize)
    try:
        yield
    finally:
        configure(enabled=prev_enabled, maxsize=prev_maxsize)


def cache_clear(reset_counters: bool = True) -> None:
    """Drop all memoized results and interned objects (and the counters)."""
    _CACHE.clear()
    if reset_counters:
        _CACHE.reset_stats()


def reset_stats() -> None:
    """Zero the counters without dropping cached results."""
    _CACHE.reset_stats()


def stats() -> CacheStats:
    """A snapshot of the current counters and table sizes."""
    return _CACHE.snapshot()


def op_call_counts() -> dict[str, int]:
    """Cheap ``{op name: calls}`` snapshot (no OpStats copies).

    Used by :mod:`repro.obs.spans` to attribute Presburger operations to
    compile-phase spans: the delta of these counters across a span is
    the number of set/map operations that ran inside it.
    """
    with _CACHE._lock:
        return {name: st.calls for name, st in _CACHE._ops.items()}


def format_stats() -> str:
    return stats().format()
