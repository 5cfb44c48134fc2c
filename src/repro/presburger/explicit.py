"""Explicit (tabulated) integer sets and relations on NumPy arrays.

For instantiated SCoPs the pipeline algebra of the paper is computed on
*explicit* point sets: every set is an ``(n, d)`` ``int64`` array of points,
every relation an ``(n, d_in + d_out)`` array of pairs.  All operations are
vectorized; nothing loops over points in Python, per the HPC guides.  Only
the constructors sort (and only unsorted input): membership is ``isin`` on
row keys, and a join (:meth:`PointRelation.after`) looks the left rows up in
the right side's sorted keys with one ``searchsorted`` pair — a gather when
the right side is a function on the matched keys, else a range expansion.

Lexicographic machinery is built on *row keys*: :func:`joint_ranks` maps the
rows of the participating arrays to scalar ``int64`` keys whose order is
exactly lexicographic row order and whose equality is row equality across
all of them.  Keys are the paper's §5.4 mixed-radix code, ``(a - lo) @
weights`` over the arrays' joint bounding box, so every canonicalisation
and join compares machine integers.  The box volume (the product of the
per-column ranges) is computed in Python integers; rows are packed only when
it is below ``2**62``.  Otherwise — and for zero-column or non-``int64``
arrays — the same functions rank the rows with ``np.unique(axis=0)``, so wide
coordinates cost speed, never correctness.  Which branch runs depends only
on the input's bounding box.

:func:`unique_rows` always returns an owned C-contiguous array, also when
its input is already canonical: a :class:`PointSet` / :class:`PointRelation`
never aliases (or pins) the buffer it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cache

__all__ = [
    "PointSet",
    "PointRelation",
    "lexsorted_rows",
    "unique_rows",
    "joint_ranks",
    "lex_ranks",
    "rowwise_lex_lt",
    "rowwise_lex_le",
]


def _as_points(arr: object, ndim: int | None = None) -> np.ndarray:
    a = np.asarray(arr, dtype=np.int64)
    if a.ndim == 1 and a.size == 0:
        a = a.reshape(0, ndim if ndim is not None else 0)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D point array, got shape {a.shape}")
    if ndim is not None and a.shape[1] != ndim:
        raise ValueError(f"expected {ndim} columns, got {a.shape[1]}")
    return a


def lexsorted_rows(arr: np.ndarray) -> np.ndarray:
    """Rows sorted in lexicographic order (first column most significant)."""
    if arr.shape[0] <= 1:
        return arr
    return arr[np.lexsort(arr.T[::-1])]


#: packed keys stay below this, so ``a - lo`` and the weighted sum cannot wrap
_KEY_CAPACITY = 2**62


def _row_keys(arrays: tuple[np.ndarray, ...]) -> list[np.ndarray] | None:
    """Mixed-radix keys over the joint bounding box; ``None`` = does not fit."""
    if any(a.dtype != np.int64 for a in arrays):
        return None
    # (d, n) copies: per-column min/max and the weighted sum run along
    # contiguous memory, several times faster than axis 0 of (n, d)
    cols = [np.ascontiguousarray(a.T) for a in arrays]
    nonempty = [c for c in cols if c.shape[1]]
    if not nonempty:
        return None
    lo = np.minimum.reduce([c.min(axis=1) for c in nonempty])
    hi = np.maximum.reduce([c.max(axis=1) for c in nonempty])
    weights, volume = [], 1
    for low, high in zip(reversed(lo.tolist()), reversed(hi.tolist())):
        weights.append(volume)
        volume *= high - low + 1  # Python ints: exact, never wraps
    if not weights or volume >= _KEY_CAPACITY:
        return None
    w = np.array(weights[::-1], dtype=np.int64)
    return [w @ (c - lo[:, None]) for c in cols]


def unique_rows(arr: np.ndarray) -> np.ndarray:
    """Lexicographically sorted rows with duplicates removed (a fresh array)."""
    if arr.shape[0] > 1:
        keys = _row_keys((arr,))
        if keys is None:
            return np.unique(arr, axis=0)
        (key,) = keys
        if not np.all(key[1:] > key[:-1]):
            _, first = np.unique(key, return_index=True)
            return arr[first]
    return np.array(arr, order="C")  # already canonical: copy, never alias


def joint_ranks(*arrays: np.ndarray) -> list[np.ndarray]:
    """Key rows of several arrays under one shared lexicographic order.

    Equal rows (across arrays) get equal keys; ``key(a) < key(b)`` iff row
    ``a`` is lexicographically smaller than row ``b``.  Keys are not dense.
    """
    keys = _row_keys(arrays)
    if keys is not None:
        return keys
    nonempty = [a for a in arrays if a.shape[0]]
    if not nonempty:
        return [np.zeros(0, dtype=np.int64) for _ in arrays]
    stacked = np.concatenate(nonempty, axis=0)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    inverse = inverse.astype(np.int64).ravel()
    out: list[np.ndarray] = []
    offset = 0
    for a in arrays:
        n = a.shape[0]
        out.append(inverse[offset : offset + n])
        offset += n
    return out


def lex_ranks(arr: np.ndarray) -> np.ndarray:
    """Lexicographic order keys of the rows of one array."""
    return joint_ranks(arr)[0]


def rowwise_lex_lt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise ``a[k] <lex b[k]`` over two equal-shaped row arrays."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    n, d = a.shape
    result = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    for col in range(d):
        less = undecided & (a[:, col] < b[:, col])
        result |= less
        undecided &= a[:, col] == b[:, col]
    return result


# ----------------------------------------------------------------------
@cache.register_internable
@dataclass(frozen=True)
class PointSet:
    """A finite set of integer points, canonically sorted and deduplicated."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", unique_rows(_as_points(self.points)))

    # -- construction ---------------------------------------------------
    @staticmethod
    def empty(ndim: int) -> "PointSet":
        return PointSet(np.zeros((0, ndim), dtype=np.int64))

    @staticmethod
    def single(point: tuple[int, ...]) -> "PointSet":
        return PointSet(np.asarray([point], dtype=np.int64))

    # -- structure ------------------------------------------------------
    @property
    def ndim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def is_empty(self) -> bool:
        return len(self) == 0

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.array_equal(self.points, other.points)
        )

    def __hash__(self) -> int:  # frozen dataclass with array payload
        try:
            return self._hash
        except AttributeError:
            h = hash((self.points.shape, self.points.tobytes()))
            object.__setattr__(self, "_hash", h)
            return h

    # -- set algebra ------------------------------------------------------
    def union(self, other: "PointSet") -> "PointSet":
        self._check(other)
        if other.is_empty():
            cache.count_trivial("PointSet.union")
            return self
        if self.is_empty():
            cache.count_trivial("PointSet.union")
            return other
        return cache.memoized(
            "PointSet.union",
            lambda: PointSet(
                np.concatenate([self.points, other.points], axis=0)
            ),
            self,
            other,
        )

    def intersect(self, other: "PointSet") -> "PointSet":
        self._check(other)
        if self.is_empty() or other.is_empty():
            cache.count_trivial("PointSet.intersect")
            return PointSet.empty(self.ndim)
        return cache.memoized(
            "PointSet.intersect",
            lambda: PointSet(
                self.points[self.contains_rows(other=other.points)]
            ),
            self,
            other,
        )

    def difference(self, other: "PointSet") -> "PointSet":
        self._check(other)
        if self.is_empty() or other.is_empty():
            cache.count_trivial("PointSet.difference")
            return self
        return cache.memoized(
            "PointSet.difference",
            lambda: PointSet(
                self.points[~self.contains_rows(other=other.points)]
            ),
            self,
            other,
        )

    def contains_rows(self, other: np.ndarray) -> np.ndarray:
        """Boolean mask over *self's* rows: which appear in ``other``."""
        if self.is_empty():
            return np.zeros(0, dtype=bool)
        mine, theirs = joint_ranks(self.points, _as_points(other, self.ndim))
        return np.isin(mine, theirs)

    def contains(self, point: tuple[int, ...]) -> bool:
        if self.is_empty():
            return False
        row = np.asarray(point, dtype=np.int64)
        return bool(np.any(np.all(self.points == row, axis=1)))

    # -- lexicographic queries -------------------------------------------
    def lexmin(self) -> tuple[int, ...]:
        if self.is_empty():
            raise ValueError("lexmin of an empty point set")
        return tuple(int(v) for v in self.points[0])

    def lexmax(self) -> tuple[int, ...]:
        if self.is_empty():
            raise ValueError("lexmax of an empty point set")
        return tuple(int(v) for v in self.points[-1])

    def first_geq(self, targets: "PointSet") -> np.ndarray:
        """For each of *self's* points, index into ``targets`` of the
        lexicographically smallest target ``>=`` the point, or ``len(targets)``
        when every target is smaller."""
        if targets.ndim != self.ndim:
            raise ValueError("dimensionality mismatch")
        mine, theirs = joint_ranks(self.points, targets.points)
        return np.searchsorted(theirs, mine, side="left")

    def _check(self, other: "PointSet") -> None:
        if other.ndim != self.ndim:
            raise ValueError(
                f"dimensionality mismatch: {self.ndim} vs {other.ndim}"
            )

    def __str__(self) -> str:
        return f"PointSet({len(self)} points, dim {self.ndim})"


# ----------------------------------------------------------------------
@cache.register_internable
@dataclass(frozen=True)
class PointRelation:
    """A finite binary relation between integer tuples.

    ``pairs`` holds one row per related pair: the first ``n_in`` columns are
    the input tuple, the rest the output tuple.  Rows are kept canonically
    sorted and deduplicated.
    """

    pairs: np.ndarray
    n_in: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", unique_rows(_as_points(self.pairs)))
        if not 0 <= self.n_in <= self.pairs.shape[1]:
            raise ValueError("n_in out of range")

    # -- construction ---------------------------------------------------
    @staticmethod
    def empty(n_in: int, n_out: int) -> "PointRelation":
        return PointRelation(np.zeros((0, n_in + n_out), dtype=np.int64), n_in)

    @staticmethod
    def from_arrays(dom: np.ndarray, out: np.ndarray) -> "PointRelation":
        dom = _as_points(dom)
        out = _as_points(out)
        if dom.shape[0] != out.shape[0]:
            raise ValueError("domain/range row counts differ")
        return PointRelation(np.concatenate([dom, out], axis=1), dom.shape[1])

    @staticmethod
    def from_affine(
        points: PointSet, matrix: np.ndarray, const: np.ndarray
    ) -> "PointRelation":
        """Graph of the affine function ``x -> matrix @ x + const``."""
        matrix = np.asarray(matrix, dtype=np.int64)
        const = np.asarray(const, dtype=np.int64)
        out = points.points @ matrix.T + const
        return PointRelation.from_arrays(points.points, out)

    @staticmethod
    def identity(points: PointSet) -> "PointRelation":
        return PointRelation.from_arrays(points.points, points.points)

    @staticmethod
    def from_canonical(pairs: np.ndarray, n_in: int) -> "PointRelation":
        """A relation over ``pairs`` that are already canonical (sorted,
        deduplicated, owned, C-contiguous ``int64``): nothing is sorted
        or tested again."""
        out = object.__new__(PointRelation)
        object.__setattr__(out, "pairs", pairs)
        object.__setattr__(out, "n_in", n_in)
        return out

    def subset(self, mask: np.ndarray) -> "PointRelation":
        """The pairs where the boolean ``mask`` (one entry per pair) holds:
        rows picked in order from canonical rows are canonical.  Boolean
        indexing copies, so the array is owned and C-contiguous like
        :func:`unique_rows`' output."""
        return PointRelation.from_canonical(self.pairs[mask], self.n_in)

    # -- structure ------------------------------------------------------
    @property
    def n_out(self) -> int:
        return self.pairs.shape[1] - self.n_in

    @property
    def in_part(self) -> np.ndarray:
        return self.pairs[:, : self.n_in]

    @property
    def out_part(self) -> np.ndarray:
        return self.pairs[:, self.n_in :]

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def is_empty(self) -> bool:
        return len(self) == 0

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PointRelation):
            return NotImplemented
        return (
            self.n_in == other.n_in
            and self.pairs.shape == other.pairs.shape
            and bool(np.array_equal(self.pairs, other.pairs))
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.n_in, self.pairs.shape, self.pairs.tobytes()))
            object.__setattr__(self, "_hash", h)
            return h

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form: the arities (so empty relations round-trip)
        and the canonical pairs as one int64 array — a section of the
        artifact store's container, which :meth:`from_dict` takes back
        with one sortedness test (``unique_rows``)."""
        return {"n_in": self.n_in, "n_out": self.n_out, "pairs": self.pairs}

    @staticmethod
    def from_dict(d: dict) -> "PointRelation":
        n_in = int(d["n_in"])
        pairs = np.asarray(d["pairs"], dtype=np.int64)
        return PointRelation(pairs.reshape(-1, n_in + int(d["n_out"])), n_in)

    # -- relational algebra ----------------------------------------------
    def inverse(self) -> "PointRelation":
        if self.is_empty():
            cache.count_trivial("PointRelation.inverse")
            return PointRelation.empty(self.n_out, self.n_in)
        return cache.memoized(
            "PointRelation.inverse",
            lambda: PointRelation(
                np.concatenate([self.out_part, self.in_part], axis=1),
                self.n_out,
            ),
            self,
        )

    def domain(self) -> PointSet:
        return cache.memoized(
            "PointRelation.domain", lambda: PointSet(self.in_part), self
        )

    def range(self) -> PointSet:
        return cache.memoized(
            "PointRelation.range", lambda: PointSet(self.out_part), self
        )

    def union(self, other: "PointRelation") -> "PointRelation":
        self._check(other)
        if other.is_empty():
            cache.count_trivial("PointRelation.union")
            return self
        if self.is_empty():
            cache.count_trivial("PointRelation.union")
            return other
        return cache.memoized(
            "PointRelation.union",
            lambda: PointRelation(
                np.concatenate([self.pairs, other.pairs], axis=0), self.n_in
            ),
            self,
            other,
        )

    def intersect(self, other: "PointRelation") -> "PointRelation":
        self._check(other)
        if self.is_empty() or other.is_empty():
            cache.count_trivial("PointRelation.intersect")
            return PointRelation.empty(self.n_in, self.n_out)
        return cache.memoized(
            "PointRelation.intersect",
            lambda: self._filtered(other, negate=False),
            self,
            other,
        )

    def difference(self, other: "PointRelation") -> "PointRelation":
        self._check(other)
        if self.is_empty() or other.is_empty():
            cache.count_trivial("PointRelation.difference")
            return self
        return cache.memoized(
            "PointRelation.difference",
            lambda: self._filtered(other, negate=True),
            self,
            other,
        )

    def _filtered(self, other: "PointRelation", negate: bool) -> "PointRelation":
        mine, theirs = joint_ranks(self.pairs, other.pairs)
        mask = np.isin(mine, theirs)
        if negate:
            mask = ~mask
        return self.subset(mask)

    def after(self, other: "PointRelation") -> "PointRelation":
        """Composition ``self ∘ other`` (apply ``other`` first).

        ``self``'s canonical pairs are already sorted by input, so every
        row of ``other`` finds its matches with one ``searchsorted`` pair
        (:meth:`_after`); duplicate keys on both sides produce the full
        per-key cross product.
        """
        if other.n_out != self.n_in:
            raise ValueError("composition arity mismatch")
        if self.is_empty() or other.is_empty():
            cache.count_trivial("PointRelation.after")
            return PointRelation.empty(other.n_in, self.n_out)
        return cache.memoized(
            "PointRelation.after", lambda: self._after(other), self, other
        )

    def _after(self, other: "PointRelation") -> "PointRelation":
        left = other  # A -> B
        right = self  # B -> C
        # kr needs no sort: canonical pairs are ordered by (in, out), so
        # the right rows matching left row k are the cnt[k] rows from lo[k]
        kl, kr = joint_ranks(left.out_part, right.in_part)
        lo = np.searchsorted(kr, kl, side="left")
        cnt = np.searchsorted(kr, kl, side="right") - lo
        most = int(cnt.max())
        if most == 0:
            return PointRelation.empty(left.n_in, right.n_out)
        if most == 1:
            # right is single-valued on the matched keys (every injective
            # write, inverted): a plain gather
            li = np.flatnonzero(cnt)
            ri = lo[li]
        else:
            li = np.repeat(np.arange(cnt.size), cnt)
            first = np.cumsum(cnt) - cnt  # offset of each row's run
            ri = np.arange(li.size) - np.repeat(first - lo, cnt)
        pairs = np.concatenate(
            [left.in_part[li], right.out_part[ri]], axis=1
        )
        return PointRelation(pairs, left.n_in)

    def restrict_domain(self, s: PointSet) -> "PointRelation":
        if self.is_empty() or s.is_empty():
            cache.count_trivial("PointRelation.restrict_domain")
            return PointRelation.empty(self.n_in, self.n_out)
        return cache.memoized(
            "PointRelation.restrict_domain",
            lambda: self._restricted(self.in_part, s),
            self,
            s,
        )

    def _restricted(self, part: np.ndarray, s: PointSet) -> "PointRelation":
        mine, theirs = joint_ranks(part, s.points)
        return self.subset(np.isin(mine, theirs))

    # -- lexicographic reductions ------------------------------------------
    def lexmax_per_domain(self) -> "PointRelation":
        """Keep, for each input tuple, the lexicographically largest output."""
        return cache.memoized(
            "PointRelation.lexmax_per_domain", self._lexmax_per_domain, self
        )

    def _lexmax_per_domain(self) -> "PointRelation":
        if self.is_empty():
            return self
        # pairs are already sorted by (in, out): the last row of each
        # input group is its max.
        inp = self.in_part
        change = np.any(inp[1:] != inp[:-1], axis=1)
        return self.subset(np.concatenate([change, [True]]))

    def is_single_valued(self) -> bool:
        # Pairs are deduplicated, so the relation is a function exactly when
        # every pair has a distinct input tuple.
        return len(self) == len(self.domain())

    def is_injective(self) -> bool:
        return self.inverse().is_single_valued()

    def lookup(self, point: tuple[int, ...]) -> np.ndarray:
        """All outputs related to one input tuple (rows of an array)."""
        row = np.asarray(point, dtype=np.int64)
        mask = np.all(self.in_part == row, axis=1)
        return self.out_part[mask]

    def _check(self, other: "PointRelation") -> None:
        if other.n_in != self.n_in or other.pairs.shape[1] != self.pairs.shape[1]:
            raise ValueError("relation shape mismatch")

    def __str__(self) -> str:
        return (
            f"PointRelation({len(self)} pairs, {self.n_in} -> {self.n_out})"
        )
