"""Array storage for kernel execution.

Arrays are NumPy ``float64`` buffers sized from the SCoP's access extents;
an offset per dimension maps (possibly negative) source indices onto the
buffer.  The store is shared between the sequential interpreter, the task
runtime, and generated code, so results can be compared bit-for-bit.

:class:`SharedArrayStore` keeps the same layout inside one
``multiprocessing.shared_memory`` segment so worker processes of the
process execution backend mutate a single physical copy — the store
pickles as a tiny spec (segment name + per-array shape/offset/byte
offset) and each process re-views the same pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import parent_process, resource_tracker, shared_memory

import numpy as np

from ..scop import Scop


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit identity of two arrays: equal shape, dtype and bytes.  Unlike
    ``np.array_equal`` a NaN equals the same NaN and ``0.0`` does not
    equal ``-0.0`` — what "bit-identical to the sequential oracle"
    means everywhere a run is verified."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and a.tobytes() == b.tobytes()
    )


@dataclass
class ArrayView:
    """One kernel array: a buffer plus per-dimension index offsets."""

    name: str
    data: np.ndarray
    offsets: tuple[int, ...]


class ArrayStore:
    """All arrays of one kernel execution."""

    def __init__(self, arrays: dict[str, ArrayView]):
        self.arrays = arrays

    @staticmethod
    def for_scop(scop: Scop, init: str = "index") -> "ArrayStore":
        """Allocate and deterministically initialize every array.

        ``init`` selects the fill: ``"index"`` (a distinct affine value per
        cell — good for correctness diffs), ``"zeros"`` or ``"ones"``.
        """
        arrays: dict[str, ArrayView] = {}
        for name in sorted(scop.arrays):
            extent = scop.array_extent(name)
            shape = tuple(hi - lo + 1 for lo, hi in extent)
            offsets = tuple(lo for lo, _ in extent)
            if init == "zeros":
                data = np.zeros(shape, dtype=np.float64)
            elif init == "ones":
                data = np.ones(shape, dtype=np.float64)
            elif init == "index":
                data = np.arange(
                    int(np.prod(shape)), dtype=np.float64
                ).reshape(shape)
                data = (data % 97.0) + 1.0  # bounded, nonzero, per-cell distinct-ish
            else:
                raise ValueError(f"unknown init {init!r}")
            arrays[name] = ArrayView(name, data, offsets)
        return ArrayStore(arrays)

    @property
    def nbytes(self) -> int:
        """Bytes of array data held."""
        return sum(view.data.nbytes for view in self.arrays.values())

    def copy(self) -> "ArrayStore":
        return ArrayStore(
            {
                name: ArrayView(view.name, view.data.copy(), view.offsets)
                for name, view in self.arrays.items()
            }
        )

    def equal(self, other: "ArrayStore") -> bool:
        """Bit identity: same arrays, each :func:`same_bits`."""
        if set(self.arrays) != set(other.arrays):
            return False
        return all(
            same_bits(self.arrays[n].data, other.arrays[n].data)
            for n in self.arrays
        )

    def max_abs_diff(self, other: "ArrayStore") -> float:
        """Largest ``|a - b|`` over all cells.  Cells holding the same
        value — the same infinity, NaN on both sides — differ by 0; a
        NaN on one side only makes the result NaN."""
        worst = 0.0
        for n in self.arrays:
            a, b = self.arrays[n].data, other.arrays[n].data
            with np.errstate(invalid="ignore"):  # inf - inf
                diff = np.abs(a - b)
            diff[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
            if diff.size:
                top = float(diff.max())
                if np.isnan(top):
                    return top
                worst = max(worst, top)
        return worst


# ----------------------------------------------------------------------
# shared-memory store (process execution backend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedStoreSpec:
    """Picklable description of a :class:`SharedArrayStore` segment.

    ``arrays`` maps name -> (shape, offsets, byte_offset); workers attach
    with :meth:`SharedArrayStore.attach` and see the creator's pages.
    """

    segment: str
    arrays: dict[str, tuple[tuple[int, ...], tuple[int, ...], int]]


class SharedArrayStore(ArrayStore):
    """An :class:`ArrayStore` whose buffers live in one shared segment.

    The creating process calls :meth:`from_store` (copying an existing
    store's contents in), hands :attr:`spec` to worker
    processes, and finally :meth:`close` + :meth:`unlink`.  Workers call
    :meth:`attach` and :meth:`close` — never :meth:`unlink`.
    """

    def __init__(
        self,
        arrays: dict[str, ArrayView],
        shm: shared_memory.SharedMemory,
        spec: SharedStoreSpec,
        owner: bool,
    ):
        super().__init__(arrays)
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self._closed = False
        self._unlinked = False

    # -- construction ---------------------------------------------------
    @staticmethod
    def _layout(
        shapes: dict[str, tuple[int, ...]]
    ) -> tuple[dict[str, int], int]:
        """Byte offset per array (64-byte aligned) and the total size."""
        offsets: dict[str, int] = {}
        pos = 0
        for name in sorted(shapes):
            offsets[name] = pos
            nbytes = int(np.prod(shapes[name])) * 8  # float64
            pos += (nbytes + 63) & ~63
        return offsets, max(pos, 1)

    @classmethod
    def from_store(cls, store: ArrayStore) -> "SharedArrayStore":
        """Create a shared segment initialized with ``store``'s contents."""
        shapes = {n: v.data.shape for n, v in store.arrays.items()}
        byte_offsets, total = cls._layout(shapes)
        shm = shared_memory.SharedMemory(create=True, size=total)
        arrays: dict[str, ArrayView] = {}
        spec_arrays: dict[str, tuple] = {}
        for name, view in store.arrays.items():
            off = byte_offsets[name]
            data = np.ndarray(
                view.data.shape, dtype=np.float64, buffer=shm.buf, offset=off
            )
            data[...] = view.data
            arrays[name] = ArrayView(name, data, view.offsets)
            spec_arrays[name] = (
                tuple(view.data.shape),
                tuple(view.offsets),
                off,
            )
        spec = SharedStoreSpec(shm.name, spec_arrays)
        return cls(arrays, shm, spec, owner=True)

    @classmethod
    def attach(cls, spec: SharedStoreSpec) -> "SharedArrayStore":
        """Map an existing segment in a worker process."""
        shm = shared_memory.SharedMemory(name=spec.segment)
        # CPython registers every attach with the resource tracker
        # (bpo-38119).  A process of its own has a tracker of its own,
        # which would unlink the segment when that process exits, before
        # the owner is done with it: take the entry back out.  A
        # multiprocessing child writes to its ancestor's tracker — the
        # owner's, for a pool worker — where the register was a set-add
        # no-op and an unregister would drop the *owner's* entry (and,
        # from two workers at once, raise KeyError in the tracker).
        if parent_process() is None:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        arrays = {
            name: ArrayView(
                name,
                np.ndarray(
                    shape, dtype=np.float64, buffer=shm.buf, offset=off
                ),
                offsets,
            )
            for name, (shape, offsets, off) in spec.arrays.items()
        }
        return cls(arrays, shm, spec, owner=False)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (shared pages survive elsewhere)."""
        if self._closed:
            return
        self._closed = True
        # The ndarray views hold exports of shm.buf; drop them first or
        # SharedMemory.close raises BufferError.
        self.arrays.clear()
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment.  Owner-only, after every process closed."""
        if self._owner and not self._unlinked:
            self._unlinked = True
            try:
                # Re-register first: an attach in this very process (see
                # ``attach``) took the entry out, and unlink's internal
                # unregister would hit a KeyError in the tracker
                # process.  Registration is idempotent (set add).
                resource_tracker.register(self._shm._name, "shared_memory")
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __del__(self):  # best-effort cleanup on abandoned stores
        try:
            self.close()
            self.unlink()
        except Exception:
            pass
