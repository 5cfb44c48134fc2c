"""The shared slot-addressing mixin: one packing, every backend.

Satellite guard: ``slot()`` used to be duplicated per backend; it now
lives once in :class:`repro.tasking.dispatch.SlotAddressing`.  These
tests pin that every backend (and the OpenMP-like reference system)
resolves identical addresses, and that the arithmetic composes with
:class:`repro.codegen.packing.VectorPacker` exactly as the generated
programs assume (``write_num * packed_end + statement_idx``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.packing import VectorPacker
from repro.tasking import (
    FuturesBackend,
    OmpTaskSystem,
    ProcessBackend,
    SerialBackend,
    SlotAddressing,
)

WRITE_NUM = 3


def _backends():
    return [
        SerialBackend(write_num=WRITE_NUM),
        FuturesBackend(write_num=WRITE_NUM, workers=2),
        OmpTaskSystem(write_num=WRITE_NUM),
    ]


def test_every_backend_uses_the_mixin():
    for backend in _backends():
        assert isinstance(backend, SlotAddressing)
    assert issubclass(ProcessBackend, SlotAddressing)


def test_all_backends_resolve_identical_slots():
    backends = _backends()
    for depend in (0, 1, 7, 1234):
        for idx in range(WRITE_NUM):
            slots = {b.slot(depend, idx) for b in backends}
            assert len(slots) == 1
            assert slots.pop() == WRITE_NUM * depend + idx


def test_slot_rejects_out_of_range_statement_index():
    for backend in _backends():
        with pytest.raises(ValueError):
            backend.slot(5, WRITE_NUM)
        with pytest.raises(ValueError):
            backend.slot(5, -1)


def test_mixin_rejects_nonpositive_write_num():
    class Probe(SlotAddressing):
        def __init__(self, write_num):
            self._init_slots(write_num)

    with pytest.raises(ValueError):
        Probe(0)
    assert Probe(1).slot(9, 0) == 9


def test_slot_agrees_with_codegen_packer():
    """``write_num * pack(end) + idx`` — backends and codegen in lockstep.

    Distinct (end, idx) pairs must land on distinct slots, and the slot
    must decompose back into the packed end and statement index.
    """
    ends = np.array([[0, 0], [0, 5], [3, 1], [7, 7]], dtype=np.int64)
    packer = VectorPacker.for_points(ends)
    backend = SerialBackend(write_num=WRITE_NUM)

    seen = set()
    for end in ends:
        code = packer.pack(tuple(end))
        for idx in range(WRITE_NUM):
            slot = backend.slot(code, idx)
            assert slot not in seen
            seen.add(slot)
            # invertible: slot -> (packed end, statement column)
            assert slot // WRITE_NUM == code
            assert slot % WRITE_NUM == idx
            assert packer.unpack(slot // WRITE_NUM) == tuple(end)

    # the vectorized packer agrees with the scalar one slot-for-slot
    codes = packer.pack_rows(ends)
    for end, code in zip(ends, codes):
        assert backend.slot(int(code), 0) == backend.slot(
            packer.pack(tuple(end)), 0
        )
