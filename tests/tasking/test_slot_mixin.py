"""``dependArr`` slot addressing: one implementation, the CreateTask layer.

``slot()`` lives once, on :class:`repro.tasking.OmpTaskSystem`, the one
``create_task`` layer generated programs run on.  These tests pin its
range checks and that the arithmetic composes with
:class:`repro.codegen.packing.VectorPacker` exactly as the generated
programs assume (``write_num * packed_end + statement_idx``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.packing import VectorPacker
from repro.tasking import OmpTaskSystem
from tests.conftest import unpack

WRITE_NUM = 3


def test_slot_rejects_out_of_range_statement_index():
    system = OmpTaskSystem(write_num=WRITE_NUM)
    with pytest.raises(ValueError):
        system.slot(5, WRITE_NUM)
    with pytest.raises(ValueError):
        system.slot(5, -1)


def test_mixin_rejects_nonpositive_write_num():
    with pytest.raises(ValueError):
        OmpTaskSystem(0)
    assert OmpTaskSystem(1).slot(9, 0) == 9


def test_slot_agrees_with_codegen_packer():
    """``write_num * pack(end) + idx`` — the task layer and codegen in
    lockstep.

    Distinct (end, idx) pairs must land on distinct slots, and the slot
    must decompose back into the packed end and statement index.
    """
    ends = np.array([[0, 0], [0, 5], [3, 1], [7, 7]], dtype=np.int64)
    packer = VectorPacker.for_points(ends)
    system = OmpTaskSystem(write_num=WRITE_NUM)

    seen = set()
    for end in ends:
        code = packer.pack(tuple(end))
        for idx in range(WRITE_NUM):
            slot = system.slot(code, idx)
            assert slot not in seen
            seen.add(slot)
            # invertible: slot -> (packed end, statement column)
            assert slot // WRITE_NUM == code
            assert slot % WRITE_NUM == idx
            assert unpack(packer, slot // WRITE_NUM) == tuple(end)
