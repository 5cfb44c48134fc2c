"""Tests for the shared-memory array store backing the process backend."""

import pickle

import numpy as np
import pytest

from repro.interp import Interpreter, SharedArrayStore
from repro.interp.store import SharedStoreSpec
from tests.conftest import LISTING1


@pytest.fixture
def local_store():
    interp = Interpreter.from_source(LISTING1, {"N": 10})
    return interp.new_store()


class TestLifecycle:
    def test_from_store_copies_contents(self, local_store):
        shared = SharedArrayStore.from_store(local_store)
        try:
            assert shared.equal(local_store)
            assert set(shared.arrays) == set(local_store.arrays)
        finally:
            shared.close()
            shared.unlink()

    def test_spec_is_picklable(self, local_store):
        shared = SharedArrayStore.from_store(local_store)
        try:
            spec = pickle.loads(pickle.dumps(shared.spec))
            assert isinstance(spec, SharedStoreSpec)
            assert spec.segment == shared.spec.segment
        finally:
            shared.close()
            shared.unlink()

    def test_layout_is_64_byte_aligned(self, local_store):
        shared = SharedArrayStore.from_store(local_store)
        try:
            for _, (_, _, byte_offset) in shared.spec.arrays.items():
                assert byte_offset % 64 == 0
        finally:
            shared.close()
            shared.unlink()

    def test_close_and_unlink_idempotent(self, local_store):
        shared = SharedArrayStore.from_store(local_store)
        shared.close()
        shared.close()
        shared.unlink()
        shared.unlink()


class TestAttach:
    def test_attached_view_sees_writes(self, local_store):
        owner = SharedArrayStore.from_store(local_store)
        try:
            worker = SharedArrayStore.attach(owner.spec)
            worker.arrays["A"].data[1, 1] = 42.0
            worker.close()
            assert owner.arrays["A"].data[1, 1] == 42.0
        finally:
            owner.close()
            owner.unlink()

    def test_attach_preserves_view_offsets(self, local_store):
        owner = SharedArrayStore.from_store(local_store)
        try:
            worker = SharedArrayStore.attach(owner.spec)
            for name, view in local_store.arrays.items():
                assert worker.arrays[name].offsets == view.offsets
                assert worker.arrays[name].data.shape == view.data.shape
            worker.close()
        finally:
            owner.close()
            owner.unlink()

    def test_copy_back_round_trip(self, local_store):
        """The process pool result path: mutate shared, copy back."""
        shared = SharedArrayStore.from_store(local_store)
        try:
            shared.arrays["B"].data[:] = np.pi
            for name, view in local_store.arrays.items():
                view.data[...] = shared.arrays[name].data
        finally:
            shared.close()
            shared.unlink()
        assert (local_store.arrays["B"].data == np.pi).all()


class TestResourceTracker:
    def test_process_replays_leave_the_tracker_quiet(self):
        """Pool workers share the owner's resource tracker: an attach
        that unregistered there dropped the owner's entry, and two
        workers interleaving REGISTER, REGISTER, UNREGISTER, UNREGISTER
        made the tracker print a ``KeyError`` traceback (about one
        ``processes`` replay in twelve at 4 workers)."""
        import subprocess
        import sys

        code = (
            "import glob\n"
            "from repro.interp import Interpreter, execute_measured\n"
            "from repro.pipeline import detect_pipeline\n"
            "from repro.workloads import MatmulKernel\n"
            "before = set(glob.glob('/dev/shm/psm_*'))\n"
            "interp = Interpreter.from_source("
            "MatmulKernel(2, 'mm').source(8), {})\n"
            "info = detect_pipeline(interp.scop)\n"
            "seq = interp.run_sequential(interp.new_store())\n"
            "for _ in range(20):\n"
            "    out, _ = execute_measured("
            "interp, info, backend='processes', workers=4)\n"
            "    assert seq.equal(out)\n"
            "left = set(glob.glob('/dev/shm/psm_*')) - before\n"
            "assert not left, left\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "resource_tracker" not in result.stderr, result.stderr
