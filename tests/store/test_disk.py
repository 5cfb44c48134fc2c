"""The on-disk store: round-trips, corruption handling, eviction."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.store import (
    ArtifactCorruptError,
    ArtifactStore,
    CompileArtifact,
    default_cache_dir,
)
from repro.store.artifact import MAGIC, pack_artifact, unpack_artifact


def _artifact(key: str = "ab" * 32, payload_pad: bytes = b"") -> CompileArtifact:
    return CompileArtifact(
        key=key,
        kernel_sha="cd" * 32,
        params={"N": 8},
        options_fingerprint="ef" * 32,
        info={"statements": ["S"]},
        task_ast_blob=b"npz-blob" + payload_pad,
        timings={"analyze_s": 0.25},
    )


def test_pack_unpack_round_trip():
    art = _artifact()
    back = unpack_artifact(pack_artifact(art))
    assert back == art


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d[: len(MAGIC) + 10],  # truncated mid-checksum
        lambda d: d[:-3],  # truncated payload
        lambda d: b"NOTMAGIC" + d[8:],  # wrong magic
        lambda d: d[:50] + bytes([d[50] ^ 0xFF]) + d[51:],  # bit flip
        lambda d: b"",  # empty file
    ],
)
def test_unpack_rejects_damaged_bytes(mutate):
    data = mutate(pack_artifact(_artifact()))
    with pytest.raises(ArtifactCorruptError):
        unpack_artifact(data)


def test_unpack_never_unpickles_unchecksummed_bytes():
    """A swapped-in pickle with a stale checksum must be rejected *before*
    pickle.loads runs (the checksum guards the deserializer)."""
    _PICKLE_PROBE.clear()
    evil = pickle.dumps(_Probe())
    assert not _PICKLE_PROBE, "probe must only fire on load"
    data = pack_artifact(_artifact())
    tampered = data[: len(MAGIC) + 32] + evil  # stale digest, new payload
    with pytest.raises(ArtifactCorruptError, match="checksum"):
        unpack_artifact(tampered)
    assert not _PICKLE_PROBE, (
        "pickle.loads ran on a payload whose checksum did not match"
    )


#: appended to iff a _Probe pickle is ever *loaded* (not dumped)
_PICKLE_PROBE: list[int] = []


def _probe_loaded():
    _PICKLE_PROBE.append(1)
    return "probe"


class _Probe:
    def __reduce__(self):
        return (_probe_loaded, ())


def test_store_get_put_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    assert store.get(art.key) is None
    path = store.put(art.key, art)
    assert os.path.isfile(path)
    assert path == store.path_for(art.key)
    assert store.get(art.key) == art
    assert store.counters["hits"] == 1
    assert store.counters["misses"] == 1
    assert store.counters["puts"] == 1


def test_store_treats_corrupt_file_as_miss_and_deletes_it(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    path = store.put(art.key, art)
    with open(path, "r+b") as fh:
        fh.truncate(20)
    assert store.get(art.key) is None
    assert not os.path.exists(path), "corrupt artifact must be reaped"
    assert store.counters["corrupt"] == 1
    # a recompile overwrites cleanly
    store.put(art.key, art)
    assert store.get(art.key) == art


def test_store_rejects_key_mismatch(tmp_path):
    """An artifact renamed to a different address must not be served."""
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    other = "99" * 32
    os.makedirs(os.path.dirname(store.path_for(other)), exist_ok=True)
    os.replace(store.put(art.key, art), store.path_for(other))
    assert store.get(other) is None
    assert store.counters["corrupt"] == 1


def test_gc_evicts_lru_beyond_entry_limit(tmp_path):
    store = ArtifactStore(str(tmp_path))
    keys = [f"{i:02x}" * 32 for i in range(4)]
    for i, k in enumerate(keys):
        store.put(k, _artifact(key=k))
        # distinct mtimes so LRU order is well defined
        os.utime(store.path_for(k), (1000 + i, 1000 + i))
    evicted = store.gc(max_entries=2)
    stats = store.stats()
    assert stats.entries == 2
    # the two oldest went first
    survivors = {k for k in keys if os.path.exists(store.path_for(k))}
    assert survivors == set(keys[2:])
    assert len(evicted) == 2
    assert store.counters["evictions"] >= 2


def test_gc_evicts_beyond_byte_limit(tmp_path):
    store = ArtifactStore(str(tmp_path))
    k1, k2 = "aa" * 32, "bb" * 32
    store.put(k1, _artifact(key=k1))
    os.utime(store.path_for(k1), (1000, 1000))
    store.put(k2, _artifact(key=k2))
    newer = os.path.getsize(store.path_for(k2))
    store.gc(max_bytes=newer)
    assert os.path.exists(store.path_for(k2))
    assert not os.path.exists(store.path_for(k1))


def test_put_auto_gc_enforces_configured_limits(tmp_path):
    store = ArtifactStore(str(tmp_path), max_entries=2)
    for i in range(4):
        k = f"{i:02x}" * 32
        store.put(k, _artifact(key=k))
    assert store.stats().entries <= 2


def test_put_is_atomic_no_tmp_left_behind(tmp_path):
    store = ArtifactStore(str(tmp_path))
    art = _artifact()
    store.put(art.key, art)
    leftovers = [
        name
        for _, _, files in os.walk(tmp_path)
        for name in files
        if name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_clear_empties_the_store(tmp_path):
    store = ArtifactStore(str(tmp_path))
    for i in range(3):
        k = f"{i:02x}" * 32
        store.put(k, _artifact(key=k))
    assert store.clear() == 3
    assert store.stats().entries == 0


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "x"))
    assert default_cache_dir() == str(tmp_path / "x")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().endswith(os.path.join("repro", "artifacts"))


def test_schema_version_bump_reads_as_corrupt(tmp_path):
    art = _artifact()
    payload = art.to_payload()
    payload["schema_version"] = 999
    import hashlib

    raw = pickle.dumps(payload, protocol=4)
    data = MAGIC + hashlib.sha256(raw).digest() + raw
    with pytest.raises(ArtifactCorruptError, match="schema"):
        unpack_artifact(data)
