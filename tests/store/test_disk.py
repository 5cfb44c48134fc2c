"""The on-disk store: round-trips, corruption handling, eviction."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.store import (
    SCHEMA_VERSION,
    ArtifactCorruptError,
    ArtifactStore,
    CompileArtifact,
    default_cache_dir,
)
from repro.store.artifact import (
    MAGIC,
    pack_artifact,
    pack_payload,
    unpack_artifact,
)


def _artifact(key: str = "ab" * 32, payload_pad: bytes = b"") -> CompileArtifact:
    return CompileArtifact(
        key=key,
        kernel_sha="cd" * 32,
        params={"N": 8},
        options_fingerprint="ef" * 32,
        info={"statements": ["S"]},
        task_ast_blob=b"npz-blob" + payload_pad,
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
    payload = _artifact().to_payload()
    payload["schema_version"] = 999
    with pytest.raises(ArtifactCorruptError, match="schema"):
        unpack_artifact(pack_payload(payload))


# ----------------------------------------------------------------------
# the section format: decode failures are corrupt misses, never crashes
# ----------------------------------------------------------------------
def _run(source, params, options, cache_dir):
    from repro.driver import transform

    return transform(source, params, options, cache_dir=str(cache_dir))


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"schema_version": SCHEMA_VERSION}, id="only-a-version"),
        pytest.param("mistyped-params", id="params-not-a-mapping"),
        pytest.param("not-a-mapping", id="payload-not-a-mapping"),
    ],
)
def test_a_checksummed_payload_with_a_bad_field_is_a_corrupt_miss(
    tmp_path, payload
):
    """Well-checksummed, well-framed, yet missing a field or holding one
    of the wrong type: one counted ``corrupt`` miss, and ``transform``
    recompiles instead of crashing."""
    from repro.driver import TransformOptions
    from repro.store import artifact_key

    from ..conftest import TWO_NEST_COPY

    opts = TransformOptions(workers=2)
    key = artifact_key(TWO_NEST_COPY, {"N": 6}, opts)
    if payload == "mistyped-params":
        payload = dict(_artifact(key=key).to_payload(), params=5)
    elif payload == "not-a-mapping":
        payload = [SCHEMA_VERSION, key]
    store = ArtifactStore(str(tmp_path))
    os.makedirs(os.path.dirname(store.path_for(key)), exist_ok=True)
    with open(store.path_for(key), "wb") as fh:
        fh.write(pack_payload(payload))
    assert store.get(key) is None
    assert store.counters["corrupt"] == 1
    with open(store.path_for(key), "wb") as fh:
        fh.write(pack_payload(payload))
    result = _run(TWO_NEST_COPY, {"N": 6}, opts, tmp_path)
    assert (result.cache_status, result.verified) == ("cold", True)


def _damaged_copies(data: bytes):
    """``(label, bytes)``: the artifact truncated at every section
    boundary, and with one byte flipped in the header and in each
    section."""
    import json

    body = len(MAGIC) + 32
    length = int.from_bytes(data[body : body + 8], "little")
    table = json.loads(data[body + 8 : body + 8 + length].split(b"\n")[0])
    base = body + 8 + length
    cuts = {body + 8 + length // 2, base}
    flips = {"header": body + 8 + length // 2}
    for k, (offset, dtype, shape) in enumerate(table):
        size = int(np.prod(shape)) * (8 if dtype == "<i8" else 1)
        cuts |= {base + offset, base + offset + size}
        if size:
            flips[f"section {k}"] = base + offset + size // 2
    for cut in sorted(cuts - {len(data)}):
        yield f"truncated at {cut}", data[:cut]
    for label, at in flips.items():
        yield f"flip in {label}", data[:at] + bytes([data[at] ^ 0x5A]) + (
            data[at + 1 :]
        )


@pytest.mark.parametrize(
    "privatize",
    [pytest.param(False, id="p5"), pytest.param(True, id="histogram")],
)
def test_corruption_battery(tmp_path, privatize):
    """Every truncation at a section boundary and every flipped byte is
    exactly one counted ``corrupt`` miss, then a cold recompile whose
    result verifies — never an exception, never a wrong answer."""
    from repro.driver import TransformOptions
    from repro.store import artifact_key
    from repro.workloads import TABLE9

    from ..test_driver import HISTOGRAM

    source = HISTOGRAM if privatize else TABLE9["P5"].source(6)
    params = {"N": 6} if privatize else {}
    opts = TransformOptions(workers=2, privatize=privatize)
    assert _run(source, params, opts, tmp_path).cache_status == "cold"
    store = ArtifactStore(str(tmp_path))
    path = store.path_for(artifact_key(source, params, opts))
    with open(path, "rb") as fh:
        pristine = fh.read()
    cases = list(_damaged_copies(pristine))
    assert len(cases) >= 10
    for label, data in cases:
        with open(path, "wb") as fh:
            fh.write(data)
        store = ArtifactStore(str(tmp_path))
        assert store.get(artifact_key(source, params, opts)) is None, label
        assert store.counters["corrupt"] == 1, label
        with open(path, "wb") as fh:
            fh.write(data)
        result = _run(source, params, opts, tmp_path)
        assert (result.cache_status, result.verified) == ("cold", True), label
    assert _run(source, params, opts, tmp_path).cache_status == "warm"


def test_a_schema_9_artifact_is_a_corrupt_miss(tmp_path):
    """Schema 9 stored the blockings and ``Q_S^O`` beside the task AST:
    a file written then, checksum intact, is one counted ``corrupt``
    miss."""
    art = _artifact()
    info = dict.fromkeys(("pipeline_maps", "blockings", "in_deps", "out_deps"))
    payload = dict(art.to_payload(), schema_version=9, info=info)
    store = ArtifactStore(str(tmp_path))
    os.makedirs(os.path.dirname(store.path_for(art.key)), exist_ok=True)
    with open(store.path_for(art.key), "wb") as fh:
        fh.write(pack_payload(payload))
    assert store.get(art.key) is None
    assert store.counters["corrupt"] == 1


def test_a_schema_7_pickle_artifact_is_a_miss_and_never_unpickled(tmp_path):
    """The previous format — one pickle behind the checksum — is a
    counted ``corrupt`` miss, even with a matching checksum and key, and
    its pickle never runs."""
    import hashlib

    _PICKLE_PROBE.clear()
    art = _artifact()
    payload = dict(art.to_payload(), schema_version=7, probe=_Probe())
    raw = pickle.dumps(payload, protocol=4)
    store = ArtifactStore(str(tmp_path))
    os.makedirs(os.path.dirname(store.path_for(art.key)), exist_ok=True)
    for magic in (b"RPASTOR\x01", MAGIC):
        with open(store.path_for(art.key), "wb") as fh:
            fh.write(magic + hashlib.sha256(raw).digest() + raw)
        assert store.get(art.key) is None
    assert store.counters["corrupt"] == 2
    assert not _PICKLE_PROBE
