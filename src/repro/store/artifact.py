"""The artifact payload: one compile's outputs, checksummed on disk.

File layout: bytes 0..7 are :data:`MAGIC`, 8..39 the SHA-256 of the
rest, which is a section container (:mod:`repro.schedule.serialize`):
a JSON header naming each section's offset, dtype and shape, then the
raw little-endian sections.  Its document is
``CompileArtifact.to_payload()``: plain data in the header, the
relation pairs of the pipeline maps, of ``Q_S`` and of the
privatization proofs as ``int64`` sections (rows in canonical order),
the task-AST blob as a byte section.  Each fact is stored once: the
blockings ``E_S`` are the task AST's iterations and block ends, and
``Q_S^O`` is the identity on those ends.  A load checks magic and
checksum, then takes each section as an ``np.frombuffer`` view:
nothing on the read path unpickles, so the worst a hostile file can do
is describe a wrong plan (its proofs are re-derived, its task AST must
cover each statement's points once, and the oracle compare decides).
Every failure — truncation, bit-rot, a foreign schema, a
well-checksummed payload missing a field or holding one of the wrong
type — raises :class:`ArtifactCorruptError`: a counted ``corrupt``
miss, never a crash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Any

from ..schedule.serialize import pack_sections, unpack_sections
from .keys import SCHEMA_VERSION

MAGIC = b"RPASTOR\x02"
_SHA_LEN = 32


class ArtifactCorruptError(ValueError):
    """The on-disk artifact bytes fail the integrity checks."""


@dataclass(eq=False)
class CompileArtifact:
    """Serialized outputs of one compile, addressed by ``key``."""

    key: str
    kernel_sha: str
    params: dict[str, int]
    options_fingerprint: str
    #: ``PipelineInfo.to_dict()``: the pipeline maps and ``Q_S``,
    #: relation pairs as int64 arrays
    info: dict
    #: ``dumps_task_ast`` of the task AST (schedule tree already lowered)
    task_ast_blob: bytes
    #: ``FusedProgram.to_dict()`` — every statement's ClosureSpec with
    #: its slice-form verdict, the chains and the fusion-legal pair
    #: table (None when the compile ran with fusion off)
    fused: dict | None = None
    #: privatization proofs (``PrivatizationProof.to_dict(arrays=True)``
    #: rows); loaders re-verify each via ``plan_from_proofs`` — mandatory
    proofs: list[dict] = field(default_factory=list)
    #: True when the artifact came from the privatized arm (proofs drive
    #: the schedule, not just annotate it)
    privatized: bool = False
    #: legality verdict recorded at compile time (None = not checked)
    legality_ok: bool | None = None
    schema_version: int = SCHEMA_VERSION

    def to_payload(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __eq__(self, other) -> bool:  # arrays inside: compare the bytes
        return isinstance(other, CompileArtifact) and (
            pack_artifact(self) == pack_artifact(other)
        )

    @classmethod
    def from_payload(cls, payload) -> "CompileArtifact":
        """The artifact of a decoded payload; every field must be there
        with its type, else :class:`ArtifactCorruptError`."""
        if not isinstance(payload, dict):
            raise ArtifactCorruptError("artifact payload is not a mapping")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactCorruptError(
                f"artifact schema version {version!r} != {SCHEMA_VERSION}"
            )
        for name, types in _TYPES.items():
            if not isinstance(payload.get(name, _MISSING), types):
                raise ArtifactCorruptError(f"artifact field {name!r} is bad")
        return cls(**{name: payload[name] for name in _TYPES})


_MISSING = object()
_TYPES: dict[str, tuple[type, ...]] = {
    "key": (str,), "kernel_sha": (str,), "params": (dict,),
    "options_fingerprint": (str,), "info": (dict,),
    "task_ast_blob": (bytes, memoryview), "fused": (dict, type(None)),
    "proofs": (list,), "privatized": (bool,),
    "legality_ok": (bool, type(None)),
    "schema_version": (int,),
}


def pack_payload(payload: dict) -> bytes:
    """A payload mapping -> checksummed bytes (the on-disk file content)."""
    body = pack_sections(payload)
    return MAGIC + hashlib.sha256(body).digest() + body


def pack_artifact(artifact: CompileArtifact) -> bytes:
    """Artifact -> checksummed bytes."""
    return pack_payload(artifact.to_payload())


def unpack_artifact(data: bytes) -> CompileArtifact:
    """Checksummed bytes -> artifact; raises :class:`ArtifactCorruptError`.

    Magic and checksum are verified before the header is parsed.
    """
    if len(data) < len(MAGIC) + _SHA_LEN:
        raise ArtifactCorruptError(
            f"artifact truncated: {len(data)} bytes is shorter than the "
            "header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise ArtifactCorruptError("bad artifact magic")
    body = memoryview(data)[len(MAGIC) + _SHA_LEN :]
    if hashlib.sha256(body).digest() != data[len(MAGIC) : -len(body)]:
        raise ArtifactCorruptError("artifact payload checksum mismatch")
    try:
        payload = unpack_sections(body)
    except ValueError as exc:  # checksum passed but the container is bad
        raise ArtifactCorruptError(f"artifact payload unreadable: {exc}")
    return CompileArtifact.from_payload(payload)
