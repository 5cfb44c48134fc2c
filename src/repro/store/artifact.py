"""The artifact payload: one compile's outputs, checksummed on disk.

File layout (everything after the header is one pickle)::

    bytes 0..7    MAGIC  b"RPASTOR\\x01"
    bytes 8..39   SHA-256 of the payload bytes
    bytes 40..    payload: pickle of ``CompileArtifact.to_payload()``

The checksum makes truncation and bit-rot *detectable before unpickling*
— a corrupted file raises :class:`ArtifactCorruptError`, which the store
turns into a miss (recompile), never a crash or a poisoned unpickle.

The payload itself is plain data: explicit-relation dicts for the
pipeline info, the compressed task-AST blob of
:mod:`repro.schedule.serialize`, declarative ``ClosureSpec`` dicts for
the fused program, and privatization-proof dicts that loaders MUST pass
back through :func:`repro.schedule.legality.verify_privatization` (the
store is durable, not trusted).
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any

from .keys import SCHEMA_VERSION

MAGIC = b"RPASTOR\x01"
_SHA_LEN = 32


class ArtifactCorruptError(ValueError):
    """The on-disk artifact bytes fail the integrity checks."""


@dataclass
class CompileArtifact:
    """Serialized outputs of one compile, addressed by ``key``."""

    key: str
    kernel_sha: str
    params: dict[str, int]
    options_fingerprint: str
    #: explicit-relation dict of :class:`repro.pipeline.PipelineInfo`
    info: dict
    #: compressed blob of the task AST (schedule tree already lowered)
    task_ast_blob: bytes
    #: ``FusedProgram.to_dict()`` — every statement's ClosureSpec with
    #: its slice-form verdict, the chains and the fusion-legal pair
    #: table (None when the compile ran with fusion off)
    fused: dict | None = None
    #: privatization proofs (``PrivatizationProof.to_dict()`` rows);
    #: loaders re-verify each via ``verify_privatization`` — mandatory
    proofs: list[dict] = field(default_factory=list)
    #: True when the artifact came from the privatized arm (proofs drive
    #: the schedule, not just annotate it)
    privatized: bool = False
    #: legality verdict recorded at compile time (None = not checked)
    legality_ok: bool | None = None
    #: wall seconds of the cold compile phases
    timings: dict[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_payload(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "key": self.key,
            "kernel_sha": self.kernel_sha,
            "params": dict(self.params),
            "options_fingerprint": self.options_fingerprint,
            "info": self.info,
            "task_ast_blob": self.task_ast_blob,
            "fused": self.fused,
            "proofs": list(self.proofs),
            "privatized": self.privatized,
            "legality_ok": self.legality_ok,
            "timings": dict(self.timings),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CompileArtifact":
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactCorruptError(
                f"artifact schema version {version!r} != {SCHEMA_VERSION}"
            )
        return cls(
            key=payload["key"],
            kernel_sha=payload["kernel_sha"],
            params=dict(payload["params"]),
            options_fingerprint=payload["options_fingerprint"],
            info=payload["info"],
            task_ast_blob=payload["task_ast_blob"],
            fused=payload.get("fused"),
            proofs=list(payload.get("proofs", ())),
            privatized=bool(payload.get("privatized", False)),
            legality_ok=payload.get("legality_ok"),
            timings=dict(payload.get("timings", ())),
            schema_version=version,
        )


def pack_artifact(artifact: CompileArtifact) -> bytes:
    """Artifact -> checksummed bytes (the on-disk file content)."""
    payload = pickle.dumps(artifact.to_payload(), protocol=4)
    digest = hashlib.sha256(payload).digest()
    return MAGIC + digest + payload


def unpack_artifact(data: bytes) -> CompileArtifact:
    """Checksummed bytes -> artifact; raises :class:`ArtifactCorruptError`.

    Order matters: magic, length, checksum are all verified *before*
    ``pickle.loads`` ever sees the payload.
    """
    if len(data) < len(MAGIC) + _SHA_LEN:
        raise ArtifactCorruptError(
            f"artifact truncated: {len(data)} bytes is shorter than the "
            "header"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise ArtifactCorruptError("bad artifact magic")
    digest = data[len(MAGIC) : len(MAGIC) + _SHA_LEN]
    payload = data[len(MAGIC) + _SHA_LEN :]
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactCorruptError("artifact payload checksum mismatch")
    try:
        doc = pickle.loads(payload)
    except Exception as exc:  # checksum passed but pickle still broken
        raise ArtifactCorruptError(f"artifact payload unreadable: {exc}")
    if not isinstance(doc, dict):
        raise ArtifactCorruptError("artifact payload is not a mapping")
    return CompileArtifact.from_payload(doc)
