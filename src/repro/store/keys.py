"""Artifact key derivation.

A store key must change whenever *anything* that can change the compile
output changes, and must be identical across processes whenever nothing
did.  Three independent components are hashed together:

* ``kernel_sha`` — SHA-256 of the kernel source text (the symbolic
  program; MARS-style, sizes are keyed separately via ``params``);
* ``options_fingerprint`` — a canonical JSON rendering of **every**
  field of :class:`repro.driver.TransformOptions` (walked generically
  through ``dataclasses.fields``, so a newly added option can never be
  silently left out of the key);
* :data:`SCHEMA_VERSION` — bumped whenever the artifact payload or the
  compile output in it changes, so stale artifacts read as misses.

Only plain data may enter a fingerprint: enums render as
``ClassName.MEMBER``, nested (frozen) dataclasses recurse, mappings are
key-sorted.  Anything else raises — an unfingerprintable option is a
bug, not a cache policy.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping

#: Bump when the artifact payload or the compile output in it changes
#: (old entries become misses — the store never parses a foreign schema).
SCHEMA_VERSION = 10


def kernel_sha(source: str) -> str:
    """SHA-256 hex digest of the kernel source text, byte-exact."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _canon(value: Any) -> Any:
    """Reduce a value to canonical plain data (deterministic JSON)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value  # a float's repr (json.dumps') round-trips exactly
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _canon(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canon(v) for v in value)
    if isinstance(value, Mapping):
        return {
            str(k): _canon(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    raise TypeError(
        f"cannot fingerprint {type(value).__name__!r} value {value!r}; "
        "store keys accept only plain data, enums and (frozen) dataclasses"
    )


def options_fingerprint(options) -> str:
    """Canonical fingerprint covering every ``TransformOptions`` field.

    Walked generically via :func:`dataclasses.fields`: flipping *any*
    field — including ones added after this module was written — yields
    a different fingerprint (the cache-key stability tests enumerate
    them all).
    """
    payload = _canon(options)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def artifact_key(
    source: str,
    params: Mapping[str, int] | None,
    options,
) -> str:
    """The content address of one compile: 64 hex chars."""
    parts = {
        "schema": SCHEMA_VERSION,
        "kernel": kernel_sha(source),
        "params": _canon(dict(params or {})),
        "options": options_fingerprint(options),
    }
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
