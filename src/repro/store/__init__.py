"""Content-addressed on-disk artifact store (the durable compile tier).

A compile keeps what it derives on its own objects, for one process;
this package makes the *fleet* fast: every completed compile (pipeline info, task AST,
fused closure specs, privatization proofs) is
serialized into one checksummed artifact file keyed by

    ``sha256(kernel source) × params × TransformOptions fingerprint
    × artifact-schema version``

so any later process — a CLI invocation, a ``repro serve`` worker, CI —
can answer an identical compile request from disk instead of re-running
Algorithm 1.  Loads re-verify what must not be trusted (privatization
proofs go through :func:`repro.schedule.legality.verify_privatization`
again); corrupted or truncated files are detected by checksum and
treated as misses, never crashes.
"""

from .artifact import ArtifactCorruptError, CompileArtifact
from .disk import (
    ArtifactStore,
    StoreStats,
    default_cache_dir,
    load_metrics_snapshot,
    save_metrics_snapshot,
    session_counters,
)
from .keys import SCHEMA_VERSION, artifact_key, kernel_sha, options_fingerprint

__all__ = [
    "ArtifactCorruptError",
    "ArtifactStore",
    "CompileArtifact",
    "SCHEMA_VERSION",
    "StoreStats",
    "artifact_key",
    "default_cache_dir",
    "kernel_sha",
    "load_metrics_snapshot",
    "options_fingerprint",
    "save_metrics_snapshot",
    "session_counters",
]
