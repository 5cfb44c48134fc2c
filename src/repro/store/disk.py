"""The on-disk store: atomic writes, LRU eviction, stats/gc.

Layout: ``<root>/<key[:2]>/<key>.rpa`` — two-level fan-out keeps
directory listings bounded.  Writes go through a same-directory
tempfile + :func:`os.replace`, so a reader never sees a half-written
artifact (and a crashed writer leaves only a ``.tmp`` file the next
``gc`` sweeps).  Reads touch the file's mtime, making mtime order the
LRU order that :meth:`ArtifactStore.gc` evicts by.

Every store instance counts its own hits/misses/puts/evictions; the
module additionally aggregates *session counters* across all stores in
the process, which is what ``repro analyze --stats`` and the obs
metrics registry surface.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field

from .artifact import (
    ArtifactCorruptError,
    CompileArtifact,
    pack_artifact,
    unpack_artifact,
)

#: Default ceilings (overridable per store and via ``gc`` arguments).
DEFAULT_MAX_BYTES = 1 << 30  # 1 GiB
DEFAULT_MAX_ENTRIES = 4096

_SUFFIX = ".rpa"

_SESSION_LOCK = threading.Lock()
_SESSION: dict[str, int] = {}


def _count(name: str, value: int = 1) -> None:
    with _SESSION_LOCK:
        _SESSION[name] = _SESSION.get(name, 0) + value


def session_counters() -> dict[str, int]:
    """Process-wide artifact-store counters (all stores aggregated)."""
    with _SESSION_LOCK:
        return dict(_SESSION)


def bump_session(name: str, value: int = 1) -> None:
    """Count an event into the session counters (used by the compile
    tier for store-adjacent events like warm-replay failures)."""
    _count(name, value)


#: Final metrics snapshot a shutting-down ``repro serve`` leaves behind,
#: at the store root (``_entries`` only scans subdirectories, so a
#: root-level file never collides with artifact bookkeeping).
METRICS_SNAPSHOT = "metrics-last.json"


def save_metrics_snapshot(root: str, doc: dict) -> str:
    """Atomically persist a serving session's final metrics document."""
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, METRICS_SNAPSHOT)
    fd, tmp = tempfile.mkstemp(dir=root, prefix=".tmp-metrics-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


def load_metrics_snapshot(root: str) -> dict | None:
    """The last serving session's metrics, or ``None`` if never served."""
    path = os.path.join(root, METRICS_SNAPSHOT)
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/artifacts``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "artifacts"
    )


@dataclass
class StoreStats:
    """Disk occupancy plus this store's lifetime counters."""

    root: str
    entries: int
    bytes: int
    max_bytes: int
    max_entries: int
    counters: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        c = self.counters
        lines = [
            f"artifact store at {self.root}",
            f"  entries     {self.entries} (limit {self.max_entries})",
            f"  bytes       {self.bytes} (limit {self.max_bytes})",
            f"  hits        {c.get('hits', 0)}",
            f"  misses      {c.get('misses', 0)}",
            f"  puts        {c.get('puts', 0)}",
            f"  evictions   {c.get('evictions', 0)}",
            f"  corrupt     {c.get('corrupt', 0)}",
        ]
        return "\n".join(lines)


class ArtifactStore:
    """Content-addressed artifact files under one root directory."""

    def __init__(
        self,
        root: str | None = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        self.root = os.path.abspath(root or default_cache_dir())
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "puts": 0,
            "evictions": 0,
            "corrupt": 0,
        }

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + _SUFFIX)

    def _bump(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value
        _count(name, value)

    # ------------------------------------------------------------------
    def get(self, key: str) -> CompileArtifact | None:
        """Load an artifact, or ``None`` (miss / corrupt / wrong key).

        Corrupt or truncated files are deleted and counted, then treated
        as a plain miss — the caller recompiles and overwrites.
        """
        from ..obs.spans import span

        path = self.path_for(key)
        with span("store.get", key=key[:12]) as sp:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                self._bump("misses")
                sp.set(hit=False)
                return None
            try:
                artifact = unpack_artifact(data)
                if artifact.key != key:
                    raise ArtifactCorruptError(
                        f"artifact key {artifact.key[:12]} does not match "
                        f"file address {key[:12]}"
                    )
            except ArtifactCorruptError:
                self._bump("corrupt")
                self._bump("misses")
                sp.set(hit=False, corrupt=True)
                try:
                    os.remove(path)
                except OSError:
                    pass
                return None
            # Touch: mtime order is the LRU order gc evicts by.
            try:
                os.utime(path, None)
            except OSError:
                pass
            self._bump("hits")
            sp.set(hit=True, bytes=len(data))
            return artifact

    def put(self, key: str, artifact: CompileArtifact) -> str:
        """Atomically write an artifact; returns its path.

        Same-directory tempfile + ``os.replace`` — concurrent writers of
        the same key race benignly (last replace wins, both files were
        complete), and readers never observe partial content.
        """
        from ..obs.spans import span

        path = self.path_for(key)
        data = pack_artifact(artifact)
        with span("store.put", key=key[:12], bytes=len(data)):
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=directory, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
            self._bump("puts")
        self.gc()
        return path

    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every artifact file, oldest first."""
        rows: list[tuple[float, int, str]] = []
        if not os.path.isdir(self.root):
            return rows
        for sub in os.listdir(self.root):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in os.listdir(subdir):
                path = os.path.join(subdir, name)
                if name.startswith(".tmp-"):
                    # leftover from a crashed writer — but only reap old
                    # ones, a fresh tmp may be another process mid-write
                    try:
                        if time.time() - os.stat(path).st_mtime > 300:
                            os.remove(path)
                    except OSError:
                        pass
                    continue
                if not name.endswith(_SUFFIX):
                    continue
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                rows.append((st.st_mtime, st.st_size, path))
        rows.sort()
        return rows

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> list[str]:
        """Evict least-recently-used artifacts beyond the ceilings.

        Returns the evicted paths.  Explicit arguments override the
        store's configured limits for this sweep (``repro store gc``).
        """
        limit_bytes = self.max_bytes if max_bytes is None else int(max_bytes)
        limit_entries = (
            self.max_entries if max_entries is None else int(max_entries)
        )
        rows = self._entries()
        total = sum(size for _, size, _ in rows)
        evicted: list[str] = []
        for mtime, size, path in rows:
            if len(rows) - len(evicted) <= limit_entries and (
                total <= limit_bytes
            ):
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            evicted.append(path)
            self._bump("evictions")
        return evicted

    def clear(self) -> int:
        """Remove every artifact; returns how many were removed."""
        removed = 0
        for _, _, path in self._entries():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> StoreStats:
        rows = self._entries()
        return StoreStats(
            root=self.root,
            entries=len(rows),
            bytes=sum(size for _, size, _ in rows),
            max_bytes=self.max_bytes,
            max_entries=self.max_entries,
            counters=dict(self.counters),
        )
