"""Task-AST serialization, and the section container it and the
artifact store write.  The pipeline analysis is a compile-time pass;
a task AST's :class:`~repro.schedule.astgen.TaskArrays` are enough to
lower and run it later without re-running Algorithm 1.

The container (:func:`pack_sections`): a little-endian uint64 header
length; a header of two JSON lines, the section table ``[[offset,
dtype, shape], ...]`` and the document, padded to 8 bytes; then the
raw sections at 8-aligned offsets.  Each ``ndarray`` of the document
is an ``"<i8"`` section, each ``bytes`` value a ``"|u1"`` one, named
``{"$s": index}`` in the JSON.  :func:`unpack_sections` takes each section as a read-only
``np.frombuffer`` view — no copy, no pickle — and raises
``ValueError`` on anything malformed.

A task-AST blob is :data:`BLOB_MAGIC` plus a container: the nest table
(statement, depth, chained, block count) and the sections ``flat``
(every block's iterations), ``shapes`` (blocks × 2), ``ends`` (each
nest's blocks × depth) and the producer CSR ``indptr`` / ``indices``
over global block ids; a block's id is its position in its nest.  A
load checks the sizes and that every producer precedes its consumer
(the graph is acyclic), and builds no per-block object.  Join rows are
not stored: a load relaxes the AST again with the privatization plan it
re-verified (:func:`~repro.schedule.relax.relax`).
"""

from __future__ import annotations

import json

import numpy as np

from .astgen import TaskArrays, TaskAst, block_offsets, csr_rows

#: magic prefix of the task-AST blob (names the layout version)
BLOB_MAGIC = b"RPTAST3\x00"

_DTYPES = {"<i8": np.dtype("<i8"), "|u1": np.dtype("u1")}


# ----------------------------------------------------------------------
# the section container
# ----------------------------------------------------------------------
def pack_sections(doc) -> bytes:
    """``doc`` (plain data, ndarrays, bytes) -> container bytes."""
    sections: list[bytes] = []
    table: list = []

    def encode(value):
        if isinstance(value, np.ndarray):
            raw = np.ascontiguousarray(value, dtype="<i8")
            data, entry = raw.tobytes(), ["<i8", list(raw.shape)]
        elif isinstance(value, (bytes, bytearray, memoryview)):
            data, entry = bytes(value), ["|u1", [len(value)]]
        elif isinstance(value, dict):
            return {k: encode(v) for k, v in value.items()}
        elif isinstance(value, (list, tuple)):
            return [encode(v) for v in value]
        else:
            return value
        table.append([sum(map(len, sections)), *entry])
        sections.append(data + b"\0" * (-len(data) % 8))
        return {"$s": len(table) - 1}

    try:
        body = json.dumps(encode(doc), separators=(",", ":"))
    finally:
        del encode  # it names itself: a cycle holding the sections
    header = (json.dumps(table) + "\n" + body).encode()
    header += b" " * (-len(header) % 8)
    return len(header).to_bytes(8, "little") + header + b"".join(sections)


def unpack_sections(data):
    """Container bytes (or a memoryview) -> the document, sections as
    read-only ``np.frombuffer`` views (``bytes`` values as memoryviews)."""
    view = memoryview(data)
    if len(view) < 8:
        raise ValueError("section container truncated before its header")
    length = int.from_bytes(view[:8], "little")
    base = 8 + length
    if length % 8 or base > len(view):
        raise ValueError("section container header overruns the data")
    table, _, doc = bytes(view[8:base]).partition(b"\n")
    try:
        table = list(json.loads(table))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"section table unreadable: {exc}")
    arrays = []
    for entry in table:
        try:
            offset, dtype, shape = entry
            dtype = _DTYPES[dtype]
            count = int(np.prod(shape, dtype=np.int64))
            start = base + offset
            stop = start + count * dtype.itemsize
            if offset % 8 or min((offset, *shape), default=0) < 0 or (
                stop > len(view)
            ):
                raise ValueError("outside the data")
            arrays.append(
                view[start:stop] if dtype.itemsize == 1
                else np.frombuffer(view, dtype, count, start).reshape(shape)
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"bad section entry {entry!r}: {exc}")

    def section(obj: dict):
        return arrays[obj["$s"]] if len(obj) == 1 and "$s" in obj else obj

    try:
        return json.loads(doc, object_hook=section)
    except (ValueError, IndexError, TypeError) as exc:
        raise ValueError(f"section container document unreadable: {exc}")


# ----------------------------------------------------------------------
# the task AST
# ----------------------------------------------------------------------
def dumps_task_ast(ast: TaskAst) -> bytes:
    """Task AST -> bytes, the artifact-store blob."""
    a = ast.arrays
    nests = [
        [name, depth, chained, len(a.blocks(k))]
        for k, (name, depth, chained) in enumerate(
            zip(a.statements, a.depths, a.chained)
        )
    ]
    return BLOB_MAGIC + pack_sections({
        "nests": nests, "flat": a.flat, "shapes": a.shapes,
        "ends": a.ends, "indptr": a.indptr, "indices": a.indices,
    })


def loads_task_ast(blob) -> TaskAst:
    """Inverse of :func:`dumps_task_ast`; ``ValueError`` on a blob that
    is not one."""
    if bytes(blob[: len(BLOB_MAGIC)]) != BLOB_MAGIC:
        raise ValueError("not a task-AST blob (bad magic)")
    doc = unpack_sections(memoryview(blob)[len(BLOB_MAGIC):])
    try:
        rows = doc["nests"]
        names, depths, chained, counts = zip(*rows) if rows else [()] * 4
        arrays = TaskArrays(
            statements=tuple(map(str, names)),
            depths=tuple(map(int, depths)),
            chained=tuple(map(bool, chained)),
            starts=np.cumsum((0, *counts), dtype=np.int64),
            shapes=doc["shapes"],
            offsets=block_offsets(doc["shapes"]),
            flat=doc["flat"],
            ends=doc["ends"],
            indptr=doc["indptr"],
            indices=doc["indices"],
        )
        n = arrays.num_blocks
        consumer = csr_rows(arrays.indptr)
        ok = (
            np.all(np.diff(arrays.starts) >= 0)
            and arrays.shapes.shape == (n, 2)
            and np.all(arrays.shapes[:, 0] >= 0)
            and np.all(np.diff(arrays.offsets) >= 0)
            and arrays.offsets[-1] == arrays.flat.size
            and arrays.ends.size == np.dot(counts, depths)
            and arrays.indptr.shape == (n + 1,)
            and arrays.indptr[0] == 0
            and arrays.indptr[-1] == arrays.indices.size
            and consumer.size == arrays.indices.size
            and np.all(arrays.indices >= 0)
            and np.all(arrays.indices < consumer)
        )
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"task-AST blob unreadable: {exc}")
    if not ok:
        raise ValueError("task-AST blob arrays are inconsistent")
    return TaskAst(arrays=arrays)
