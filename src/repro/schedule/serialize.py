"""Serialization of task ASTs (analysis-result caching).

The pipeline analysis is a compile-time pass; for large instantiations it
is worth caching.  A :class:`~repro.schedule.astgen.TaskAst` is fully
self-contained (blocks, iterations, dependency tokens), so saving it is
enough to rebuild task graphs and run/simulate later without re-running
Algorithm 1.  ``dumps_task_ast`` / ``loads_task_ast`` write and read the
artifact store's blob: a zlib-compressed pickle of the packed arrays
below, without a zip container (``np.load`` drags in ``zipfile`` +
``pathlib``, ~10ms of import cost in a fresh warm-serving process).

The packed layout (format version 2) is built for thousands of blocks:

* every block's iteration array lives in ONE flat ``int64`` array plus
  a ``(n_blocks, 2)`` shape table;
* ``in_tokens`` are stored as integer indices into the global block
  list (a consumed token is some producer block's ``out_token``), not
  as literal ``[statement, end]`` pairs — smaller header, shared tuple
  objects on load.  Tokens produced by no block (defensive case) are
  kept literally in ``"in_extra"``;
* a nest record carries ``"chained": false`` for a relaxed or privatized
  nest; the key is absent otherwise.

Loaded iteration arrays view into the flat array (no copy).  A blob
without :data:`BLOB_MAGIC` (which names the version) raises
``ValueError`` — the artifact store demotes that to a recompile.
"""

from __future__ import annotations

import pickle
import zlib

import numpy as np

from .astgen import TaskAst, TaskBlock, TaskLoopNest

FORMAT_VERSION = 2

#: magic prefix of the in-memory blob container (zip-free pickle)
BLOB_MAGIC = b"RPTAST2\x00"


# ----------------------------------------------------------------------
# packed layout: AST <-> (header, flat, shapes)
# ----------------------------------------------------------------------
def _pack(ast: TaskAst) -> tuple[dict, np.ndarray, np.ndarray]:
    token_index: dict = {}
    idx = 0
    for nest in ast.nests:
        for block in nest.blocks:
            token_index[(nest.statement, tuple(block.end))] = idx
            idx += 1

    header: dict = {"version": FORMAT_VERSION, "nests": []}
    chunks: list[np.ndarray] = []
    shapes: list[tuple[int, int]] = []
    for nest in ast.nests:
        nest_rec = {
            "statement": nest.statement,
            "depth": nest.depth,
            "blocks": [],
        }
        if not nest.chained:  # absent means chained: most nests are
            nest_rec["chained"] = False
        for block in nest.blocks:
            iters = np.ascontiguousarray(block.iterations, dtype=np.int64)
            chunks.append(iters.ravel())
            # cols == -1 marks a 1-D iteration array (shape preserved)
            shapes.append(
                (iters.shape[0], iters.shape[1])
                if iters.ndim == 2
                else (iters.shape[0], -1)
            )
            rec: dict = {
                "block_id": block.block_id,
                "end": list(block.end),
                "in": [],
            }
            for stmt, end in block.in_tokens:
                ref = token_index.get((stmt, tuple(end)))
                if ref is None:
                    rec.setdefault("in_extra", []).append([stmt, list(end)])
                else:
                    rec["in"].append(ref)
            nest_rec["blocks"].append(rec)
        header["nests"].append(nest_rec)
    flat = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    return header, flat, np.asarray(shapes, dtype=np.int64).reshape(-1, 2)


def _unpack(header: dict, flat: np.ndarray, shapes: np.ndarray) -> TaskAst:
    flat = np.asarray(flat, dtype=np.int64)
    shapes = np.asarray(shapes, dtype=np.int64)

    # Pass 1: every block's out_token, in global block order — in_token
    # indices resolve against this (and the tuples are shared, not
    # re-materialized per consumer).
    out_tokens: list = []
    for nest_rec in header["nests"]:
        statement = nest_rec["statement"]
        for rec in nest_rec["blocks"]:
            out_tokens.append((statement, tuple(rec["end"])))

    nests: list[TaskLoopNest] = []
    offset = 0
    b_idx = 0
    for nest_rec in header["nests"]:
        statement = nest_rec["statement"]
        blocks: list[TaskBlock] = []
        for rec in nest_rec["blocks"]:
            rows = int(shapes[b_idx, 0])
            cols = int(shapes[b_idx, 1])
            count = rows * (1 if cols == -1 else cols)
            iters = flat[offset : offset + count]
            if cols != -1:
                iters = iters.reshape(rows, cols)
            offset += count
            in_tokens = [out_tokens[i] for i in rec["in"]]
            for stmt, end in rec.get("in_extra", ()):
                in_tokens.append((stmt, tuple(end)))
            blocks.append(
                TaskBlock(
                    statement=statement,
                    block_id=int(rec["block_id"]),
                    end=out_tokens[b_idx][1],
                    iterations=iters,
                    in_tokens=tuple(in_tokens),
                    out_token=out_tokens[b_idx],
                )
            )
            b_idx += 1
        nests.append(TaskLoopNest(
            statement, int(nest_rec["depth"]), tuple(blocks),
            chained=nest_rec.get("chained", True),
        ))
    return TaskAst(tuple(nests))


# ----------------------------------------------------------------------
# the container (artifact-store blobs)
# ----------------------------------------------------------------------
def dumps_task_ast(ast: TaskAst) -> bytes:
    """Task AST -> bytes, the artifact-store blob (zip-free)."""
    header, flat, shapes = _pack(ast)
    doc = {"header": header, "flat": flat, "shapes": shapes}
    return BLOB_MAGIC + zlib.compress(
        pickle.dumps(doc, protocol=4), level=1
    )


def loads_task_ast(blob: bytes) -> TaskAst:
    """Inverse of :func:`dumps_task_ast`."""
    if not blob.startswith(BLOB_MAGIC):
        raise ValueError("not a task-AST blob (bad magic)")
    doc = pickle.loads(zlib.decompress(blob[len(BLOB_MAGIC) :]))
    return _unpack(doc["header"], doc["flat"], doc["shapes"])
