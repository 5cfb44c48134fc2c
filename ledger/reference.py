"""Independent NumPy reference for the ledger's kernel families.

Never imports ``repro.interp`` or ``repro.lang``: it evaluates the plain
nest lists ``ledger.workloads`` renders beside the source text, with its
own copy of the mixing function.  Two renderings of the same semantics:

* whole-array (default) -- one gather, one call, one scatter per loop
  nest.  Valid for these families because every cell a nest reads from
  its own output array is still unwritten when it is read (checked per
  nest, not assumed); this is the correctness reference and the timed
  ``baseline.numpy_seq_ms``;
* scalar -- a plain sequential loop calling ``stage`` once per instance.
  It is what a user would write when ``compute`` is opaque (the timed
  baseline on ``opaque_stage``) and it cross-checks the whole-array
  rendering in ``--self-check``.

Inputs are ``{array: (ndarray, per-dimension index offsets)}`` copied by
the harness from ``Interpreter.new_store()``; outputs are full buffers of
the same shape, so their SHA-256 equals the server's ``run`` checksums.
"""

from __future__ import annotations

import hashlib
import itertools
import time

import numpy as np

#: tolerance for sum accumulators reassociated by privatization; the
#: values ``repro.interp.privatized_matches`` documents
ACC_RTOL, ACC_ATOL = 1e-9, 1e-12


def mix(*args):
    """The repo's default opaque function, re-implemented: pure float64
    arithmetic, so scalars and whole arrays agree bit for bit."""
    acc = 1.0
    for k, a in enumerate(args):
        acc = (acc * 31.0 + (k + 1) * a) % 65521.0
    return acc


def blocking_stage(seconds: float):
    """``mix`` behind a blocking wait: an opaque, non-elementwise stage
    (no ``elementwise`` flag, so vectorizer and fuser must refuse it)."""

    def stage(*args):
        time.sleep(seconds)
        return mix(*args)

    return stage


def _index(grids, access, offsets):
    return tuple(
        sum(c * g for c, g in zip(coeffs, grids)) + (const - off)
        for (coeffs, const), off in zip(access, offsets)
    )


def _nest_whole(nest, arrays) -> None:
    grids = np.meshgrid(
        *(np.arange(lo, hi) for lo, hi in zip(nest["lo"], nest["hi"])),
        indexing="ij",
    )
    target, waccess = nest["write"]
    data, offsets = arrays[target]
    widx = _index(grids, waccess, offsets)
    order = np.arange(grids[0].size).reshape(grids[0].shape)
    written_at = np.full(data.shape, order.size)
    written_at[widx] = order
    if np.count_nonzero(written_at < order.size) != order.size:
        raise ValueError(f"{nest['label']}: write is not injective")
    values = []
    for name, access in nest["args"]:
        src, src_off = arrays[name]
        ridx = _index(grids, access, src_off)
        if name == target and (written_at[ridx] < order).any():
            raise ValueError(
                f"{nest['label']}: reads a cell an earlier iteration "
                "wrote; the whole-array rendering would be wrong"
            )
        values.append(src[ridx])
    rhs = mix(*values) if nest["call"] else values[0]
    data[widx] = data[widx] + rhs if nest["op"] == "+=" else rhs


def _nest_scalar(nest, arrays, stage) -> None:
    target, waccess = nest["write"]
    data, offsets = arrays[target]

    def cell(point, access, offs):
        return tuple(
            sum(c * v for c, v in zip(coeffs, point)) + const - off
            for (coeffs, const), off in zip(access, offs)
        )

    for point in itertools.product(
        *(range(lo, hi) for lo, hi in zip(nest["lo"], nest["hi"]))
    ):
        values = [
            float(arrays[name][0][cell(point, access, arrays[name][1])])
            for name, access in nest["args"]
        ]
        rhs = stage(*values) if nest["call"] else values[0]
        at = cell(point, waccess, offsets)
        data[at] = data[at] + rhs if nest["op"] == "+=" else rhs


def run(nests, inputs, stage=None) -> dict[str, np.ndarray]:
    """Execute ``nests`` in program order on a copy of ``inputs``."""
    arrays = {
        name: (data.copy(), tuple(offsets))
        for name, (data, offsets) in inputs.items()
    }
    for nest in nests:
        if stage is None:
            _nest_whole(nest, arrays)
        else:
            _nest_scalar(nest, arrays, stage)
    return {name: data for name, (data, _) in arrays.items()}


def matches(expected, actual, accumulators=()) -> bool:
    """Bit-exact on every array, except ``accumulators`` at the stated
    reassociation tolerance."""
    if set(expected) != set(actual):
        return False
    for name, want in expected.items():
        got = actual[name]
        if name in accumulators:
            if not np.allclose(want, got, rtol=ACC_RTOL, atol=ACC_ATOL):
                return False
        elif not np.array_equal(want, got):
            return False
    return True


def checksums(arrays) -> dict[str, str]:
    """SHA-256 per array, the form ``repro serve`` answers ``run`` with."""
    return {
        name: hashlib.sha256(data.tobytes(order="C")).hexdigest()
        for name, data in sorted(arrays.items())
    }
