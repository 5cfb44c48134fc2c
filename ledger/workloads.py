"""Seed -> workload inputs.  Pure data: nothing here imports ``repro``.

A workload is a fixed set of kernel *shapes* (family member, problem
size, grain, options) rendered to source text under seed-drawn cosmetic
choices: array/label/loop-variable names, the order of a statement's
call arguments (which changes every output value but not one operation
of work), the order of the kernels, and each served client's request
sequence.  The shapes themselves are **not** drawn by seed: the driver
that gates later PRs compares medians *across seeds* against a 10 %
bound, and a seeded draw over P3..P10 or over N moves the compile wall
by 2-4x.  The program under test sees only the rendered text, params and
options -- never the seed or the workload name.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

#: every in-process path and the server use two workers (the host has 2 cores)
WORKERS = 2

#: seconds the opaque stage blocks per call (the paper's next-prime stage)
STAGE_SECONDS = 0.0005

# Table 9 read accesses, hand-copied: (source nest, row, col) with an
# index written as (coeff of outer var, coeff of inner var, constant).
_I, _J = (1, 0, 0), (0, 1, 0)
_2I, _2J, _I3 = (2, 0, 0), (0, 2, 0), (1, 0, 3)
TABLE9_READS = {
    "P5": (
        (),
        ((1, _I, _J),),
        ((1, _I, _J), (2, _I, _J)),
        ((1, _I, _J), (2, _I, _J), (3, _I, _J)),
    ),
    "P6": (
        (),
        ((1, _I3, _J),),
        ((1, _I3, _J), (2, _I, _J)),
        ((1, _I3, _J), (2, _I, _J), (3, _I, _J)),
    ),
    "P9": (
        (),
        ((1, _I, _2J),),
        ((1, _I, _J), (2, _I, _2J)),
        ((1, _I, _2J), (3, _I, _J)),
    ),
    "P10": (
        (),
        ((1, _I3, _J),),
        ((2, _I, _J),),
        ((3, _I, _J),),
    ),
}

_ARRAY_PREFIXES = ("A", "B", "C", "D", "M", "Q", "X", "Y", "Z")
_LABEL_PREFIXES = ("S", "T", "R", "K", "L")
_LOOP_VARS = (("i", "j"), ("p", "q"), ("r", "c"), ("x", "y"), ("m", "k"))


@dataclass(frozen=True)
class Shape:
    """One kernel of a workload, before rendering."""

    family: str  # a TABLE9_READS key, "hist2d" or "stencil1d"
    n: int
    #: blocks merged per task (``TransformOptions.coarsen``)
    coarsen: int = 1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    shapes: tuple[Shape, ...]
    privatize: bool = False
    opaque: bool = False
    #: floor of timed runs per kernel and backend
    run_samples: int = 30


#: sizes are set so one run (set-up + every phase at its sample floor)
#: fits the driver's per-run budget on 2 cores -- see README "Sizing".
WORKLOADS: dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            "coarse_p",
            "3 Table 9 kernels at ~8 tasks per statement: compile-bound, "
            "run ~1 ms, so Presburger/compile work shows and dispatch "
            "must not",
            (
                Shape("P5", 20, coarsen=60),
                Shape("P6", 20, coarsen=60),
                Shape("P9", 20, coarsen=60),
            ),
        ),
        WorkloadSpec(
            "fine_p",
            "2 Table 9 kernels at the finest safe blocks (~1-1.6k tasks): "
            "run wall is per-task dispatch; AST, artifact and graph "
            "rebuild weigh most in the warm path",
            (Shape("P5", 14), Shape("P10", 14)),
        ),
        WorkloadSpec(
            "opaque_stage",
            "2 Table 9 kernels at N=8 whose compute blocks 0.5 ms per "
            "call: fuser must refuse, run >> compile, the one place "
            "pipelined threads can beat serial under the GIL",
            (Shape("P5", 8), Shape("P9", 8)),
            opaque=True,
            run_samples=5,
        ),
        WorkloadSpec(
            "reduction",
            "2 privatized sum reductions (2-D histogram with a reversed "
            "second pass, 1-D stencil sum): portfolio -> proof -> "
            "privatized spine and proof re-verification on every warm load",
            (Shape("hist2d", 32), Shape("stencil1d", 2048)),
            privatize=True,
        ),
    )
}

#: --self-check sizes: same families and options, seconds-scale total
TINY_N = {"hist2d": 8, "stencil1d": 64}
TINY_N_TABLE9 = 6


@dataclass
class Case:
    """One rendered kernel: what the program under test receives, plus
    the plain-data nest list ``ledger.reference`` evaluates."""

    id: str
    source: str
    params: dict
    options: dict  # TransformOptions fields, JSON-safe
    opaque: bool
    nests: list
    #: arrays compared at the privatized-sum tolerance instead of bitwise
    accumulators: tuple = ()

    def describe(self) -> dict:
        return {
            "id": self.id,
            "source": self.source,
            "params": self.params,
            "options": self.options,
            "opaque": self.opaque,
            "nests": self.nests,
            "accumulators": list(self.accumulators),
        }


@dataclass
class Workload:
    spec: WorkloadSpec
    seed: int
    cases: list[Case]
    #: per served client: an endless deterministic (verb, case index) stream
    client_seeds: tuple[int, ...] = field(default_factory=tuple)

    def request_block(self) -> int:
        """Requests per balanced block: every kernel twice as ``compile``
        and once as ``run``."""
        return 3 * len(self.cases)

    def requests(self, client: int, count: int) -> list[tuple[str, int]]:
        """First ``count`` requests of one closed-loop client.  The
        stream is a run of balanced blocks (verbs 2:1 compile:run on
        every kernel), each shuffled by the client's seed, so any whole
        number of blocks carries the same mix of work for every seed."""
        rng = random.Random(self.client_seeds[client])
        out: list[tuple[str, int]] = []
        while len(out) < count:
            block = [
                (verb, k)
                for k in range(len(self.cases))
                for verb in ("compile", "compile", "run")
            ]
            rng.shuffle(block)
            out.extend(block)
        return out[:count]

    def canonical(self, requests: int = 96) -> str:
        """Byte-stable rendering of every generated input (self-check)."""
        return json.dumps(
            {
                "workload": self.spec.name,
                "cases": [c.describe() for c in self.cases],
                "requests": [
                    self.requests(k, requests)
                    for k in range(len(self.client_seeds))
                ],
            },
            sort_keys=True,
        )


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _affine_text(coeffs, const, ncoef, names) -> str:
    """``ncoef*N + sum(coeffs*names) + const`` in the kernel language."""
    terms: list[tuple[int, str]] = []
    if ncoef:
        terms.append((ncoef, "N"))
    terms.extend((c, v) for c, v in zip(coeffs, names) if c)
    text = ""
    for c, v in terms:
        mag = v if abs(c) == 1 else f"{abs(c)}*{v}"
        text += ("-" if c < 0 else "+" if text else "") + mag
    if const or not text:
        text += (
            ("-" if const < 0 else "+" if text else "") + str(abs(const))
        )
    return text


class _Index:
    """An affine index, possibly in the symbolic size ``N``."""

    def __init__(self, coeffs, const=0, ncoef=0):
        self.coeffs, self.const, self.ncoef = tuple(coeffs), const, ncoef

    def text(self, names) -> str:
        return _affine_text(self.coeffs, self.const, self.ncoef, names)

    def plain(self, n: int) -> list:
        return [list(self.coeffs), self.const + self.ncoef * n]


def _access_text(array, idx, names) -> str:
    return array + "".join(f"[{i.text(names)}]" for i in idx)


def _render_nest(label, names, bounds, write, op, call, args, n) -> tuple:
    """(source text, plain nest) of one loop nest.

    ``bounds`` is a (lo, hi) pair of ``_Index`` constants per loop.
    """
    lines = []
    for depth, (var, (lo, hi)) in enumerate(zip(names, bounds)):
        lines.append(
            "  " * depth
            + f"for({var}={lo.text(())}; {var}<{hi.text(())}; {var}++)"
        )
    rhs = ", ".join(_access_text(a, idx, names) for a, idx in args)
    if call:
        rhs = f"{call}({rhs})"
    lines.append(
        "  " * len(names)
        + f"{label}: {_access_text(*write, names)} {op} {rhs};"
    )
    plain = {
        "label": label,
        "lo": [lo.plain(n)[1] for lo, _ in bounds],
        "hi": [hi.plain(n)[1] for _, hi in bounds],
        "write": [write[0], [i.plain(n) for i in write[1]]],
        "op": op,
        "call": bool(call),
        "args": [[a, [i.plain(n) for i in idx]] for a, idx in args],
    }
    return "\n".join(lines), plain


def _max_extent(index, limit: int, cap: int) -> int:
    """Largest M <= cap with ``index`` in [0, limit) for i, j < M."""
    ci, cj, c0 = index
    for m in range(cap, 0, -1):
        if 0 <= (ci + cj) * (m - 1) + c0 < limit:
            return m
    raise ValueError(f"no feasible extent for index {index}")


def _table9_extents(reads, n: int) -> list[tuple[int, int]]:
    """Per-nest (rows, cols): nest 1 is n x n, later nests the largest
    extents keeping every read inside its producer's written region."""
    extents: list[tuple[int, int]] = []
    for nest_reads in reads:
        mi = mj = n
        for src, row, col in nest_reads:
            for index, limit in zip((row, col), extents[src - 1]):
                bound = _max_extent(index, limit, n)
                if index[0]:
                    mi = min(mi, bound)
                if index[1]:
                    mj = min(mj, bound)
        extents.append((mi, mj))
    return extents


def _names(rng: random.Random) -> tuple[str, str, tuple[str, str]]:
    array = rng.choice(_ARRAY_PREFIXES)
    label = rng.choice([p for p in _LABEL_PREFIXES if p != array])
    return array, label, rng.choice(_LOOP_VARS)


def _render_table9(family: str, n: int, rng: random.Random) -> tuple:
    array, label, names = _names(rng)
    reads = TABLE9_READS[family]
    chunks, nests = [], []
    for k, ((mi, mj), nest_reads) in enumerate(
        zip(_table9_extents(reads, n), reads), start=1
    ):
        own = f"{array}{k}"
        # like Listing 1's f(): reading the own array at [i][j+1] and
        # [i+1][j+1] carries anti dependences at both loop levels, so no
        # single loop is parallel while the write stays injective
        args = [
            (own, (_Index((1, 0)), _Index((0, 1)))),
            (own, (_Index((1, 0)), _Index((0, 1), 1))),
            (own, (_Index((1, 0), 1), _Index((0, 1), 1))),
        ] + [
            (f"{array}{src}", (_Index(row[:2], row[2]), _Index(col[:2], col[2])))
            for src, row, col in nest_reads
        ]
        rng.shuffle(args)
        text, plain = _render_nest(
            f"{label}{k}",
            names,
            [(_Index((), 0), _Index((), mi)), (_Index((), 0), _Index((), mj))],
            (own, (_Index((1, 0)), _Index((0, 1)))),
            "=",
            "compute",
            args,
            n,
        )
        chunks.append(text)
        nests.append(plain)
    return "\n".join(chunks), {}, nests, ()


def _render_hist2d(n: int, rng: random.Random) -> tuple:
    """Two sum passes into one histogram, the second fully reversed."""
    array, label, names = _names(rng)
    acc, a, b = f"{array}h", f"{array}a", f"{array}b"
    full = [(_Index((), 0), _Index((), 0, 1))] * 2
    fwd = (_Index((1, 0)), _Index((0, 1)))
    rev = (_Index((-1, 0), -1, 1), _Index((0, -1), -1, 1))
    passes = [(fwd, a), (rev, b)]
    chunks, nests = [], []
    for k, (widx, src) in enumerate(passes, start=1):
        text, plain = _render_nest(
            f"{label}{k}", names, full, (acc, widx), "+=", None,
            [(src, fwd)], n,
        )
        chunks.append(text)
        nests.append(plain)
    return "\n\n".join(chunks), {"N": n}, nests, (acc,)


def _render_stencil1d(n: int, rng: random.Random) -> tuple:
    """Two 3-point stencil sums into one accumulator, second reversed."""
    array, label, names = _names(rng)
    var = names[:1]
    acc, a, b = f"{array}t", f"{array}a", f"{array}b"
    inner = [(_Index((), 1), _Index((), -1, 1))]
    chunks, nests = [], []
    for k, (widx, src) in enumerate(
        [((_Index((1,)),), a), ((_Index((-1,), -1, 1),), b)], start=1
    ):
        args = [(src, (_Index((1,), d),)) for d in (-1, 0, 1)]
        rng.shuffle(args)
        text, plain = _render_nest(
            f"{label}{k}", var, inner, (acc, widx), "+=", "compute", args, n
        )
        chunks.append(text)
        nests.append(plain)
    return "\n\n".join(chunks), {"N": n}, nests, (acc,)


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    """Render workload ``name`` for ``seed`` (same seed, same bytes)."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    shapes = list(spec.shapes)
    rng.shuffle(shapes)
    cases = []
    for shape in shapes:
        n, coarsen = shape.n, shape.coarsen
        if tiny:
            n = TINY_N.get(shape.family, TINY_N_TABLE9)
            coarsen = min(coarsen, 8)
        if shape.family == "hist2d":
            rendered = _render_hist2d(n, rng)
        elif shape.family == "stencil1d":
            rendered = _render_stencil1d(n, rng)
        else:
            rendered = _render_table9(shape.family, n, rng)
        source, params, nests, accumulators = rendered
        cases.append(
            Case(
                id=f"{shape.family}@{n}",
                source=source,
                params=params,
                options={
                    "check": True,
                    "verify": True,
                    "exec_backend": "serial",
                    "workers": WORKERS,
                    "coarsen": coarsen,
                    "privatize": spec.privatize,
                },
                opaque=spec.opaque,
                nests=nests,
                accumulators=accumulators,
            )
        )
    client_seeds = tuple(rng.randrange(2**32) for _ in range(WORKERS))
    return Workload(spec, seed, cases, client_seeds)
