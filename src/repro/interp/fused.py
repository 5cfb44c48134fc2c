"""Block kernels: one per statement, one function call per task.

At compile time every statement is lowered to a :class:`FusedKernel`:
a *declarative* :class:`ClosureSpec` (array refs, affine index maps per
dimension, assignment op, reduction identity if any) plus the code
generated from it, compiled on the kernel's first call.  The spec is the
source of truth: :func:`build_closure` reconstructs the kernel
deterministically from the spec alone, and ``FusedKernel`` pickles as
its spec (via ``__reduce__``), so the process pool ships data, not code
objects.

A kernel has up to two forms generated from the one spec.  The loop
form (:func:`loop_source`, a scalar loop nest over a rectangle) exists
for every statement.  The slice form (:func:`closure_source`, NumPy
slicing over the rectangle's bounds) exists when the gate of
:func:`repro.interp.compile.emit_closure_spec` admits it; the verdict
travels with the spec (:attr:`ClosureSpec.slice_form`), and every
refusal carries a stable ``RPA06x`` code so ``repro analyze --stats``
can explain coverage — a statement "runs fused" when its kernel has a
slice form.  ``fuse="off"`` asks the gate nothing and keeps the loop
form everywhere.  NumPy's per-call machinery only pays off beyond a
handful of points, so :meth:`FusedKernel.run_rects` runs each rectangle
of at most :data:`LOOP_FORM_POINTS` points in loop form even when a
slice form exists.  Both forms are bit-identical to the sequential
oracle; the batteries in ``tests/interp`` enforce it across
serial/threads/processes.

A block's iteration set is usually *not* a rectangle (pipeline blocks
are lexicographic intervals), so :func:`rectangles` decomposes it into
axis-aligned rectangles executed in lexicographic order — each
rectangle is a contiguous range of the lex-sorted iterations, which
preserves every dependence between rectangles, while within one
rectangle the loop form runs lexicographically and the gate makes
gather-before-scatter NumPy evaluation equal to it.  On top of single
statements, consecutive nests that the PR1 explainer proves
fusion-legal (:func:`fusion_legal_pair`, built on
``analysis.explain._fusion_violations``), that share one blocking and
whose kernels have slice forms are merged into a single chain kernel:
one task executes a block of *both* statements back to back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from ..lang.errors import SemanticError
from .store import ArrayStore

__all__ = [
    "LOOP_FORM_POINTS",
    "REDUCTION_IDENTITY",
    "ClosureSpec",
    "FuseEntry",
    "FusedKernel",
    "FusedProgram",
    "NotFusable",
    "StatementSpec",
    "build_closure",
    "chain_label",
    "closure_source",
    "fuse_scop",
    "fusion_legal_pair",
    "loop_source",
    "plan_chain_groups",
    "rectangles",
    "takes_loop_form",
]

#: Identity element of the reduction a compound assignment performs, when
#: the DSL op has one (``/=`` and ``%=`` do not reduce associatively).
REDUCTION_IDENTITY: dict[str, float] = {"+=": 0.0, "-=": 0.0, "*=": 1.0}


class NotFusable(Exception):
    """Statement (or chain) fails a fusion legality check.

    ``code`` is a stable RPA06x diagnostic code (see
    :mod:`repro.analysis.diagnostics`) so coverage reports can aggregate
    refusals by cause rather than by message text.
    """

    def __init__(self, reason: str, code: str):
        self.reason = reason
        self.code = code
        super().__init__(f"{code}: {reason}")


# ----------------------------------------------------------------------
# declarative closure specs
# ----------------------------------------------------------------------
#
# Expression nodes are nested plain tuples (JSON maps them to lists):
#
#   ("int", value)                     integer literal / folded parameter
#   ("iv", var)                        loop variable as a value
#   ("bin", op, lhs, rhs)              op already normalized ("/" -> "//")
#   ("access", array, dims)            dims: ((var|None, coeff, const), ...)
#                                      const pre-shifted by the array offset;
#                                      a coupled subscript (A[i+j]) appends
#                                      its further (var, coeff) terms
#   ("call", fname, (args...))         call to an elementwise function
#
# Everything is data — no AST nodes, no callables — so a spec serializes
# to JSON, hashes stably, and crosses process boundaries unchanged.

Node = tuple


@dataclass(frozen=True)
class StatementSpec:
    """Declarative form of one fused statement body."""

    name: str
    loop_vars: tuple[str, ...]
    op: str  # "=" or a compound op from COMPOUND_OPS
    write: Node  # ("access", array, dims) — the injective write
    rhs: Node
    reduction_identity: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "loop_vars": list(self.loop_vars),
            "op": self.op,
            "write": _node_to_json(self.write),
            "rhs": _node_to_json(self.rhs),
            "reduction_identity": self.reduction_identity,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "StatementSpec":
        return cls(
            name=d["name"],
            loop_vars=tuple(d["loop_vars"]),
            op=d["op"],
            write=_node_from_json(d["write"]),
            rhs=_node_from_json(d["rhs"]),
            reduction_identity=d.get("reduction_identity"),
        )


@dataclass(frozen=True)
class ClosureSpec:
    """Spec of a kernel: one statement, or a fusion-legal chain."""

    statements: tuple[StatementSpec, ...]
    #: the slice-form gate's verdict: False runs every rectangle in
    #: loop form (a gate refusal, or ``fuse="off"``)
    slice_form: bool = True

    def to_dict(self) -> dict:
        d: dict = {"statements": [s.to_dict() for s in self.statements]}
        if not self.slice_form:
            d["slice_form"] = False
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "ClosureSpec":
        return cls(
            tuple(StatementSpec.from_dict(s) for s in d["statements"]),
            bool(d.get("slice_form", True)),
        )


def _node_to_json(node: Node):
    kind = node[0]
    if kind == "int":
        return ["int", node[1]]
    if kind == "iv":
        return ["iv", node[1]]
    if kind == "bin":
        return ["bin", node[1], _node_to_json(node[2]), _node_to_json(node[3])]
    if kind == "access":
        return [
            "access", node[1],
            [[*d[:3], *(list(t) for t in d[3:])] for d in node[2]],
        ]
    if kind == "call":
        return ["call", node[1], [_node_to_json(a) for a in node[2]]]
    raise ValueError(f"unknown spec node {node!r}")


def _node_from_json(data) -> Node:
    kind = data[0]
    if kind == "int":
        return ("int", int(data[1]))
    if kind == "iv":
        return ("iv", data[1])
    if kind == "bin":
        return (
            "bin", data[1], _node_from_json(data[2]), _node_from_json(data[3])
        )
    if kind == "access":
        return (
            "access",
            data[1],
            tuple(
                (d[0], int(d[1]), int(d[2]), *(
                    (var, int(coeff)) for var, coeff in d[3:]
                ))
                for d in data[2]
            ),
        )
    if kind == "call":
        return ("call", data[1], tuple(_node_from_json(a) for a in data[2]))
    raise ValueError(f"unknown spec node {data!r}")


def chain_label(names: tuple[str, ...]) -> str:
    """Task-graph label of a fused chain (``S+T``)."""
    return "+".join(names)


# ----------------------------------------------------------------------
# deterministic closure generation (spec -> source -> callable)
# ----------------------------------------------------------------------
def _slice_text(
    dims: tuple, loop_vars: tuple[str, ...], array: str
) -> tuple[str, list[str]]:
    """``__arr_A[...]`` strided over the block bounds, plus the loop
    variable driving each sliced axis (in array-axis order).  A negative
    stride is the forward slice over the same cells with that axis
    reversed, a view: a negative step would stop at ``-1`` at cell 0."""
    parts: list[str] = []
    flips: list[str] = []
    axis_vars: list[str] = []
    for var, coeff, const in dims:
        if var is None:
            parts.append(str(const))
            continue
        axis_vars.append(var)
        p = loop_vars.index(var)
        first, last = ("__lo", "__hi") if coeff > 0 else ("__hi", "__lo")
        lo = f"{coeff}*{first}[{p}]{const:+d}" if const else (
            f"{coeff}*{first}[{p}]" if coeff != 1 else f"{first}[{p}]"
        )
        hi = f"{coeff}*{last}[{p}]{const + 1:+d}"
        step = f":{abs(coeff)}" if abs(coeff) != 1 else ""
        parts.append(f"{lo}:{hi}{step}")
        flips.append("::-1" if coeff < 0 else ":")
    code = f"__arr_{array}[{', '.join(parts)}]"
    if "::-1" in flips:
        code += f"[{', '.join(flips)}]"
    return code, axis_vars


def _access_slice(
    dims: tuple, loop_vars: tuple[str, ...], array: str
) -> str:
    """Slice text of a read aligned onto the canonical loop grid
    (absent loop variables broadcast via ``None`` axes)."""
    code, axis_vars = _slice_text(dims, loop_vars, array)
    present = tuple(v for v in loop_vars if v in axis_vars)
    perm = tuple(axis_vars.index(v) for v in present)
    if perm != tuple(range(len(perm))):
        code = f"{code}.transpose({perm})"
    if len(present) < len(loop_vars):
        sub = ", ".join(":" if v in present else "None" for v in loop_vars)
        code = f"{code}[{sub}]"
    return code


def _node_text(
    node: Node,
    loop_vars: tuple[str, ...],
    si: int,
    ivs_used: set[str],
) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "iv":
        ivs_used.add(node[1])
        return f"__iv{si}_{node[1]}"
    if kind == "bin":
        lhs = _node_text(node[2], loop_vars, si, ivs_used)
        rhs = _node_text(node[3], loop_vars, si, ivs_used)
        return f"({lhs} {node[1]} {rhs})"
    if kind == "access":
        return _access_slice(node[2], loop_vars, node[1])
    if kind == "call":
        args = ", ".join(
            _node_text(a, loop_vars, si, ivs_used) for a in node[2]
        )
        return f"__fn_{node[1]}({args})"
    raise ValueError(f"unknown spec node {node!r}")


def _spec_arrays(node: Node, out: set[str]) -> None:
    kind = node[0]
    if kind == "access":
        out.add(node[1])
    elif kind == "bin":
        _spec_arrays(node[2], out)
        _spec_arrays(node[3], out)
    elif kind == "call":
        for a in node[2]:
            _spec_arrays(a, out)


def _spec_funcs(node: Node, out: set[str]) -> None:
    kind = node[0]
    if kind == "call":
        out.add(node[1])
        for a in node[2]:
            _spec_funcs(a, out)
    elif kind == "bin":
        _spec_funcs(node[2], out)
        _spec_funcs(node[3], out)


def spec_arrays(spec: ClosureSpec) -> tuple[str, ...]:
    out: set[str] = set()
    for s in spec.statements:
        out.add(s.write[1])
        _spec_arrays(s.rhs, out)
    return tuple(sorted(out))


def spec_funcs(spec: ClosureSpec) -> tuple[str, ...]:
    out: set[str] = set()
    for s in spec.statements:
        _spec_funcs(s.rhs, out)
    return tuple(sorted(out))


def _kernel_name(spec: ClosureSpec, prefix: str) -> str:
    return prefix + "__".join(s.name for s in spec.statements)


def _prologue(spec: ClosureSpec, prefix: str) -> list[str]:
    """``def`` line plus the array and function bindings both kernel
    forms start with (bound once per call, not per point)."""
    lines = [
        f"def {_kernel_name(spec, prefix)}(__store, __funcs, __lo, __hi):"
    ]
    for arr in spec_arrays(spec):
        lines.append(f"    __arr_{arr} = __store.arrays[{arr!r}].data")
    for fname in spec_funcs(spec):
        lines.append(f"    __fn_{fname} = __funcs[{fname!r}]")
    return lines


def closure_source(spec: ClosureSpec) -> str:
    """Deterministic Python source of the fused closure for ``spec``.

    Purely a function of the spec (no live objects consulted), so
    spec → source → closure reconstruction is reproducible anywhere the
    spec can travel — the process pool's pickling contract.
    """
    lines = _prologue(spec, "__fused_")
    for si, stmt in enumerate(spec.statements):
        loop_vars = stmt.loop_vars
        ivs_used: set[str] = set()
        rhs = _node_text(stmt.rhs, loop_vars, si, ivs_used)
        _, write_array, write_dims = stmt.write
        if stmt.op != "=":
            lhs_read = _access_slice(write_dims, loop_vars, write_array)
            # compound op was normalized to its binary form at emit time
            rhs = f"{lhs_read} {stmt.op} ({rhs})"
        elif stmt.rhs[0] == "access" and stmt.rhs[1] == write_array:
            # bare same-array copy: materialize before assigning a view
            # onto itself (gather-before-scatter semantics)
            rhs = f"({rhs}).copy()"
        for var in sorted(ivs_used):
            p = loop_vars.index(var)
            sub = ", ".join(":" if v == var else "None" for v in loop_vars)
            lines.append(
                f"    __iv{si}_{var} = "
                f"__np.arange(__lo[{p}], __hi[{p}] + 1)[{sub}]"
            )
        lines.append(f"    __rhs{si} = {rhs}")
        # scatter: transpose the canonical grid into the write's axis order
        target, write_vars = _slice_text(write_dims, loop_vars, write_array)
        store_perm = tuple(loop_vars.index(v) for v in write_vars)
        rhs_out = f"__rhs{si}"
        if store_perm != tuple(range(len(store_perm))):
            # a permuted write needs the full grid materialized before
            # the transpose (a scalar or broadcast RHS has too few axes)
            lines.append(
                f"    __rhs{si} = __np.broadcast_to(__rhs{si}, "
                "tuple(h - l + 1 for l, h in zip(__lo, __hi)))"
            )
            rhs_out = f"__np.transpose(__rhs{si}, {store_perm})"
        lines.append(f"    {target} = {rhs_out}")
    return "\n".join(lines)


def _scalar_access(node: Node) -> str:
    """``__arr_A[2*i+1, 3]``: one cell, subscripts from the spec's dims."""
    parts: list[str] = []
    for var, coeff, const, *coupled in node[2]:
        if var is None:
            parts.append(str(const))
            continue
        term = var if coeff == 1 else f"{coeff}*{var}"
        for v, c in coupled:
            term += f"+{v}" if c == 1 else f"{c:+d}*{v}"
        parts.append(f"{term}{const:+d}" if const else term)
    return f"__arr_{node[1]}[{', '.join(parts)}]"


def _scalar_text(node: Node) -> str:
    kind = node[0]
    if kind == "int":
        return str(node[1])
    if kind == "iv":
        return node[1]
    if kind == "bin":
        return f"({_scalar_text(node[2])} {node[1]} {_scalar_text(node[3])})"
    if kind == "access":
        return _scalar_access(node)
    if kind == "call":
        args = ", ".join(_scalar_text(a) for a in node[2])
        return f"__fn_{node[1]}({args})"
    raise ValueError(f"unknown spec node {node!r}")


def loop_source(spec: ClosureSpec) -> str:
    """Deterministic Python source of the *loop form* of ``spec``.

    The form every spec has, with the signature of
    :func:`closure_source`, computed one point at a time: per statement
    — statement-major, the order the slice form runs a chain in — one
    ``for`` per loop variable over the rectangle's inclusive bounds
    around a single scalar assignment, i.e. the rectangle in program
    order.  The gate that admits a statement to the slice form
    (injective write, no flow self-dependence, elementwise calls) is
    what makes gather-before-scatter equal to this lexicographic scalar
    execution, so where both exist the two forms are interchangeable
    per rectangle.  Like the slice form it is a function of the spec
    alone.
    """
    lines = _prologue(spec, "__loop_")
    for stmt in spec.statements:
        indent = "    "
        for p, var in enumerate(stmt.loop_vars):
            lines.append(
                f"{indent}for {var} in __range(__lo[{p}], __hi[{p}] + 1):"
            )
            indent += "    "
        target = _scalar_access(stmt.write)
        rhs = _scalar_text(stmt.rhs)
        if stmt.op != "=":
            # compound op was normalized to its binary form at emit time
            rhs = f"{target} {stmt.op} ({rhs})"
        lines.append(f"{indent}{target} = {rhs}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# rectangle decomposition
# ----------------------------------------------------------------------
def rectangles(
    iters: np.ndarray,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition an iteration set into axis-aligned rectangles.

    Returns inclusive ``(lo, hi)`` bounds covering ``iters`` exactly, in
    lexicographic order; every rectangle is a contiguous range of the
    lex-sorted iterations (so executing them in order preserves every
    anti-dependence between rectangles).
    """
    iters = np.asarray(iters, dtype=np.int64)
    if iters.ndim != 2:
        raise ValueError("iterations must be a (count, depth) array")
    n, d = iters.shape
    if n == 0:
        return []
    if n == 1:  # a single iteration is its own rectangle
        row = tuple(iters[0].tolist())
        return [(row, row)]
    lo, hi = iters.min(axis=0), iters.max(axis=0)
    if n == int(np.prod(hi - lo + 1)):  # dense bounding box
        return [(tuple(int(v) for v in lo), tuple(int(v) for v in hi))]

    order = np.lexsort(iters.T[::-1])
    iters = iters[order]
    # Runs along the innermost dimension: break where the outer prefix
    # changes or the inner coordinate jumps.
    if d > 1:
        prefix_change = np.any(np.diff(iters[:, :-1], axis=0) != 0, axis=1)
    else:
        prefix_change = np.zeros(n - 1, dtype=bool)
    inner_jump = np.diff(iters[:, -1]) != 1
    breaks = np.flatnonzero(prefix_change | inner_jump) + 1
    starts = np.concatenate([[0], breaks])
    stops = np.concatenate([breaks, [n]])

    rects: list[tuple[np.ndarray, np.ndarray]] = []
    for s, e in zip(starts, stops):
        r_lo, r_hi = iters[s].copy(), iters[e - 1].copy()
        # Merge with the previous rectangle when only the second-innermost
        # coordinate advanced by one and the inner run is identical — turns
        # the interior of a lex interval into a single 2-d rectangle.
        if rects and d >= 2:
            p_lo, p_hi = rects[-1]
            if (
                r_lo[d - 2] == r_hi[d - 2] == p_hi[d - 2] + 1
                and np.array_equal(p_lo[: d - 2], r_lo[: d - 2])
                and np.array_equal(p_lo[: d - 2], p_hi[: d - 2])
                and p_lo[d - 1] == r_lo[d - 1]
                and p_hi[d - 1] == r_hi[d - 1]
            ):
                p_hi[d - 2] = r_lo[d - 2]
                continue
        rects.append((r_lo, r_hi))
    return [
        (tuple(int(v) for v in lo), tuple(int(v) for v in hi))
        for lo, hi in rects
    ]


#: Largest rectangle, in points, that runs the loop form of a kernel:
#: the largest count at which the loop form wins on every body of the
#: crossover table ``tools/kernel_crossover.py`` prints (``make
#: crossover``; table in docs/performance.md, "Grain-aware block
#: kernels").  Taken on the 2-core Intel Xeon @ 2.10GHz sandbox, CPython
#: 3.11.7, NumPy 2.4.6: a slice-form statement costs 1.4-13 us whatever
#: the size, a loop-form point 0.25-2.2 us; the cheapest bodies (``B+C``,
#: ``H += A``) cross first, between 3 and 4 points, the ``_mix`` bodies
#: at 6-8.
LOOP_FORM_POINTS = 3


def takes_loop_form(lo: tuple[int, ...], hi: tuple[int, ...]) -> bool:
    """True when the inclusive rectangle ``(lo, hi)`` holds at most
    :data:`LOOP_FORM_POINTS` points."""
    points = 1
    for l, h in zip(lo, hi):
        points *= h - l + 1
    return points <= LOOP_FORM_POINTS


@dataclass(eq=False)
class FusedKernel:
    """The kernel of a statement (or chain): its spec, and each form
    compiled from it on first use (racing first users may each compile
    it; the last one stored wins).  Pickled as the spec, so a receiving
    process rebuilds it and code objects never cross the wire."""

    spec: ClosureSpec

    @cached_property
    def source(self) -> str | None:
        """Slice-form source (None: no slice form)."""
        return closure_source(self.spec) if self.spec.slice_form else None

    @cached_property
    def fn(self) -> Callable | None:
        """Slice form (None: no slice form)."""
        if self.source is not None:
            return _compile(self.source, _kernel_name(self.spec, "__fused_"))

    @cached_property
    def loop_fn(self) -> Callable:
        """Loop form of the same spec."""
        return _compile(
            loop_source(self.spec), _kernel_name(self.spec, "__loop_")
        )

    def run_rects(
        self,
        store: ArrayStore,
        funcs: Mapping[str, Callable],
        rects,
    ) -> None:
        """Execute ``(lo, hi)`` rectangles, the one place a kernel form is
        chosen: the slice form when there is one and the rectangle holds
        more than :data:`LOOP_FORM_POINTS` points, else the loop form."""
        for lo, hi in rects:
            if self.spec.slice_form and not takes_loop_form(lo, hi):
                self.fn(store, funcs, lo, hi)
            else:
                self.loop_fn(store, funcs, lo, hi)

    def __call__(self, store, funcs, iterations) -> None:
        iters = np.asarray(iterations, dtype=np.int64)
        if iters.size == 0:
            return
        self.run_rects(store, funcs, rectangles(iters))

    def __reduce__(self):
        return (build_closure, (self.spec,))


def _compile(source: str, fn_name: str) -> Callable:
    namespace: dict[str, object] = {"__np": np, "__range": range}
    exec(source, namespace)  # noqa: S102 - compiling our own spec
    # popped: left in its own globals, the function is a reference cycle
    return namespace.pop(fn_name)


def build_closure(spec: ClosureSpec) -> FusedKernel:
    """The kernel of a declarative spec (both forms compiled on first
    use)."""
    return FusedKernel(spec)


# ----------------------------------------------------------------------
# whole-SCoP fusion plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuseEntry:
    """Kernel of one statement, and why it has no slice form."""

    statement: str
    kernel: FusedKernel
    reason: str | None  # slice-form refusal (None: admitted, or fuse off)
    code: str | None  # RPA06x code of the refusal


@dataclass
class FusedProgram:
    """The kernel of every statement of one SCoP, plus registered chains."""

    entries: dict[str, FuseEntry]
    chains: dict[str, FusedKernel] = field(default_factory=dict)
    #: :func:`fusion_legal_pair` verdicts by ``(src, tgt)`` statement
    #: names.  A verdict is a function of the SCoP alone, so it is
    #: decided once, travels with the plan (:meth:`to_dict`) and a warm
    #: process asks no Presburger question when it plans its chains.
    legal_pairs: dict[tuple[str, str], bool] = field(default_factory=dict)

    def fusion_legal(self, scop, src, tgt) -> bool:
        """Memoized :func:`fusion_legal_pair` of two statements."""
        key = (src.name, tgt.name)
        verdict = self.legal_pairs.get(key)
        if verdict is None:
            verdict = self.legal_pairs[key] = fusion_legal_pair(
                scop, src, tgt
            )
        return verdict

    def get(self, statement: str) -> FusedKernel | None:
        """The kernel of a statement or a registered chain label."""
        entry = self.entries.get(statement)
        if entry is not None:
            return entry.kernel
        return self.chains.get(statement)

    def spec(self, statement: str) -> ClosureSpec | None:
        kernel = self.get(statement)
        return kernel.spec if kernel is not None else None

    def add_chain(self, label: str, kernel: FusedKernel) -> None:
        self.chains[label] = kernel

    def fallbacks(self) -> dict[str, dict[str, str]]:
        """``{statement: {"reason": ..., "code": RPA06x}}`` for refusals."""
        return {
            name: {"reason": e.reason, "code": e.code}
            for name, e in self.entries.items()
            if e.code is not None
        }

    def to_dict(self) -> dict:
        """JSON-ready form: specs and refusal records, no code objects.

        The declarative :class:`ClosureSpec` is already the pickling
        contract of the process pool; the same specs are the durable
        artifact format of the compile store.  :meth:`from_dict`
        rebuilds every kernel from its spec with :func:`build_closure`
        (its code is compiled when a replay first calls it).
        """
        return {
            "entries": {
                name: {
                    "spec": e.kernel.spec.to_dict(),
                    "reason": e.reason,
                    "code": e.code,
                }
                for name, e in sorted(self.entries.items())
            },
            "chains": {
                label: kernel.spec.to_dict()
                for label, kernel in sorted(self.chains.items())
            },
            "legal_pairs": [
                [src, tgt, verdict]
                for (src, tgt), verdict in sorted(self.legal_pairs.items())
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FusedProgram":
        entries = {
            name: FuseEntry(
                name,
                build_closure(ClosureSpec.from_dict(rec["spec"])),
                rec["reason"],
                rec["code"],
            )
            for name, rec in d["entries"].items()
        }
        chains = {
            label: build_closure(ClosureSpec.from_dict(spec))
            for label, spec in d["chains"].items()
        }
        legal_pairs = {
            (src, tgt): bool(verdict)
            for src, tgt, verdict in d["legal_pairs"]
        }
        return cls(entries, chains, legal_pairs)

    def require_full(self) -> None:
        """Raise SemanticError unless every statement fused (mode=on)."""
        bad = self.fallbacks()
        if bad:
            detail = "; ".join(
                f"{s}: [{v['code']}] {v['reason']}"
                for s, v in sorted(bad.items())
            )
            raise SemanticError(
                f"--fuse on: {len(bad)} statement(s) cannot be fused "
                f"({detail})"
            )


def fuse_scop(
    scop, funcs: Mapping[str, Callable] | None = None, gate: bool = True
) -> FusedProgram:
    """Build the kernel of every statement of a SCoP; ``gate=False``
    (``fuse="off"``) gives every kernel the loop form only and asks the
    slice-form gate nothing."""
    from ..obs.spans import span
    from .compile import emit_closure_spec

    entries: dict[str, FuseEntry] = {}
    with span("compile.fuse"):
        for stmt in scop.statements:
            spec, refusal = emit_closure_spec(scop, stmt, funcs, gate)
            kernel = build_closure(
                ClosureSpec((spec,), gate and refusal is None)
            )
            entries[stmt.name] = FuseEntry(
                stmt.name,
                kernel,
                refusal.reason if refusal is not None else None,
                refusal.code if refusal is not None else None,
            )
    return FusedProgram(entries)


# ----------------------------------------------------------------------
# chain fusion (block-chains the PR1 explainer proves legal)
# ----------------------------------------------------------------------
def fusion_legal_pair(scop, src, tgt) -> bool:
    """True when fusing the two nests reorders no dependence.

    Delegates to the PR1 explainer's ``_fusion_violations`` over every
    dependence kind — the same Presburger evidence ``repro analyze``
    prints when it classifies a nest pair fusion-legal.
    """
    from ..analysis.explain import _fusion_violations
    from ..scop.deps import DepKind, dependence_relation

    rels = {
        kind: dependence_relation(scop, src, tgt, kind) for kind in DepKind
    }
    return not _fusion_violations(scop, src, tgt, rels)


def plan_chain_groups(scop, ast, program: FusedProgram):
    """Group consecutive task nests into fusion-legal chains.

    Returns ``(groups, chain_kernels)`` where ``groups`` is a list of
    lists of nest indices into ``ast.arrays`` (singletons execute as
    before; longer groups merge into one task stream) and
    ``chain_kernels`` maps chain labels to their merged
    :class:`FusedKernel` (also registered on ``program`` so worker
    processes can look them up by label).

    A nest joins the current group only when every condition that makes
    the merge observationally equivalent holds.  The structural ones are
    evaluated against the AST's arrays on every call; the
    ``fusion_legal_pair`` verdict depends on the SCoP only and is
    memoized on ``program`` (:meth:`FusedProgram.fusion_legal`), so a
    plan loaded from the store answers it from its table:

    * all members are ``chained`` (the merged stream is one self chain)
      and their kernels have slice forms;
    * identical blocking — the same shape table and bit-identical flat
      iterations over the two nests, so one rectangle decomposition
      serves all members and chain tasks stay lex-contiguous;
    * ``fusion_legal_pair`` with every existing member — no dependence
      forces a later member's instance before an earlier member's;
    * every token a joining nest consumes from a member resolves at the
      same (or an earlier) block index — same-index work runs inside the
      merged task, earlier indices are ordered by the chain's self-chain;
    * tokens of every non-last member are consumed only inside the group
      (the merged task publishes only the last member's token, so an
      outside consumer would lose its ordering edge).
    """
    from ..schedule.astgen import csr_rows

    a = ast.arrays
    names = a.statements
    member_specs: dict[int, StatementSpec] = {}
    for k, name in enumerate(names):
        entry = program.entries.get(name)
        if entry is not None and entry.kernel.spec.slice_form:
            member_specs[k] = entry.kernel.spec.statements[0]

    # per token: the producer's nest and block index, the consumer's
    nest_of, consumer = csr_rows(a.starts), csr_rows(a.indptr)
    prod_nest, cons_nest = nest_of[a.indices], nest_of[consumer]
    prod_index = a.indices - a.starts[prod_nest]
    cons_index = consumer - a.starts[cons_nest]
    consumers: dict[int, set[int]] = {}
    for p, c in set(zip(prod_nest.tolist(), cons_nest.tolist())):
        if p != c:
            consumers.setdefault(p, set()).add(c)

    stmt_of = {s.name: s for s in scop.statements}

    def blocking(k: int):
        """Nest ``k``'s shape rows and flat iterations."""
        lo, hi = a.starts[k], a.starts[k + 1]
        return a.shapes[lo:hi], a.flat[a.offsets[lo] : a.offsets[hi]]

    def mergeable(group, nxt) -> bool:
        if not (a.chained[group[0]] and a.chained[nxt]):
            return False
        if any(k not in member_specs for k in (*group, nxt)):
            return False
        if not all(map(np.array_equal, blocking(group[0]), blocking(nxt))):
            return False
        # tokens of nxt from a member: producer index <= consumer index
        from_member = (cons_nest == nxt) & np.isin(prod_nest, group)
        if np.any(prod_index[from_member] > cons_index[from_member]):
            return False
        # the one Presburger question, asked last and answered from the
        # plan's verdict table when it has been decided before
        return all(
            program.fusion_legal(
                scop, stmt_of[names[k]], stmt_of[names[nxt]]
            )
            for k in group
        )

    def build(run: list) -> list[list]:
        groups: list[list] = []
        i = 0
        while i < len(run):
            group = [run[i]]
            j = i + 1
            while j < len(run) and mergeable(group, run[j]):
                group.append(run[j])
                j += 1
            # trim: a non-last member whose token leaks outside the group
            # must end its group (the merged task only publishes the last
            # member's token); split trailing members off and regroup them
            rest: list = []
            while len(group) > 1:
                leaky = any(
                    consumers.get(k, set()) - set(group) for k in group[:-1]
                )
                if not leaky:
                    break
                rest.insert(0, group.pop())
            groups.append(group)
            if rest:
                groups.extend(build(rest))
            i = j
        return groups

    try:
        groups = build(list(range(len(names))))
    finally:
        del build  # it names itself: a cycle holding the plan's tables

    chain_kernels: dict[str, FusedKernel] = {}
    for group in groups:
        if len(group) < 2:
            continue
        label = chain_label(tuple(names[k] for k in group))
        spec = ClosureSpec(tuple(member_specs[k] for k in group))
        kernel = program.chains.get(label)
        if kernel is None or kernel.spec != spec:
            kernel = build_closure(spec)
            program.add_chain(label, kernel)
        chain_kernels[label] = kernel
    return groups, chain_kernels
