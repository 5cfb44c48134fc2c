"""The sequential oracle, and the one lowering of statements to kernels.

:func:`compile_program` translates the whole program into one Python
function, loop for loop: the sequential oracle every replay is compared
against, and the only code generated from the AST.  The second half of
the module lowers each statement to a declarative spec
(:func:`emit_closure_spec`) — the one body every block of that
statement runs, through :mod:`repro.interp.fused` — and holds the gate
that decides whether the spec also has a slice form.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..lang.ast import (
    ArrayAccess,
    BinOp,
    Call,
    Expr,
    IntLit,
    Loop,
    Program,
    VarRef,
)
from ..lang.errors import SemanticError
from ..lang.tokens import ASSIGN_OPS
from ..scop import Scop, ScopStatement
from ..scop.deps import DepKind, dependence_relation
from ..scop.extract import to_affine
from .fused import REDUCTION_IDENTITY, NotFusable, StatementSpec

#: Compound-assignment operators and the Python operator each expands
#: to, from the language's one table (``ASSIGN_OPS``).  ``/=`` floors
#: like every division in the DSL (``_expr_to_py`` maps ``/`` to ``//``
#: as well), keeping value semantics uniform.
COMPOUND_OPS: dict[str, str] = {
    op: "//" if binop == "/" else binop
    for op, binop in ASSIGN_OPS.items()
    if binop is not None
}


def _expr_to_py(
    expr: Expr,
    loop_vars: set[str],
    params: Mapping[str, int],
    offsets: Mapping[str, tuple[int, ...]],
    funcs: set[str],
) -> tuple[str, bool]:
    """``(source, valued)``: ``expr`` as Python source over list-bound
    arrays (``__arr_A[i][j]``), and whether it is array- or call-valued.
    Index-only arithmetic stays plain Python ``int``; a ``/`` or ``%``
    with a valued operand goes through :func:`_floordiv` /
    :func:`_remainder`, which give a zero divisor NumPy's result."""
    if isinstance(expr, IntLit):
        return str(expr.value), False
    if isinstance(expr, VarRef):
        if expr.name in loop_vars:
            return expr.name, False
        if expr.name in params:
            return str(params[expr.name]), False
        raise SemanticError(f"unknown variable {expr.name!r}", expr.location)
    if isinstance(expr, BinOp):
        lhs, lval = _expr_to_py(expr.lhs, loop_vars, params, offsets, funcs)
        rhs, rval = _expr_to_py(expr.rhs, loop_vars, params, offsets, funcs)
        valued = lval or rval
        op = "//" if expr.op == "/" else expr.op
        if valued and op in _ZERO_DIVISOR_HELPERS:
            return f"{_ZERO_DIVISOR_HELPERS[op]}({lhs}, {rhs})", True
        return f"({lhs} {op} {rhs})", valued
    if isinstance(expr, ArrayAccess):
        idx = []
        offs = offsets[expr.array]
        for k, e in enumerate(expr.indices):
            sub, _ = _expr_to_py(e, loop_vars, params, offsets, funcs)
            off = offs[k]
            idx.append(f"[({sub}) - ({off})]" if off else f"[{sub}]")
        return f"__arr_{expr.array}{''.join(idx)}", True
    if isinstance(expr, Call):
        funcs.add(expr.func)
        args = ", ".join(
            _expr_to_py(a, loop_vars, params, offsets, funcs)[0]
            for a in expr.args
        )
        return f"__fn_{expr.func}({args})", True
    raise SemanticError(f"cannot compile expression {expr!r}")


def _floordiv(a, b):
    """``a // b`` as ``float64`` computes it: Python's float ``//`` is
    bit-identical except that a zero divisor raises, where NumPy returns
    ``±inf``/``nan`` (and warns).  Two ints still raise, as they do in
    a ``float64`` program."""
    try:
        return a // b
    except ZeroDivisionError:
        if isinstance(a, int) and isinstance(b, int):
            raise
        return np.float64(a) // np.float64(b)


def _remainder(a, b):
    """``a % b`` as ``float64`` computes it (see :func:`_floordiv`)."""
    try:
        return a % b
    except ZeroDivisionError:
        if isinstance(a, int) and isinstance(b, int):
            raise
        return np.float64(a) % np.float64(b)


#: The Python operators whose valued form needs a zero-divisor helper.
_ZERO_DIVISOR_HELPERS = {"//": "__floordiv", "%": "__remainder"}


def _float64_args(fn: Callable, exact: Callable) -> Callable:
    """``fn`` as the oracle calls it: itself when it computes the same
    bits on a Python float as on a ``float64`` (``exact`` — the default
    ``_mix`` — and NumPy ufuncs), else a wrapper that passes each
    Python float argument as ``np.float64``, what ``fn`` sees in every
    kernel."""
    if fn is exact or isinstance(fn, np.ufunc):
        return fn
    f64 = np.float64

    def call(*args):
        return fn(*[f64(a) if type(a) is float else a for a in args])

    return call


def array_offsets(scop: Scop) -> dict[str, tuple[int, ...]]:
    """Per-array index offsets (the low corner of each array's extent)."""
    return {
        name: tuple(lo for lo, _ in scop.array_extent(name))
        for name in scop.arrays
    }


def _binop(stmt: ScopStatement) -> str:
    """``"="``, or the binary operator a compound assignment expands to."""
    op = stmt.assign.op
    if op == "=":
        return op
    try:
        return COMPOUND_OPS[op]
    except KeyError:
        raise SemanticError(
            f"unsupported assignment operator {op!r} "
            f"in statement {stmt.name}; supported: "
            f"=, {', '.join(sorted(COMPOUND_OPS))}",
            stmt.assign.location,
        ) from None


def _assignment_text(
    scop: Scop,
    stmt: ScopStatement,
    offsets: Mapping[str, tuple[int, ...]],
    func_names: set[str],
) -> str:
    """``lhs = float(rhs)`` of one statement instance as Python source
    over its loop variables (functions called are added to
    ``func_names``)."""
    loop_vars = set(stmt.space.dims)
    lhs, _ = _expr_to_py(
        stmt.assign.target, loop_vars, scop.params, offsets, func_names
    )
    rhs, _ = _expr_to_py(
        stmt.assign.value, loop_vars, scop.params, offsets, func_names
    )
    binop = _binop(stmt)
    if binop in _ZERO_DIVISOR_HELPERS:  # the target is array-valued
        rhs = f"{_ZERO_DIVISOR_HELPERS[binop]}({lhs}, {rhs})"
    elif binop != "=":
        rhs = f"{lhs} {binop} ({rhs})"
    return f"{lhs} = __float({rhs})"


def compile_program(program: Program, scop: Scop) -> Callable:
    """The whole program as one Python function ``(store, funcs) ->
    store``: the sequential oracle.

    Mirrors ``program.nests`` loop for loop — imperfect nests keep their
    interleaving, inner bounds may use outer loop variables, ``<=``
    bounds run one further — with bounds and bodies through
    :func:`_expr_to_py`, the module's AST translator.  Deliberately not
    built from closure specs: the oracle shares no code generator with
    the kernels it is compared against.

    It computes on Python floats, not NumPy scalars: each array is bound
    as ``data.tolist()`` (a subscript is one list index per dimension),
    every stored value is wrapped in ``float()``, and each written array
    is copied back with one ``data[...] = rows`` when the program
    returns — a program that raises leaves ``store`` untouched.  Python's
    float ``+ - * // %`` are the IEEE ``float64`` operations, so the
    arrays are bit-identical to a NumPy-scalar run; the zero divisor,
    where Python raises, goes through :func:`_floordiv` /
    :func:`_remainder`.  Functions see what they see in the kernels
    (:func:`_float64_args`, decided once per call).
    """
    from .interp import _mix  # interp imports this module

    offsets = array_offsets(scop)
    func_names: set[str] = set()
    written: set[str] = set()
    body: list[str] = []

    def bound(expr: Expr, enclosing: set[str]) -> str:
        return _expr_to_py(
            expr, enclosing, scop.params, offsets, func_names
        )[0]

    def emit(loop: Loop, enclosing: set[str], indent: str) -> None:
        lower = bound(loop.lower, enclosing)
        upper = bound(loop.upper, enclosing)
        if not loop.upper_strict:
            upper = f"{upper} + 1"
        body.append(f"{indent}for {loop.var} in __range({lower}, {upper}):")
        indent += "    "
        for item in loop.body:
            if isinstance(item, Loop):
                emit(item, enclosing | {loop.var}, indent)
            else:
                stmt = scop.statement(item.label)
                written.add(stmt.assign.target.array)
                body.append(indent + _assignment_text(
                    scop, stmt, offsets, func_names
                ))
        if not loop.body:
            body.append(f"{indent}pass")

    try:
        for nest in program.nests:
            emit(nest, set(), "    ")
    finally:
        del emit  # it names itself: a cycle holding the SCoP
    lines = ["def __program(__store, __funcs):"]
    lines += [
        f"    __arr_{arr} = __store.arrays[{arr!r}].data.tolist()"
        for arr in sorted(scop.arrays)
    ] + [
        f"    __fn_{fname} = __float64_args(__funcs[{fname!r}], __mix)"
        for fname in sorted(func_names)
    ]
    lines += body
    lines += [
        f"    __store.arrays[{arr!r}].data[...] = __arr_{arr}"
        for arr in sorted(written)
    ]
    lines.append("    return __store")
    namespace: dict[str, object] = {
        "__range": range,
        "__float": float,
        "__floordiv": _floordiv,
        "__remainder": _remainder,
        "__float64_args": _float64_args,
        "__mix": _mix,
    }
    exec("\n".join(lines), namespace)  # noqa: S102 - compiling our own AST
    # popped: left in its own globals, the function is a reference cycle
    return namespace.pop("__program")


# ----------------------------------------------------------------------
# statement specs and the slice-form gate
# ----------------------------------------------------------------------
def elementwise(fn: Callable) -> Callable:
    """Mark ``fn`` as safe to call with (broadcastable) array arguments."""
    fn.elementwise = True  # type: ignore[attr-defined]
    return fn


def is_elementwise(fn: object) -> bool:
    return isinstance(fn, np.ufunc) or bool(getattr(fn, "elementwise", False))


def has_flow_self_dependence(scop: Scop, stmt: ScopStatement) -> bool:
    """Presburger check: does any iteration read a value a *different*
    iteration of the same statement wrote?  Such a recurrence forbids
    whole-block execution — the block would observe pre-block values
    under gather-before-scatter (anti self-dependences are fine for the
    same reason: every read is gathered before the write scatters)."""
    return not dependence_relation(scop, stmt, stmt, DepKind.FLOW).is_empty()


def emit_closure_spec(
    scop: Scop, stmt: ScopStatement, funcs=None, gate: bool = True
) -> tuple[StatementSpec, NotFusable | None]:
    """Lower one statement into its declarative spec, and decide whether
    the spec also has a slice form.

    Every statement has a spec, so every statement has a loop form (the
    spec's scalar loop nest, :func:`~repro.interp.fused.loop_source`).
    Returns ``(spec, refusal)``: ``refusal`` is None when the spec also
    has a slice form, else the first check of the slice-form gate that
    fails, a :class:`~repro.interp.fused.NotFusable` with a stable RPA06x
    code so coverage reports aggregate by cause:

    * every subscript has **at most one loop variable per array
      dimension** (RPA062 — ``A[2*i+1][j]`` and ``A[N-1-i][j]`` have a
      slice form, ``A[i+j][j]`` does not);
    * no loop variable appears in two dimensions of one access (RPA064 —
      ``A[i][i]`` diagonals have no slice form);
    * the **write** uses every loop variable, so distinct iterations
      write distinct cells (RPA065 — no scatter collisions);
    * the statement carries **no flow self-dependence** (RPA066, see
      :func:`has_flow_self_dependence`);
    * every opaque ``Call`` resolves to an *elementwise* function
      (RPA067 — ``fn.elementwise = True`` or a ``numpy.ufunc``; an
      arbitrary Python function cannot be assumed to map over arrays).

    ``gate=False`` (``fuse="off"``) runs no check — no Presburger
    question either — and returns no refusal; the caller then keeps the
    loop form everywhere.  The spec is pure data: building the kernel
    from it is :func:`~repro.interp.fused.build_closure`'s job.
    """
    loop_vars = tuple(stmt.space.dims)
    var_set = set(loop_vars)
    params = scop.params
    offsets = array_offsets(scop)
    refusals: list[NotFusable] = []

    def refuse(reason: str, code: str) -> None:
        if gate and not refusals:
            refusals.append(NotFusable(reason, code))

    if not loop_vars:
        refuse("statement has no loop dimensions", "RPA060")
    assign_op = _binop(stmt)

    def access_dims(acc: ArrayAccess) -> tuple:
        dims: list[tuple] = []
        seen: set[str] = set()
        for k, idx in enumerate(acc.indices):
            form = to_affine(idx, var_set, params)
            const = form.const - offsets[acc.array][k]
            terms = sorted(form.coeffs, key=lambda t: loop_vars.index(t[0]))
            if not terms:
                dims.append((None, 0, const))
                continue
            # a coupled subscript's further terms follow the constant
            (var, coeff), *coupled = terms
            if coupled:
                refuse(
                    f"coupled subscript {idx} of {acc.array!r} "
                    "(two loop variables in one dimension)",
                    "RPA062",
                )
            if var in seen:
                refuse(
                    f"loop variable {var!r} repeated across dimensions "
                    f"of {acc.array!r} (diagonal access)",
                    "RPA064",
                )
            seen.add(var)
            dims.append((var, coeff, const, *coupled))
        return tuple(dims)

    write_dims = access_dims(stmt.assign.target)
    missing = var_set - {d[0] for d in write_dims}
    if missing:
        refuse(
            f"write to {stmt.assign.target.array!r} does not use loop "
            f"variable(s) {sorted(missing)} (non-injective scatter)",
            "RPA065",
        )

    if gate and not refusals and has_flow_self_dependence(scop, stmt):
        refuse(
            "flow self-dependence (recurrence) — block must run scalar",
            "RPA066",
        )

    func_names: set[str] = set()

    def node(expr: Expr) -> tuple:
        if isinstance(expr, IntLit):
            return ("int", expr.value)
        if isinstance(expr, VarRef):
            if expr.name in var_set:
                return ("iv", expr.name)
            if expr.name in params:
                return ("int", params[expr.name])
            raise SemanticError(
                f"unknown variable {expr.name!r}", expr.location
            )
        if isinstance(expr, BinOp):
            op = "//" if expr.op == "/" else expr.op
            return ("bin", op, node(expr.lhs), node(expr.rhs))
        if isinstance(expr, ArrayAccess):
            return ("access", expr.array, access_dims(expr))
        if isinstance(expr, Call):
            func_names.add(expr.func)
            return ("call", expr.func, tuple(node(a) for a in expr.args))
        raise SemanticError(f"cannot compile expression {expr!r}")

    try:
        rhs = node(stmt.assign.value)
    finally:
        del node  # it names itself: a cycle holding the spec's closures

    if funcs is not None:
        for fname in sorted(func_names):
            fn = funcs.get(fname)
            if fn is None or not is_elementwise(fn):
                refuse(
                    f"opaque call to non-elementwise function {fname!r}",
                    "RPA067",
                )

    spec = StatementSpec(
        name=stmt.name,
        loop_vars=loop_vars,
        op=assign_op,
        write=("access", stmt.assign.target.array, write_dims),
        rhs=rhs,
        reduction_identity=REDUCTION_IDENTITY.get(stmt.assign.op),
    )
    return spec, refusals[0] if refusals else None
