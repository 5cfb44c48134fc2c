"""AST-level recognition of associative accumulation statements.

A *reduction update* is a statement whose only interaction with its
target array is a read-modify-write of the written cell through an
associative, commutative operator — the shape privatization and
reassociation legally reorder (Doerfert et al., "Polly's Polyhedral
Scheduling in the Presence of Reductions"):

* compound assignments ``T[..] += e`` / ``T[..] -= e`` (the sum group:
  any interleaving of additions and subtractions of independent terms
  commutes) and ``T[..] *= e`` (the product group);
* the explicit idioms ``T[..] = T[..] + e``, ``T[..] = e + T[..]``,
  ``T[..] = T[..] - e``, ``T[..] = T[..] * e``, ``T[..] = e * T[..]``;
* the min/max idioms ``T[..] = min(T[..], e)`` / ``T[..] = max(T[..], e)``
  (the DSL convention: functions named exactly ``min``/``max`` are the
  arithmetic minimum/maximum, see ``repro.interp.DEFAULT_FUNCS``).

``T[..] = e - T[..]`` is **not** a reduction: ``x -> b - x`` updates do
not commute (applying ``b1`` then ``b2`` yields ``b2 - b1 + x``, the
other order ``b1 - b2 + x``).  Neither are ``/=`` and ``%=``.

In every accepted form the update expression ``e`` must not read the
target array at all — a second read of the accumulator makes the update
a general recurrence, not a fold.

This module is purely syntactic (it only imports the language AST), so
both the linter and the SCoP-level portfolio passes can use it; the
instance-level consequences (which dependences the reduction carries)
live in :mod:`repro.analysis.portfolio.partition`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ...lang.ast import Assign, ArrayAccess, BinOp, Call, Expr, expr_reads


class ReductionGroup(enum.Enum):
    """The algebraic family of an accumulation operator.

    Updates of the *same* group on the *same* accumulator commute with
    each other; updates of different groups do not (``(x + a) * b`` is
    not ``x * b + a``), so only same-group dependences may be relaxed.
    """

    SUM = "sum"  # += , -= , = T + e , = e + T , = T - e
    PRODUCT = "product"  # *= , = T * e , = e * T
    MIN = "min"  # = min(T, e)
    MAX = "max"  # = max(T, e)


@dataclass(frozen=True)
class ReductionSpec:
    """One statement recognized as an associative accumulation."""

    statement: str
    #: the accumulator array (the statement's write target)
    array: str
    group: ReductionGroup
    #: the concrete operator spelled in the source (``+=``, ``min(...)``)
    operator: str

    def describe(self) -> str:
        return (
            f"{self.statement}: associative {self.group.value} reduction "
            f"over {self.array!r} ({self.operator})"
        )


#: Compound assignment operators that are associative accumulations.
_COMPOUND_GROUPS = {
    "+=": ReductionGroup.SUM,
    "-=": ReductionGroup.SUM,
    "*=": ReductionGroup.PRODUCT,
}

#: Call idioms recognized as folds (DSL convention, see module docstring).
_CALL_GROUPS = {
    "min": ReductionGroup.MIN,
    "max": ReductionGroup.MAX,
}


def reduction_update_spec(assign: Assign) -> ReductionSpec | None:
    """Match one statement against the reduction-update shapes.

    Returns ``None`` when the statement is not an associative
    accumulation — including the near-misses (``T = e - T``, an update
    expression reading the accumulator, ``/=``) that motivate the
    mutation tests.
    """
    target = assign.target
    array = target.array

    if assign.op != "=":
        group = _COMPOUND_GROUPS.get(assign.op)
        if group is None:
            return None  # /= , %= : not associative
        if _reads_array(assign.value, array):
            return None  # e.g. T[i] += T[i-1]: a recurrence, not a fold
        return ReductionSpec(assign.label, array, group, assign.op)

    value = assign.value
    if isinstance(value, BinOp) and value.op in ("+", "-", "*"):
        lhs_is_self = _is_same_access(value.lhs, target)
        rhs_is_self = _is_same_access(value.rhs, target)
        if lhs_is_self == rhs_is_self:
            # neither side is the target (plain assignment) or both are
            # (T = T + T doubles — not an accumulation of new terms)
            return None
        if value.op == "-" and rhs_is_self:
            return None  # T = e - T : updates do not commute
        other = value.rhs if lhs_is_self else value.lhs
        if _reads_array(other, array):
            return None
        group = (
            ReductionGroup.PRODUCT if value.op == "*" else ReductionGroup.SUM
        )
        return ReductionSpec(
            assign.label, array, group, f"= T {value.op} e"
        )

    if isinstance(value, Call) and value.func in _CALL_GROUPS:
        if len(value.args) != 2:
            return None
        self_args = [_is_same_access(a, target) for a in value.args]
        if sum(self_args) != 1:
            return None
        other = value.args[1] if self_args[0] else value.args[0]
        if _reads_array(other, array):
            return None
        return ReductionSpec(
            assign.label,
            array,
            _CALL_GROUPS[value.func],
            f"= {value.func}(T, e)",
        )

    return None


def find_reduction_specs(program_or_statements) -> dict[str, ReductionSpec]:
    """Specs for every reduction statement, keyed by statement label.

    Accepts a :class:`~repro.lang.ast.Program` or any iterable of
    :class:`~repro.lang.ast.Assign`.
    """
    statements = (
        program_or_statements.statements()
        if hasattr(program_or_statements, "statements")
        else program_or_statements
    )
    out: dict[str, ReductionSpec] = {}
    for stmt in statements:
        spec = reduction_update_spec(stmt)
        if spec is not None:
            out[stmt.label] = spec
    return out


# ----------------------------------------------------------------------
def _is_same_access(expr: Expr, target: ArrayAccess) -> bool:
    """Structural equality against the write access (same array, same
    subscript expressions — locations are excluded from AST equality)."""
    return (
        isinstance(expr, ArrayAccess)
        and expr.array == target.array
        and expr.indices == target.indices
    )


def _reads_array(expr: Expr, array: str) -> bool:
    return any(acc.array == array for acc in expr_reads(expr))
