"""Validation of the paper's structural assumptions.

Section 4 of the paper assumes: the program is a sequence of for-loop
nests; an iteration may depend only on earlier iterations of its own nest
or on nests before it (guaranteed by construction for sequential programs);
and each statement's write relation is injective (no over-writes within one
statement's iteration domain).  :func:`validate_scop` checks what can be
violated and reports precise diagnostics.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` objects with
stable ``RPA01x`` rule codes and source spans threaded from the frontend
tokens, so :meth:`ValidationReport.raise_if_invalid` and the CLI show
*where* an assumption broke.  ``errors``/``warnings`` remain tuples of
rendered strings for backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import diagnostics as D
from ..analysis.diagnostics import Collector, DiagnosticReport
from .scop import Scop, ScopStatement


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of SCoP validation: hard errors and advisory warnings."""

    diagnostics: DiagnosticReport = DiagnosticReport()

    @property
    def ok(self) -> bool:
        return self.diagnostics.ok

    @property
    def errors(self) -> tuple[str, ...]:
        return tuple(d.render() for d in self.diagnostics.errors)

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(d.render() for d in self.diagnostics.warnings)

    def raise_if_invalid(self) -> None:
        if not self.ok:
            raise InvalidScopError("; ".join(self.errors))


class InvalidScopError(ValueError):
    """The SCoP violates an assumption the pipeline algorithm relies on."""


def validate_scop(
    scop: Scop,
    require_injective_writes: bool = True,
    file: str | None = None,
    reduction_waivers: frozenset[str] = frozenset(),
) -> ValidationReport:
    """Check the paper's preconditions on an extracted SCoP.

    ``reduction_waivers`` names statements proven (at the AST level) to
    be associative accumulations.  A non-injective write of a waived
    statement downgrades from the ``RPA013`` error to the ``RPA055``
    warning: privatizing the accumulator restores injectivity, so the
    over-write is benign for analysis, though the pipeline
    transformation itself still refuses such statements.
    """
    out = Collector(file)

    if not scop.statements:
        out.add(D.EMPTY_SCOP, "SCoP has no statements")

    for stmt in scop.statements:
        loc = stmt.assign.location
        if stmt.depth == 0:
            out.add(
                D.STATEMENT_OUTSIDE_LOOP,
                f"statement {stmt.name} has no enclosing loop",
                loc,
                hints=("wrap the statement in a for-loop nest",),
            )
            continue
        if len(stmt.writes) != 1:
            out.add(
                D.MULTIPLE_WRITES,
                f"statement {stmt.name} must have exactly one write "
                f"(found {len(stmt.writes)})",
                loc,
            )
        if len(stmt.points) == 0:
            out.add(
                D.EMPTY_DOMAIN,
                f"statement {stmt.name} has an empty domain",
                loc,
                hints=("check the loop bounds and --param values",),
            )
        if require_injective_writes and not _injective_write(scop, stmt):
            if stmt.name in reduction_waivers:
                out.add(
                    D.REDUCTION_ACCUMULATOR_WRITE,
                    f"write relation of statement {stmt.name} is not "
                    "injective, but the statement is a proven associative "
                    "accumulation — privatization restores injectivity",
                    stmt.assign.target.location or loc,
                    hints=(
                        "run `repro analyze --portfolio` for the "
                        "privatization proof",
                    ),
                )
            else:
                out.add(
                    D.NON_INJECTIVE_WRITE,
                    f"write relation of statement {stmt.name} is not "
                    "injective (the paper's transformation assumes no "
                    "over-writes)",
                    stmt.assign.target.location or loc,
                    hints=(
                        "use every enclosing loop variable in the write "
                        "subscripts",
                    ),
                )

    nests: dict[int, list[ScopStatement]] = {}
    for stmt in scop.statements:
        nests.setdefault(stmt.nest_index, []).append(stmt)
    for nest_index, stmts in nests.items():
        if len(stmts) > 1:
            out.add(
                D.MULTI_STATEMENT_NEST,
                f"nest {nest_index} holds {len(stmts)} statements; the "
                "prototype pipelines one statement per nest (Section 5.4)",
                stmts[0].assign.location,
            )

    return ValidationReport(out.report())


def _injective_write(scop: Scop, stmt: ScopStatement) -> bool:
    wr = scop.write_relation(stmt)
    if wr.is_empty():
        return True
    return wr.is_injective()
