"""The analysis driver: run every static check over one kernel.

:func:`analyze_kernel` takes raw kernel source and runs the full stack —
parse, lint, SCoP extraction, validation, pipelinability explanation,
pipeline detection and the task-graph checks — collecting everything into
one :class:`AnalysisResult`.  Frontend and semantic failures become
``RPA001``/``RPA002`` diagnostics instead of exceptions, so ``repro lint``
and ``repro analyze`` always produce a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..lang.errors import FrontendError, ParseError, SemanticError
from ..lang.parser import parse
from . import diagnostics as D
from .diagnostics import Collector, DiagnosticReport, Severity
from .lint import lint_program


@dataclass
class AnalysisResult:
    """Everything the static-analysis subsystem found about one kernel."""

    source: str
    file: str | None
    report: DiagnosticReport = DiagnosticReport()
    program: Any = None
    scop: Any = None
    info: Any = None  # PipelineInfo when detection succeeded
    explanations: tuple = ()
    detect_error: str | None = None
    portfolio: Any = None  # PortfolioReport when requested

    @property
    def ok(self) -> bool:
        """No error-severity diagnostic."""
        return self.report.ok

    def classifications(self) -> list[dict]:
        if self.portfolio is not None:
            return [p.to_dict() for p in self.portfolio.pairs]
        return [e.to_dict() for e in self.explanations]

    def exit_code(self) -> int:
        """1 when any error diagnostic exists, else 0 (CI contract)."""
        return 0 if self.ok else 1


def analyze_kernel(
    source: str,
    params: dict[str, int] | None = None,
    file: str | None = None,
    deep: bool = True,
    portfolio: bool = False,
) -> AnalysisResult:
    """Run the full static-analysis stack over kernel source text.

    ``deep=False`` stops after the AST-level checks (parse + lint) — the
    ``repro lint`` mode.  ``deep=True`` additionally extracts and
    validates the SCoP, explains pipelinability of every consecutive
    nest pair, runs Algorithm 1 and checks the generated task graph.
    ``portfolio=True`` also runs the pattern portfolio (reduction /
    do-all / geometric-decomposition detection with machine-checked
    privatization proofs); verified proofs reclassify blocked nest pairs
    to ``pipeline-after-privatization`` in ``explanations``.
    """
    result = AnalysisResult(source=source, file=file)
    report = DiagnosticReport()

    # 1. parse
    try:
        result.program = parse(source)
    except FrontendError as exc:
        out = Collector(file)
        rule = D.PARSE_ERROR if isinstance(exc, ParseError) else (
            D.SEMANTIC_ERROR if isinstance(exc, SemanticError)
            else D.PARSE_ERROR
        )
        out.add(rule, str(exc.args[0] if exc.args else exc), exc.location)
        result.report = report.merged(out.report()).sorted()
        return result

    # 2. lint (AST level)
    report = report.merged(lint_program(result.program, params, file))
    if not deep:
        result.report = report.sorted()
        return result

    # 3. extract + validate the SCoP
    from ..scop import extract_scop, validate_scop

    try:
        result.scop = extract_scop(result.program, params)
    except SemanticError as exc:
        out = Collector(file)
        out.add(
            D.SEMANTIC_ERROR,
            str(exc.args[0] if exc.args else exc),
            exc.location,
        )
        result.report = report.merged(out.report()).sorted()
        return result

    from .portfolio.reduction import find_reduction_specs

    waivers = frozenset(
        find_reduction_specs(s.assign for s in result.scop.statements)
    )
    validation = validate_scop(result.scop, file=file,
                               reduction_waivers=waivers)
    report = report.merged(validation.diagnostics)

    # 4. pipelinability explanation (classification of nest pairs)
    from .explain import classify_nest_pairs, explain_to_diagnostics

    if result.scop.statements:
        result.explanations = classify_nest_pairs(result.scop)
        report = report.merged(
            explain_to_diagnostics(result.scop, result.explanations, file)
        )

    # 4b. pattern portfolio (opt-in): all provable patterns + proofs
    if portfolio and result.scop.statements:
        from .portfolio import portfolio_to_diagnostics, run_portfolio

        result.portfolio = run_portfolio(result.scop, result.explanations)
        result.explanations = result.portfolio.explanations()
        report = report.merged(
            portfolio_to_diagnostics(result.scop, result.portfolio, file)
        )

    # 5. pipeline detection + task-graph checks, only on a valid SCoP.
    # A flow-only refusal becomes the note (the explainer has already
    # emitted its diagnostics) and detection moves to every class.
    if validation.ok and result.scop.statements:
        from ..pipeline import detect_pipeline, flow_then_all_kinds

        try:
            result.info, result.detect_error = flow_then_all_kinds(
                lambda kinds: detect_pipeline(result.scop, kinds=kinds)
            )
        except Exception as exc:
            result.detect_error = str(exc)
        if result.info is not None:
            from .taskcheck import check_task_graph

            report = report.merged(
                check_task_graph(result.scop, result.info, file=file)
            )

    result.report = report.sorted()
    return result
