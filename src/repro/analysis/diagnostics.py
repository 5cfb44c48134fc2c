"""The diagnostics engine: stable rule codes, severities, source spans.

Every analysis in this package (the DSL linter, SCoP validation, the
pipelinability explainer, the task-graph checker, the packing guard)
reports findings as :class:`Diagnostic` objects carrying a stable
``RPA0xx`` rule code, a severity, an optional source span threaded from
the :mod:`repro.lang` tokens, fix-it hints, and the paper assumption the
finding relates to.  Renderers (:mod:`repro.analysis.render`) turn a
:class:`DiagnosticReport` into text, JSON, or SARIF.

Rule-code blocks::

    RPA00x  frontend (lexer / parser / semantic lowering)
    RPA01x  SCoP validation (Section 4 structural preconditions)
    RPA02x  DSL lint (AST-level, before extraction)
    RPA03x  pipelinability (Algorithm 1, Sections 4-5)
    RPA04x  task graph / codegen (Sections 5.4-5.5)
    RPA05x  pattern portfolio (reductions, do-all, geometric
            decomposition, privatization proofs)
    RPA06x  block kernels: the slice-form gate (a refusal keeps the loop form)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..lang.errors import SourceLocation


class Severity(enum.Enum):
    """Diagnostic severity, ordered from advisory to fatal."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    @property
    def sarif_level(self) -> str:
        return {"info": "note", "warning": "warning", "error": "error"}[
            self.value
        ]


@dataclass(frozen=True)
class Span:
    """A source position (file plus 1-based line/column, optional end)."""

    file: str | None = None
    line: int | None = None
    column: int | None = None
    end_column: int | None = None

    @staticmethod
    def of(
        location: SourceLocation | None, file: str | None = None
    ) -> "Span | None":
        if location is None:
            return Span(file) if file else None
        return Span(
            file,
            location.line,
            location.column,
            getattr(location, "end_column", None),
        )

    def __str__(self) -> str:
        parts = [self.file or "<kernel>"]
        if self.line is not None:
            parts.append(str(self.line))
            if self.column is not None:
                parts.append(str(self.column))
        return ":".join(parts)


@dataclass(frozen=True)
class Rule:
    """One registered diagnostic rule with a stable code."""

    code: str
    name: str
    severity: Severity
    #: the paper assumption / section the rule checks
    assumption: str


_RULES: dict[str, Rule] = {}


def register_rule(
    code: str, name: str, severity: Severity, assumption: str
) -> Rule:
    if code in _RULES:
        raise ValueError(f"duplicate rule code {code}")
    rule = Rule(code, name, severity, assumption)
    _RULES[code] = rule
    return rule


def rule(code: str) -> Rule:
    return _RULES[code]


def all_rules() -> tuple[Rule, ...]:
    return tuple(_RULES[c] for c in sorted(_RULES))


# ----------------------------------------------------------------------
# the rule table
# ----------------------------------------------------------------------
E, W, I = Severity.ERROR, Severity.WARNING, Severity.INFO

PARSE_ERROR = register_rule(
    "RPA001", "parse-error", E,
    "the kernel must be a sequence of affine for-loop nests (Section 4)")
SEMANTIC_ERROR = register_rule(
    "RPA002", "semantic-error", E,
    "bounds and subscripts must lower to affine forms (Section 4)")

EMPTY_SCOP = register_rule(
    "RPA010", "empty-scop", E,
    "the program must contain at least one statement (Section 4)")
STATEMENT_OUTSIDE_LOOP = register_rule(
    "RPA011", "statement-outside-loop", E,
    "every statement must sit inside a loop nest (Section 4)")
MULTIPLE_WRITES = register_rule(
    "RPA012", "multiple-writes", E,
    "each statement performs exactly one array write (Section 4)")
NON_INJECTIVE_WRITE = register_rule(
    "RPA013", "non-injective-write", E,
    "each statement's write relation is injective — no over-writes "
    "(Section 4)")
EMPTY_DOMAIN = register_rule(
    "RPA014", "empty-domain", W,
    "statements with empty iteration domains contribute nothing")
MULTI_STATEMENT_NEST = register_rule(
    "RPA015", "multi-statement-nest", W,
    "the prototype pipelines one statement per nest (Section 5.4)")

NON_AFFINE_SUBSCRIPT = register_rule(
    "RPA020", "non-affine-subscript", E,
    "subscripts must be affine in the loop variables — Polly's SCoP rule "
    "(Section 4)")
DEAD_WRITE = register_rule(
    "RPA021", "dead-write", W,
    "an array written but never read feeds no dependence, so it cannot "
    "anchor a pipeline (Section 4.1)")
OVERWRITING_WRITE = register_rule(
    "RPA022", "overwriting-write", E,
    "a write subscript missing an enclosing loop variable over-writes "
    "cells, breaking the injective-write precondition (Section 4)")
UNUSED_ARRAY = register_rule(
    "RPA023", "unused-array", W,
    "an array touched by exactly one statement instance is likely a "
    "scalar in disguise; the analysis models arrays (Section 4)")
UNUSED_PARAMETER = register_rule(
    "RPA024", "unused-parameter", W,
    "structure parameters are substituted at extraction (DESIGN.md §2); "
    "unused ones hint at a mistyped bound")
SHADOWED_INDUCTION = register_rule(
    "RPA025", "shadowed-induction-variable", E,
    "loop variables must be distinct along a nest path so domains stay "
    "well-formed (Section 4)")

NEST_PAIR_CLASS = register_rule(
    "RPA030", "nest-pair-classification", I,
    "consecutive nest pairs are classified do-all / pipeline / "
    "fusion-only / sequential (Sections 4-5)")
PIPELINE_BLOCKED = register_rule(
    "RPA031", "pipeline-blocked", W,
    "a dependence whose pipeline map degenerates to a full barrier "
    "yields no overlap (Section 4.1)")
UNCOVERED_CROSS_DEP = register_rule(
    "RPA032", "uncovered-cross-nest-dependence", W,
    "flow-only pipeline maps do not order cross-nest anti/output "
    "dependences (Section 5; future-work extension)")

PACKING_COLLISION = register_rule(
    "RPA040", "packing-collision", E,
    "depend-slot addresses (write_num * depend + idx, Figure 8) must be "
    "collision-free across statements (Section 5.4)")
PACKER_OVERFLOW = register_rule(
    "RPA041", "packer-overflow", E,
    "packed dependency integers must fit an int64 slot (Section 5.4)")
UNCOVERED_DEPENDENCE = register_rule(
    "RPA042", "uncovered-dependence", E,
    "every polyhedral dependence must be covered by an in/out token "
    "chain of the generated depend clauses (Section 5.5)")
TASK_RACE = register_rule(
    "RPA043", "task-race", E,
    "no interleaving admitted by the declared depend edges may reorder "
    "a dependence (Section 5.5)")

REDUCTION_DETECTED = register_rule(
    "RPA050", "reduction-detected", I,
    "an associative, commutative accumulation whose carried dependences "
    "privatization may relax (Doerfert et al., reductions in Polly)")
PRIVATIZATION_RECLASSIFIED = register_rule(
    "RPA051", "privatization-reclassification", I,
    "a nest pair blocked only by reduction-carried dependences becomes "
    "pipelinable once the accumulator is privatized")
NEST_PATTERN = register_rule(
    "RPA052", "nest-pattern", I,
    "each nest is classified do-all / reduction / geometric-"
    "decomposition / irregular from its dependence evidence")
PROOF_REJECTED = register_rule(
    "RPA053", "privatization-proof-rejected", E,
    "privatization proofs are machine-checked against recomputed "
    "dependences; a rejected proof must never be acted on")
UNCOVERED_BY_PORTFOLIO = register_rule(
    "RPA054", "uncovered-by-portfolio", W,
    "a blocked nest pair none of the portfolio detectors can unlock "
    "keeps its sequential classification")
REDUCTION_ACCUMULATOR_WRITE = register_rule(
    "RPA055", "reduction-accumulator-write", W,
    "a non-injective write that is a proven associative accumulation is "
    "benign for analysis (privatization restores injectivity), but the "
    "pipeline transformation still rejects it")

FUSE_NO_LOOP_DIMS = register_rule(
    "RPA060", "fuse-no-loop-dimensions", I,
    "a zero-dimensional statement has no block to slice; its kernel "
    "runs the loop form")
FUSE_UNSUPPORTED_OP = register_rule(
    "RPA061", "fuse-unsupported-operator", W,
    "only plain and compound assignments lower to slice form")
FUSE_NO_SLICE_FORM = register_rule(
    "RPA062", "fuse-no-slice-form", W,
    "a coupled, non-affine, or otherwise unsupported subscript has no "
    "strided-slice equivalent")
# RPA063 (fuse-non-positive-stride) is retired and not reused: a
# negative stride has a slice form, a reversed view.
FUSE_DIAGONAL_ACCESS = register_rule(
    "RPA064", "fuse-diagonal-access", W,
    "one loop variable driving two dimensions of an access selects a "
    "diagonal, which has no slice form")
FUSE_NON_INJECTIVE_WRITE = register_rule(
    "RPA065", "fuse-non-injective-write", W,
    "a write not using every loop variable collides under whole-block "
    "scatter; per-iteration order is the only safe semantics")
FUSE_FLOW_SELF_DEPENDENCE = register_rule(
    "RPA066", "fuse-flow-self-dependence", W,
    "a recurrence must observe values written earlier in the same "
    "block; gather-before-scatter whole-block execution would not")
FUSE_NON_ELEMENTWISE_CALL = register_rule(
    "RPA067", "fuse-non-elementwise-call", W,
    "an opaque function not marked elementwise cannot be assumed to map "
    "over array slices")

del E, W, I


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding."""

    rule: Rule
    message: str
    span: Span | None = None
    hints: tuple[str, ...] = ()
    #: override of the rule's default severity (packing checks downgrade
    #: advisory findings, validation keeps rule defaults)
    severity_override: Severity | None = field(default=None, compare=False)

    @property
    def code(self) -> str:
        return self.rule.code

    @property
    def severity(self) -> Severity:
        return self.severity_override or self.rule.severity

    def render(self) -> str:
        loc = f"{self.span}: " if self.span else ""
        text = f"{loc}{self.severity.value}: {self.message} [{self.code}]"
        for hint in self.hints:
            text += f"\n    hint: {hint}"
        return text

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class DiagnosticReport:
    """An ordered collection of diagnostics."""

    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return self._by(Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return self._by(Severity.WARNING)

    @property
    def infos(self) -> tuple[Diagnostic, ...]:
        return self._by(Severity.INFO)

    def _by(self, severity: Severity) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is severity)

    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max((d.severity for d in self.diagnostics), key=lambda s: s.rank)

    def merged(self, other: "DiagnosticReport") -> "DiagnosticReport":
        return DiagnosticReport(self.diagnostics + other.diagnostics)

    def sorted(self) -> "DiagnosticReport":
        def key(d: Diagnostic):
            s = d.span or Span()
            return (
                s.file or "",
                s.line or 0,
                s.column or 0,
                -d.severity.rank,
                d.code,
            )

        return DiagnosticReport(tuple(sorted(self.diagnostics, key=key)))

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __str__(self) -> str:
        return "\n".join(d.render() for d in self.diagnostics)


class Collector:
    """Mutable builder for a :class:`DiagnosticReport`."""

    def __init__(self, file: str | None = None):
        self.file = file
        self._items: list[Diagnostic] = []

    def add(
        self,
        rule_: Rule,
        message: str,
        location: SourceLocation | None = None,
        span: Span | None = None,
        hints: tuple[str, ...] = (),
        severity: Severity | None = None,
    ) -> Diagnostic:
        if span is None:
            span = Span.of(location, self.file)
        diag = Diagnostic(rule_, message, span, hints, severity)
        self._items.append(diag)
        return diag

    def extend(self, diags) -> None:
        self._items.extend(diags)

    def report(self) -> DiagnosticReport:
        return DiagnosticReport(tuple(self._items))
