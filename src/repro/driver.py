"""High-level driver: the whole pipeline in one call.

:func:`transform` runs frontend → SCoP → Algorithm 1 → Algorithm 2 →
task graph, optionally verifies the transformation (legality check and/or
one replay of the lowered task program compared against the sequential
interpreter) — returning everything in one :class:`TransformResult`,
whose task graph and simulated performance are computed when read.

    from repro import transform

    result = transform(KERNEL_SOURCE, {"N": 32})
    print(result.report())
    assert result.verified
    print(result.speedup)
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

from .interp import ArrayStore, ExecutionStats, Interpreter, execute_measured
from .interp.executor import BACKEND_ALIASES, MAX_WORKERS
from .lang.ast import Program
from .pipeline import PipelineInfo, detect_pipeline
from .schedule import (
    LegalityReport,
    ScheduleTree,
    TaskAst,
    build_schedule,
    check_legality,
    generate_task_ast,
    relax,
)
from .scop import DepKind, Scop
from .tasking import SimResult, TaskGraph, simulate
from .workloads import CostModel


#: Backend of the verification replay when no ``exec_backend`` asks for
#: a measured one: threads, so an unordered pair can still race.
VERIFY_BACKEND = "threads"


@dataclass(frozen=True)
class TransformOptions:
    """Knobs of the transformation and its evaluation."""

    #: dependence classes to pipeline (paper default: flow only); a
    #: compile that executes privatization proofs pipelines every class
    kinds: tuple[DepKind, ...] = (DepKind.FLOW,)
    #: merge every ``coarsen`` consecutive blocks into one task
    coarsen: int = 1
    #: relax per-statement chains using intra-statement dependences
    hybrid: bool = False
    #: run the instance-exact legality checker
    check: bool = True
    #: replay the lowered task program (on ``exec_backend``; on threads
    #: when none is set) and compare with sequential output
    verify: bool = True
    #: workers for the replay and the simulation
    workers: int = 4
    #: block kernels: "auto" (default — slice forms where legal, the
    #: loop form per statement elsewhere), "on" (fail if any statement
    #: has no slice form), "off" (loop forms only)
    fuse: str = "auto"
    #: run a real measured execution on this backend ("serial", "threads"
    #: or "processes"); None skips the measured run
    exec_backend: str | None = None
    #: collect live runtime task events during the measured execution
    #: (requires ``exec_backend``); surfaced as ``execution.events``
    collect_events: bool = False
    #: execute verified privatization proofs: re-block reduction
    #: statements into parallel chunks over per-block private
    #: accumulators joined by a generated combine task.  Derives the
    #: plan and, with verified proofs, ``kinds`` = every class
    #: (what the relaxed legality check covers); a kernel with no
    #: verified proofs falls through to the standard pipeline unchanged
    #: (a no-op, not an error)
    privatize: bool = False
    #: chunks per privatized statement (None: max(2, workers))
    privatize_parts: int | None = None

    @property
    def vectorize(self) -> str:
        """Deprecated read-only alias of :attr:`fuse` (not a field: it
        is neither constructible nor part of the store key)."""
        return self.fuse

    @property
    def overhead(self) -> float:
        """Per-task overhead of ``transform``'s simulation: always zero
        (read-only, not a field; cost-weighted simulation is
        :func:`repro.bench.harness.run_pipeline`'s)."""
        return 0.0

    @property
    def cost_model(self) -> CostModel:
        """Cost model of ``transform``'s simulation: always uniform
        (read-only, not a field)."""
        return CostModel.uniform()


class _OnFirstRead:
    """A dataclass field (default ``None``) left ``None`` is
    ``build(obj)``, computed on its first read and kept."""

    def __init__(self, build: Callable) -> None:
        self.build = build

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is not None and obj.__dict__.get(self.name) is None:
            obj.__dict__[self.name] = self.build(obj)
        return None if obj is None else obj.__dict__[self.name]

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True, kw_only=True)
class TransformResult:
    """Everything the driver produced.  ``info``, ``schedule``, ``graph``
    (through ``analysis``) and ``simulation`` are built on first read."""

    scop: Scop
    info: PipelineInfo = _OnFirstRead(lambda r: r.analysis.info)
    schedule: ScheduleTree = _OnFirstRead(lambda r: r.analysis.schedule)
    task_ast: TaskAst
    options: TransformOptions
    legality: LegalityReport | None
    verified: bool | None
    #: measured execution statistics (None unless options.exec_backend)
    execution: "ExecutionStats | None" = None
    #: privatization plan the transformation executed (None unless
    #: options.privatize); a repro.schedule.PrivatizationPlan — empty
    #: ``groups`` means the run fell through to the standard pipeline
    privatization: object | None = None
    #: accumulator arrays combined by a generated join task (one each)
    joins: tuple = ()
    #: how a privatized replay matched: "bit-exact", or which accumulator
    #: agreed only within the reassociation tolerance ("" otherwise)
    match_detail: str = ""
    #: None for a direct compile; "cold" / "warm" when ``cache_dir`` was used
    cache_status: str | None = None
    graph: TaskGraph | None = _OnFirstRead(lambda r: r.analysis.graph)
    simulation: SimResult | None = _OnFirstRead(
        lambda r: simulate(r.graph, workers=r.options.workers)
    )
    #: the compile this result replayed
    analysis: "Analysis" = field(default=None, repr=False, compare=False)

    @property
    def speedup(self) -> float:
        return self.simulation.speedup_vs(self.graph.total_cost())

    @property
    def num_tasks(self) -> int:
        return self.task_ast.arrays.num_blocks + len(self.joins)

    def report(self) -> str:
        lines = [self.info.summary()]
        if self.legality is not None:
            lines.append(str(self.legality))
        if self.verified is not None:
            lines.append(
                f"{replay_backend(self.options)} replay matches "
                f"sequential: {self.verified}"
            )
        if self.privatization is not None:
            lines.append(self.privatization.describe())
        if self.execution is not None:
            lines.append("measured execution: " + self.execution.summary())
        lines.append(
            f"simulated speed-up on {self.options.workers} workers: "
            f"{self.speedup:.2f}x ({self.num_tasks} tasks)"
        )
        return "\n".join(lines)


class VerificationFailedError(RuntimeError):
    """The pipelined execution diverged from the sequential program."""


@dataclass(kw_only=True)
class Analysis:
    """Everything the *compile* phase produced — no execution yet.

    This is the unit the artifact store serializes and ``repro serve``
    hands out: :func:`analyze` builds one from scratch, the warm path in
    :mod:`repro.service.compile` rebuilds an equivalent one from a
    stored artifact, and :func:`_finish` turns either into a
    :class:`TransformResult` by running the one (verified, measured)
    plan replay and its compare against the oracle.  The oracle never
    reads an ``Analysis``: in :func:`transform` it is already running
    beside the compile that builds this one.  The replay reads the task
    AST alone, so a warm load leaves ``info`` (``load_info()``) and
    ``schedule`` to be built on first read.
    """

    info: PipelineInfo = _OnFirstRead(lambda a: a.load_info())
    schedule: ScheduleTree = _OnFirstRead(lambda a: build_schedule(a.info))
    task_ast: TaskAst
    #: the checked task graph (a cold compile's), else built on first read
    graph: TaskGraph | None = _OnFirstRead(
        lambda a: TaskGraph.from_task_ast(a.task_ast)
    )
    legality: LegalityReport | None = None
    #: a PortfolioReport, for callers that build one (the driver does not)
    portfolio: object | None = None
    plan: object | None = None  # repro.schedule.PrivatizationPlan
    joins: tuple = ()
    privatized: bool = False
    #: None for a direct compile; "cold" / "warm" when a store was used
    cache_status: str | None = None
    #: a warm load's builder of ``info`` (repro.service.compile)
    load_info: Callable[[], PipelineInfo] | None = None

    @property
    def num_tasks(self) -> int:
        """Tasks of the graph — blocks plus joins — without building it."""
        return self.task_ast.arrays.num_blocks + len(self.joins)


def transform(
    source_or_program: str | Program,
    params: Mapping[str, int] | None = None,
    options: TransformOptions | None = None,
    funcs: Mapping | None = None,
    cache_dir: str | None = None,
) -> TransformResult:
    """Detect, schedule and verify the cross-loop pipeline.

    With ``verify`` the program executes exactly twice — the sequential
    oracle and one replay of the lowered plan, whose arrays must be
    bit-identical (see :func:`_finish`).  The oracle depends on the
    interpreter alone, so it starts on a helper thread
    (:func:`start_oracle`) as soon as the interpreter exists; the
    compile and the replay run on the calling thread beside it, and the
    compare waits for it only after the replay.  An exception on the
    calling thread propagates at once: nothing waits for the helper.

    ``cache_dir`` points at a content-addressed artifact store
    (:mod:`repro.store`): identical ``(source, params, options)``
    compiles are answered from disk.  Caching is deliberately *not* a
    :class:`TransformOptions` field — options are part of the cache key,
    the cache location is not.  Only string sources are cacheable (a
    ``Program`` object has no canonical byte form to hash).
    """
    options = options or TransformOptions()
    validate_options(options)
    params = dict(params or {})
    interp = Interpreter.from_source(
        source_or_program, params, funcs, fuse=options.fuse
    )
    pending = start_oracle(interp) if options.verify else None
    if cache_dir is not None and isinstance(source_or_program, str):
        from .service.compile import cached_analysis
        from .store import ArtifactStore

        analysis, _ = cached_analysis(
            interp, source_or_program, params, options,
            ArtifactStore(cache_dir),
        )
    else:
        analysis = analyze(interp, options)
    return _finish(interp, options, analysis, pending)


def replay_backend(options: TransformOptions) -> str:
    """The backend of the transform's replay."""
    return options.exec_backend or VERIFY_BACKEND


def validate_options(options: TransformOptions) -> None:
    """Refuse a value no option takes (``ValueError``), before any
    work.  Every pair of options composes on the one spine of
    :func:`analyze`, so no combination is refused."""
    parts = options.privatize_parts
    expected = {
        "fuse": (options.fuse in ("auto", "on", "off"), "auto, on or off"),
        "exec_backend": (
            options.exec_backend is None
            or options.exec_backend in BACKEND_ALIASES,
            "None or one of " + ", ".join(BACKEND_ALIASES),
        ),
        "coarsen": (_positive(options.coarsen), "an int >= 1"),
        "workers": (
            _positive(options.workers) and options.workers <= MAX_WORKERS,
            f"an int from 1 to {MAX_WORKERS}",
        ),
        "privatize_parts": (
            parts is None or _positive(parts), "None or an int >= 1"
        ),
    }
    # a bool field takes a bool only: a served "false" is truthy and
    # must not switch an option on
    for f in fields(options):
        if isinstance(f.default, bool):
            expected[f.name] = (
                isinstance(getattr(options, f.name), bool), "a bool"
            )
    for name, (ok, what) in expected.items():
        if not ok:
            raise ValueError(
                f"{name}={getattr(options, name)!r}: expected {what}"
            )


def _positive(value) -> bool:
    # bool is an int subclass: coarsen=True is no coarsening factor
    return (
        isinstance(value, int) and not isinstance(value, bool)
        and value >= 1
    )


def analyze(interp: Interpreter, options: TransformOptions) -> Analysis:
    """The compile phase: SCoP analysis through checked task graph.

    One spine for every option.  Privatization is a step on it, not a
    second pipeline: a plan with verified groups relaxes the same
    dependence and scheduling problem (its statements are re-blocked
    into chunks before scheduling, its proofs' removed pairs are
    subtracted in the legality check after), and a plan without groups
    leaves every step the standard one.  The one relaxation of the task
    AST, privatization's and ``hybrid``'s alike, is
    :func:`~repro.schedule.relax.relax`.

    Pure with respect to array contents — nothing here executes the
    kernel.  The returned :class:`Analysis` is what the store persists.
    """
    from .obs.spans import span

    scop = interp.scop

    plan = None
    if options.privatize:
        from .schedule import plan_privatization

        with span("driver.privatize"):
            plan = plan_privatization(scop)
    # no verified proofs: the standard pipeline, unchanged (a no-op, not
    # an error — result.privatization records the empty plan)
    privatized = plan is not None and bool(plan.groups)
    relaxed = plan.relaxed() if privatized else None

    info = pipeline_info(scop, options, plan)
    schedule = build_schedule(info)
    task_ast = generate_task_ast(info, schedule)
    if privatized or options.hybrid:
        with span("driver.relax", hybrid=options.hybrid, privatize=privatized):
            task_ast = relax(
                scop, info, task_ast, hybrid=options.hybrid, plan=plan
            )
    with span("driver.task_graph", privatize=privatized):
        graph = TaskGraph.from_task_ast(task_ast)

    legality: LegalityReport | None = None
    if options.check:
        legality = check_legality(scop, info, graph, relaxed=relaxed)
        legality.raise_if_illegal()
        if privatized:
            # join tasks execute no instances, so check_legality alone
            # cannot see an omitted join: re-check the join structure
            from .schedule import verify_privatized_graph

            verify_privatized_graph(scop, plan, graph).raise_if_invalid()

    return Analysis(
        info=info, schedule=schedule, task_ast=task_ast, graph=graph,
        legality=legality, plan=plan,
        joins=plan.arrays if privatized else (), privatized=privatized,
    )


def pipeline_info(scop: Scop, options: TransformOptions, plan=None):
    """Algorithm 1 as :func:`analyze` runs it: on ``options.kinds`` or,
    under a privatization ``plan`` with verified groups, on every class
    with the plan's statements re-blocked into chunks."""
    if plan is None or not plan.groups:
        return detect_pipeline(
            scop, kinds=options.kinds, coarsen=options.coarsen
        )
    from .schedule import privatize_info
    from .scop.validate import validate_scop

    # The plan's statements write their accumulator non-injectively by
    # design (hence the waivers), and the relaxed legality check needs
    # every dependence class pipelined.
    validate_scop(scop, reduction_waivers=plan.statements).raise_if_invalid()
    info = detect_pipeline(
        scop, kinds=tuple(DepKind), validate=False, coarsen=options.coarsen
    )
    return privatize_info(
        info, plan, parts=options.privatize_parts or max(2, options.workers)
    )


class PendingOracle(Future):
    """The sequential oracle computing on a helper thread
    (:func:`start_oracle`); :func:`replay` resolves it after its run."""

    #: ms the resolving thread blocked in :meth:`wait` (the part of the
    #: oracle the compile and the replay did not hide)
    wait_ms: float = 0.0

    def wait(self) -> ArrayStore:
        """The oracle's arrays, or the exception it raised, re-raised."""
        t0 = time.perf_counter()
        try:
            return self.result()
        finally:
            self.wait_ms = (time.perf_counter() - t0) * 1e3


class _Helpers:
    """Daemon threads that run :func:`start_oracle`'s jobs, kept between
    calls.  A job goes to an idle helper, else to a new one: a sequence
    of one-shots starts one thread, not one per call (a thread start
    shows on a small kernel's warm one-shot), and a transform never
    queues behind another's oracle, concurrent or nested."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []

    def submit(self, job: Callable[[], object], future: Future) -> None:
        """Run ``job()`` on a helper; its result or exception resolves
        ``future``."""
        future.set_running_or_notify_cancel()  # no longer cancellable
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(
                target=self._serve, args=(inbox,), name="driver-oracle",
                daemon=True,
            ).start()
        inbox.put((job, future))

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while True:
            job, future = inbox.get()
            result = error = None
            try:
                result = job()
            except BaseException as exc:  # re-raised by the future's reader
                error = exc
            with self._lock:
                # idle before the caller can wake: its next job reuses us
                self._idle.append(inbox)
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)
            del job, future, result, error  # an idle helper holds nothing


_HELPERS = _Helpers()


def _forget_helpers() -> None:
    # a forked child has none of its parent's threads
    global _HELPERS
    _HELPERS = _Helpers()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def start_oracle(interp: Interpreter) -> PendingOracle:
    """Start ``interp.oracle("driver.oracle")`` on a daemon helper thread.

    Its ``driver.oracle`` span is parented to the span current here.
    The helper writes only into its own store (and the interpreter's
    retained oracle), so no error path joins it: a caller that raises
    leaves it to finish alone, and a process that exits discards it.
    """
    from .obs.spans import current_span_id, parented

    pending = PendingOracle()
    parent = current_span_id()

    def compute() -> ArrayStore:
        with parented(parent):
            return interp.oracle("driver.oracle")

    _HELPERS.submit(compute, pending)
    return pending


def _identical(oracle: ArrayStore, out: ArrayStore) -> tuple[bool, str]:
    ok = oracle.equal(out)
    return ok, "" if ok else f"max abs diff {oracle.max_abs_diff(out):g}"


def replay(
    interp: Interpreter,
    a: Analysis,
    backend: str,
    workers: int,
    collect_events: bool = False,
    oracle: ArrayStore | PendingOracle | None = None,
) -> tuple[ArrayStore, ExecutionStats, tuple[bool, str] | None]:
    """One replay of the lowered plan of ``a``: ``(arrays, stats, verdict)``.

    The one place that knows a privatized analysis replays and compares
    differently — ``transform`` and ``repro serve`` both come here.
    ``verdict`` is ``None`` without an ``oracle`` (the arrays of a
    sequential run, or a :class:`PendingOracle` still computing them,
    resolved after the run), else ``(ok, detail)``: bit identity, with
    the reassociation tolerance confined to
    :func:`~repro.interp.privatized_matches`.

    The ``processes`` backend (any spelling in ``BACKEND_ALIASES``)
    resolves a pending oracle *before* its run:
    the pool forks its workers, and a fork while the helper holds the
    span buffer's lock (a recording span takes it as it opens and
    closes) would hand a worker a lock nobody releases — a worker that
    records spans needs it.
    """
    forks = BACKEND_ALIASES.get(backend) == "processes"
    if forks and isinstance(oracle, PendingOracle):
        oracle = oracle.wait()
    run = dict(
        backend=backend,
        workers=workers,
        collect_events=collect_events,
        task_ast=a.task_ast,
    )
    # lowering reads the task AST alone: the replay builds no ``info``
    if a.privatized:
        from .interp import execute_privatized

        out, stats = execute_privatized(interp, None, a.plan, **run)
    else:
        out, stats = execute_measured(interp, None, **run)
    if isinstance(oracle, PendingOracle):
        oracle = oracle.wait()
    if oracle is None:
        return out, stats, None
    if a.privatized:
        from .interp import privatized_matches

        return out, stats, privatized_matches(a.plan, oracle, out)
    return out, stats, _identical(oracle, out)


def _finish(
    interp: Interpreter,
    options: TransformOptions,
    a: Analysis,
    oracle: PendingOracle | None,
) -> TransformResult:
    """One plan replay, one compare against ``oracle``.

    "Verified" means what ``repro serve`` means by it for ``run``: the
    arrays of the plan replay that is returned match the interpreter's
    sequential oracle (:meth:`Interpreter.oracle` — started by
    :func:`transform` beside the compile, resolved and compared in
    :func:`replay`; ``None`` when ``verify`` is off).  The replay is the
    lowered :class:`~repro.interp.plan.ExecPlan` on ``options.exec_backend`` —
    or, when only ``verify`` asks for one, on :data:`VERIFY_BACKEND` at
    ``options.workers``; ``execution`` is filled only for a requested
    backend.  The ``driver.verify`` span carries ``oracle_wait_ms``: how
    long the compare waited for the oracle after the replay.
    """
    from .obs.spans import span

    measured = options.exec_backend is not None
    backend = (
        replay_backend(options) if measured or oracle is not None else None
    )
    execution: ExecutionStats | None = None
    verdict = None
    verifying = span("driver.verify", backend=backend) if oracle else None
    with verifying or nullcontext() as verify_span:
        if backend is not None:
            _, stats, verdict = replay(
                interp, a, backend, options.workers,
                collect_events=measured and options.collect_events,
                oracle=oracle,
            )
            if oracle is not None:
                verify_span.set(oracle_wait_ms=round(oracle.wait_ms, 3))
            if measured:
                execution = stats
            if verdict is not None and not verdict[0]:
                raise VerificationFailedError(
                    f"{backend} plan replay diverged from the sequential "
                    f"execution ({verdict[1]})"
                )

    return TransformResult(
        scop=interp.scop, task_ast=a.task_ast, options=options,
        legality=a.legality, verified=None if oracle is None else True,
        execution=execution, privatization=a.plan, joins=a.joins,
        match_detail=verdict[1] if verdict is not None else "",
        cache_status=a.cache_status, analysis=a,
    )
