"""High-level driver: the whole pipeline in one call.

:func:`transform` runs frontend → SCoP → Algorithm 1 → Algorithm 2 →
task graph, optionally verifies the transformation (legality check and/or
one replay of the lowered task program compared against the sequential
interpreter), and simulates performance — returning everything in one
:class:`TransformResult`.

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
from dataclasses import dataclass
from typing import Callable, Mapping

from .interp import ArrayStore, ExecutionStats, Interpreter, execute_measured
from .interp.executor import BACKEND_ALIASES
from .lang.ast import Program
from .pipeline import (
    PipelineInfo,
    ReductionStats,
    detect_pipeline,
    reduce_dependencies,
)
from .schedule import (
    LegalityReport,
    ScheduleTree,
    TaskAst,
    build_schedule,
    check_legality,
    generate_task_ast,
)
from .scop import DepKind, Scop
from .tasking import SimResult, TaskGraph, relax_self_chains, simulate
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
    #: transitively reduce the block dependency relations before
    #: scheduling (fewer depend-in slots, same enforced partial order)
    reduce_deps: bool = False
    #: granularity auto-tuning: replay each coarsening of the ladder on
    #: the replay's own backend and workers and keep the fastest (False:
    #: keep ``coarsen`` as given)
    tune: bool = False
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


@dataclass(frozen=True)
class TransformResult:
    """Everything the driver produced."""

    scop: Scop
    info: PipelineInfo
    schedule: ScheduleTree
    task_ast: TaskAst
    graph: TaskGraph
    options: TransformOptions
    legality: LegalityReport | None
    verified: bool | None
    simulation: SimResult
    #: measured execution statistics (None unless options.exec_backend)
    execution: "ExecutionStats | None" = None
    #: dependency transitive-reduction stats (None unless reduce_deps)
    reduction: ReductionStats | None = None
    #: granularity tuning plan (None unless options.tune)
    tuning: object | None = None  # repro.tuning.TunedPlan
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

    @property
    def speedup(self) -> float:
        return self.graph.total_cost() / self.simulation.makespan

    @property
    def num_tasks(self) -> int:
        return len(self.graph)

    def report(self) -> str:
        lines = [self.info.summary()]
        if self.legality is not None:
            lines.append(str(self.legality))
        if self.verified is not None:
            lines.append(
                f"{replay_backend(self.options)} replay matches "
                f"sequential: {self.verified}"
            )
        if self.tuning is not None:
            lines.append(self.tuning.summary())
        if self.privatization is not None:
            lines.append(self.privatization.describe())
        if self.reduction is not None:
            lines.append(self.reduction.summary())
        if self.execution is not None:
            lines.append("measured execution: " + self.execution.summary())
        lines.append(
            f"simulated speed-up on {self.options.workers} workers: "
            f"{self.speedup:.2f}x ({self.num_tasks} tasks)"
        )
        return "\n".join(lines)


class VerificationFailedError(RuntimeError):
    """The pipelined execution diverged from the sequential program."""


@dataclass
class Analysis:
    """Everything the *compile* phase produced — no execution yet.

    This is the unit the artifact store serializes and ``repro serve``
    hands out: :func:`analyze` builds one from scratch, the warm path in
    :mod:`repro.service.compile` rebuilds an equivalent one from a
    stored artifact, and :func:`_finish` turns either into a
    :class:`TransformResult` by running the one (verified, measured)
    plan replay, its compare against the oracle and the simulation on
    top.  The oracle never reads an ``Analysis``: in :func:`transform`
    it is already running beside the compile that builds this one.
    """

    info: PipelineInfo
    schedule: ScheduleTree
    task_ast: TaskAst
    graph: TaskGraph
    legality: LegalityReport | None = None
    reduction: ReductionStats | None = None
    tuning: object | None = None  # repro.tuning.TunedPlan
    #: a PortfolioReport, for callers that build an Analysis themselves
    #: (the driver does not fill it)
    portfolio: object | None = None
    plan: object | None = None  # repro.schedule.PrivatizationPlan
    joins: tuple = ()
    privatized: bool = False
    #: None for a direct compile; "cold" / "warm" when a store was used
    cache_status: str | None = None


def transform(
    source_or_program: str | Program,
    params: Mapping[str, int] | None = None,
    options: TransformOptions | None = None,
    funcs: Mapping | None = None,
    cache_dir: str | None = None,
) -> TransformResult:
    """Detect, schedule, verify and simulate the cross-loop pipeline.

    With ``verify`` the program executes exactly twice — the sequential
    oracle and one replay of the lowered plan, whose arrays must be
    bit-identical (see :func:`_finish`).  The oracle depends on the
    interpreter alone, so it starts on a helper thread
    (:func:`start_oracle`) as soon as the interpreter exists; the
    compile and the replay run on the calling thread beside it, and the
    compare waits for it only after the replay.  A ``tune`` compile
    times its own replays, so the oracle starts after it instead.  An
    exception on the calling thread propagates at once: nothing waits
    for the helper.

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
    pending = (
        start_oracle(interp) if options.verify and not options.tune else None
    )
    if cache_dir is not None and isinstance(source_or_program, str):
        from .service.compile import cached_analysis
        from .store import ArtifactStore

        analysis, _ = cached_analysis(
            interp, source_or_program, params, options,
            ArtifactStore(cache_dir),
        )
    else:
        analysis = analyze(interp, options)
    if options.verify and pending is None:
        pending = start_oracle(interp)
    return _finish(interp, options, analysis, pending)


def replay_backend(options: TransformOptions) -> str:
    """The backend of the transform's replay — and of the tuner's."""
    return options.exec_backend or VERIFY_BACKEND


#: Option pairs that do not compose, as ``(option, option, reason)`` —
#: every option named here is off (``False`` / ``None``) by default, so
#: "set" is truthiness.  Consulted by :func:`validate_options` and
#: nowhere else; every other pair either composes on the one spine of
#: :func:`analyze` or is not a pair at all.
INCOMPATIBLE_OPTIONS = (
    (
        "reduce_deps",
        "hybrid",
        "hybrid relaxes the per-statement chains the reduction relies on",
    ),
    (
        "privatize",
        "tune",
        "chunking of privatized statements is set by privatize_parts",
    ),
)


def validate_options(options: TransformOptions) -> None:
    """Refuse a value no option takes, or a row of
    :data:`INCOMPATIBLE_OPTIONS` (``ValueError``), before any work."""
    parts = options.privatize_parts
    expected = {
        "fuse": (options.fuse in ("auto", "on", "off"), "auto, on or off"),
        "exec_backend": (
            options.exec_backend is None
            or options.exec_backend in BACKEND_ALIASES,
            "None or one of " + ", ".join(BACKEND_ALIASES),
        ),
        "tune": (isinstance(options.tune, bool), "a bool"),
        "coarsen": (_positive(options.coarsen), "an int >= 1"),
        "workers": (_positive(options.workers), "an int >= 1"),
        "privatize_parts": (
            parts is None or _positive(parts), "None or an int >= 1"
        ),
    }
    for name, (ok, what) in expected.items():
        if not ok:
            raise ValueError(
                f"{name}={getattr(options, name)!r}: expected {what}"
            )
    for first, second, reason in INCOMPATIBLE_OPTIONS:
        if getattr(options, first) and getattr(options, second):
            raise ValueError(
                f"{first} is incompatible with {second}: {reason}"
            )


def _positive(value) -> bool:
    return isinstance(value, int) and value >= 1


def build_task_graph(
    task_ast: TaskAst, plan=None
) -> tuple[TaskGraph, tuple]:
    """The task graph of this AST: ``(graph, joins)``.

    Which nests are chained is the AST's own data; the one choice left
    here is the join tasks of a privatized compile (``plan`` has
    verified groups: one join per accumulator, named in ``joins``) —
    for a fresh compile and for one rebuilt from a stored artifact
    alike.
    """
    if plan is not None and plan.groups:
        from .schedule import build_privatized_graph

        graph, joins = build_privatized_graph(task_ast, plan)
        return graph, tuple(joins)
    return TaskGraph.from_task_ast(task_ast), ()


def analyze(interp: Interpreter, options: TransformOptions) -> Analysis:
    """The compile phase: SCoP analysis through checked task graph.

    One spine for every option.  Privatization is a step on it, not a
    second pipeline: a plan with verified groups relaxes the same
    dependence and scheduling problem (its statements are re-blocked
    into unordered chunks before scheduling, its proofs' removed pairs
    are subtracted in the legality check after), and a plan
    without groups leaves every step the standard one.

    Pure with respect to array contents — nothing here executes the
    kernel (granularity *tuning* replays its ladder's rungs, but those
    are measurements, not outputs).  The returned
    :class:`Analysis` is exactly what the artifact store persists.
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

    if privatized:
        from .schedule import privatize_info
        from .scop.validate import validate_scop

        # The plan's statements write their accumulator non-injectively
        # by design (hence the waivers), and the relaxed legality check
        # needs every dependence class pipelined: ``kinds`` is widened
        # to all of them here.
        validate_scop(
            scop, reduction_waivers=plan.statements
        ).raise_if_invalid()
        info = detect_pipeline(
            scop, kinds=tuple(DepKind), validate=False,
            coarsen=options.coarsen,
        )
        info = privatize_info(
            info, plan,
            parts=options.privatize_parts or max(2, options.workers),
        )
    else:
        info = detect_pipeline(
            scop, kinds=options.kinds, coarsen=options.coarsen
        )

    tuning = None
    if options.tune:
        from .tuning import auto_tune

        backend = replay_backend(options)
        with span("driver.tune", backend=backend):
            tuning = auto_tune(interp, info, backend, options.workers)
        info = tuning.info

    reduction: ReductionStats | None = None
    if options.reduce_deps:
        info, reduction = reduce_dependencies(info)

    schedule = build_schedule(info)
    task_ast = generate_task_ast(info, schedule)
    if privatized:
        task_ast = task_ast.unchained(plan.statements)
    if options.hybrid:
        with span("driver.relax_self_chains"):
            task_ast = relax_self_chains(scop, info, task_ast)
    with span("driver.task_graph", privatize=privatized):
        graph, joins = build_task_graph(task_ast, plan)

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
        info=info,
        schedule=schedule,
        task_ast=task_ast,
        graph=graph,
        legality=legality,
        reduction=reduction,
        tuning=tuning,
        plan=plan,
        joins=joins,
        privatized=privatized,
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

    The ``processes`` backend resolves a pending oracle *before* its run:
    the pool forks its workers, and a fork while the helper holds the
    span buffer's or the Presburger cache's lock (a recording span
    opening or closing takes both) would hand a worker a lock nobody
    releases — a worker that records spans needs both.
    """
    if backend == "processes" and isinstance(oracle, PendingOracle):
        oracle = oracle.wait()
    run = dict(
        backend=backend,
        workers=workers,
        collect_events=collect_events,
        task_ast=a.task_ast,
        graph=a.graph,
    )
    if a.privatized:
        from .interp import execute_privatized

        out, stats = execute_privatized(interp, a.info, a.plan, **run)
    else:
        out, stats = execute_measured(interp, a.info, **run)
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
    """One plan replay, one compare against ``oracle``; then simulation.

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
    verifying = (
        span("driver.verify", backend=backend)
        if oracle is not None
        else nullcontext()
    )
    with verifying as verify_span:
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

    sim = simulate(a.graph, workers=options.workers)
    return TransformResult(
        scop=interp.scop,
        info=a.info,
        schedule=a.schedule,
        task_ast=a.task_ast,
        graph=a.graph,
        options=options,
        legality=a.legality,
        verified=None if oracle is None else True,
        simulation=sim,
        execution=execution,
        reduction=a.reduction,
        tuning=a.tuning,
        privatization=a.plan,
        joins=a.joins,
        match_detail=verdict[1] if verdict is not None else "",
        cache_status=a.cache_status,
    )
