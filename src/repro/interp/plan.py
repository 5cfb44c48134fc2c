"""Lower once, replay many: the immutable task program behind the executors.

:func:`lower_exec_plan` turns ``(interpreter, pipeline info)`` — plus a
verified :class:`~repro.schedule.privatize.PrivatizationPlan`, if any —
into an :class:`ExecPlan`: task AST, fusion-legal chain groups, one
flat :class:`TaskRow` per task with its rectangle decomposition already
computed (payloads keep NumPy iteration arrays), and a compiled
:class:`~repro.tasking.dispatch.Schedule`.  A row is one of two kinds:
a kernel row runs its stream's kernel
(:class:`~repro.interp.fused.FusedKernel`, one per statement or chain)
over its rectangles, a join row folds a reduction group's private
buffers.  The schedule is not derived on its own: it is the quotient,
over the rows, of the very :class:`~repro.tasking.task.TaskGraph` the
analysis checks (``TaskGraph.from_task_ast``, or
``build_privatized_graph`` for a plan with reduction groups) — what
runs is what was proved.  ``dependArr``
slots belong to generated programs (:mod:`repro.codegen.emit`) and play
no part here.  :func:`run_plan` replays the plan — processes hand the
schedule to the process pool of :mod:`repro.tasking`, threads hand it
its claims (below), serial runs the plan's serial elision
(:func:`run_stream_runs`) — without calling ``create_task``.  Everything
that depends on the *run* — store, stream closures, private buffers,
event collector, the copied join counters — is created there; the plan
itself is shared between runs and threads and is never mutated
(``repro serve`` replays one plan from several executor threads at
once).

Plans are cached on the interpreter (:meth:`Interpreter.exec_plan`), so
``ExecutionStats.wall_time`` measures task submission + run, not
lowering.

Serial elision: rows are created stream by stream, so the rows of one
task stream are consecutive, and a serial replay — one worker, creation
order — has no reason to pay one dispatch per row.  Per stream of
kernel rows against the program's own arrays, lowering also decomposes
the *union* of the stream's rows into rectangles
(:attr:`StreamRun.rects`), and an untraced serial replay is one
``run_rects`` call per such stream.  It is the same program: each union
rectangle is a contiguous lex range of the statement domain — the loop
form runs it in program order, and where the kernel has a slice form
the gate makes that form legal on it — and a chain's members are
pairwise fusion-legal at the instance level, so any lex-contiguous
chunking of ``S+T`` is legal — one rectangle over the whole domain is
plain program order.  Privatized members (each row against its own
private buffer) and joins keep one ``call(tid)`` per row, and so does
any replay that collects runtime events, which are per task by
contract.

Claims: the threaded walk contracts the schedule exactly.  A claim
(:func:`contract_claims`) is a maximal run of consecutive rows of one
stream in which every internal edge is its source row's only successor
and its target row's only predecessor — a chain nothing else waits on
or feeds.  Per-row dispatch would release no row at another point
relative to its producer, so running the claim as one unit loses no
overlap.  An untraced ``threads`` replay runs the claims' quotient
schedule, one ``run_rects`` call per claim of an elided stream over
the rectangles of its rows' union (legal by the argument above:
consecutive rows of a stream are a lex-contiguous range) and
``call(tid)`` per row of any other.  :attr:`ExecPlan.claims` is built
on the first such replay; collecting replays keep the per-row
schedule.  Fused P5 is one chain:
its 196 rows at N=14 are one claim.

Privatized plans: every member block gets a private buffer shaped like
the accumulator and filled with the operator-group identity (``sum`` →
0, ``product`` → 1, ``min`` → +inf, ``max`` → −inf), so it computes "its
updates applied to the identity" and the join is the plain group
operator even for ``-=``.  Member rows are unchained (their mutual
order is what the verified proof relaxed) and run against a proxy store
aliasing the accumulator onto the private — kernels read
``store.arrays[name]`` and run unchanged.  One join row per
group waits on every member row and folds the privates into the base
in ascending creation order inside a single task, so all backends
produce bit-identical accumulators for one part count.  Privates live in
the caller's store for the run (the process backend shares every entry
through one SharedArrayStore segment) and are removed before returning.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..obs import runtime as obs_runtime
from ..obs.spans import span
from .executor import BACKEND_ALIASES, BACKENDS, ExecutionStats, plan_coverage
from .fused import (
    FusedKernel,
    chain_label,
    plan_chain_groups,
    rectangles,
    takes_loop_form,
)
from .store import ArrayStore, ArrayView

if TYPE_CHECKING:
    from ..schedule import TaskAst
    from ..tasking import Schedule
    from .interp import Interpreter

#: The join's combining ufunc per operator group (``sum`` is ``+`` even
#: for ``-=``: the private holds the negated sum).
GROUP_UFUNCS = {
    "sum": np.add,
    "product": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def private_name(array: str, index: int) -> str:
    """Deterministic name of the ``index``-th private buffer of a group."""
    return f"__priv_{array}_{index}"


def apply_combine(store, combine: dict) -> None:
    """Fold a group's private buffers into the base accumulator.

    ``combine`` is the join-task payload
    ``{"array": name, "group": key, "privates": [names...]}``; privates
    combine in the listed (ascending creation) order so every backend
    produces the same bit pattern.
    """
    ufunc = GROUP_UFUNCS[combine["group"]]
    base = store.arrays[combine["array"]].data
    for name in combine["privates"]:
        ufunc(base, store.arrays[name].data, out=base)


class TaskRow(NamedTuple):
    """One task of the plan, fully lowered.  Read-only: backends keep
    references to ``payload`` and its contents but never write to them."""

    stream: str  # task-stream label: statement, chain ``S+T`` or join
    #: a kernel row's statement, iters, rects [, remap]; a join row's
    #: statement, combine
    payload: dict


class StreamRun(NamedTuple):
    """Consecutive rows of one task stream run as one unit: a whole
    stream (serial elision) or a claim (threaded walk)."""

    rows: range  # consecutive rows of one stream, in creation order
    #: None: one ``call(tid)`` per row (privatized members, joins)
    kernel: FusedKernel | None
    rects: tuple  # rectangles of the union of the rows' iterations


class Claims(NamedTuple):
    """The schedule with its chains contracted (module docstring)."""

    runs: tuple[StreamRun, ...]  # one per claim, in row order
    schedule: "Schedule"  # their quotient: claim index = task id


@dataclass(frozen=True)
class ExecPlan:
    """The lowered task program of one ``(interpreter, info)`` pair.

    ``info``, ``ast``, ``fused`` and ``privatization`` are the cache
    key's referents — holding them keeps their ids from being recycled.  The
    interpreter is *not* held: it owns the plan cache, and a back
    reference would leave every interpreter (AST, rows and all) to the
    cycle collector instead of freeing it with its last reference.
    """

    info: object
    fused: object  # FusedProgram in force at lowering
    privatization: object  # PrivatizationPlan with groups, or None
    ast: "TaskAst"
    #: task streams -> their kernel (None: a join)
    streams: dict[str, FusedKernel | None]
    rows: tuple[TaskRow, ...]
    schedule: "Schedule"  # the task graph's quotient (row index = task id)
    #: the serial elision: every stream, in creation order
    runs: tuple[StreamRun, ...]
    #: per reduction group: (accumulator, identity, private buffer names)
    privates: tuple[tuple[str, float, tuple[str, ...]], ...]
    #: the run-independent fields of :class:`ExecutionStats`
    stats: dict

    @cached_property
    def wire(self) -> tuple[tuple, ...]:
        """What the process backend ships per row, built on the first
        ``processes`` replay (never by serial/threads ones)."""
        from ..tasking.backends import wire_task

        return tuple(wire_task(row.stream, row.payload) for row in self.rows)

    @cached_property
    def claims(self) -> Claims:
        """What an untraced ``threads`` replay dispatches, built on the
        first one (never by serial/processes or collecting replays)."""
        return contract_claims(self)


def contract_claims(plan: ExecPlan) -> Claims:
    """Contract every chain of ``plan.schedule`` into one claim.

    A claim is a maximal run of rows ``r..r+k`` of one stream whose
    internal edges are each the source row's only successor and the
    target row's only predecessor.  A claim of an elided stream runs
    over the rectangles of its rows' union: the stream's own when the
    claim is the whole stream, the row's when it is one row, decomposed
    here otherwise.
    """
    from ..tasking.dispatch import Schedule

    counts, succs = plan.schedule.counts, plan.schedule.succs
    runs: list[StreamRun] = []
    for run in plan.runs:
        start = run.rows.start
        for row in run.rows:
            nxt = row + 1
            if nxt in run.rows and succs[row] == (nxt,) and counts[nxt] == 1:
                continue
            rows = range(start, nxt)
            if run.kernel is None or rows == run.rows:
                rects = run.rects  # () without a kernel
            elif len(rows) == 1:
                rects = plan.rows[start].payload["rects"]
            else:
                rects = tuple(rectangles(np.concatenate(
                    [plan.rows[r].payload["iters"] for r in rows]
                )))
            runs.append(StreamRun(rows, run.kernel, rects))
            start = nxt
    claim_of = [c for c, run in enumerate(runs) for _ in run.rows]
    preds: list[set[int]] = [set() for _ in runs]
    for row, ss in enumerate(succs):
        for s in ss:
            if claim_of[s] != claim_of[row]:
                preds[claim_of[s]].add(claim_of[row])
    return Claims(tuple(runs), Schedule.from_preds(preds))


def quotient_schedule(graph, members, floors) -> "Schedule":
    """The schedule of rows that each run the graph tasks ``members[row]``.

    A row waits on the rows holding its members' predecessors.  Rows of
    one chained stream are ordered by the stream itself, so a
    predecessor at or after ``floors[row]`` (the stream's first row)
    collapses to the previous row; ``floors[row] == row`` collapses
    nothing.  Creation order must be topological: a row waiting on a
    later one is refused.
    """
    from ..tasking.dispatch import Schedule

    row_of = {t: row for row, ts in enumerate(members) for t in ts}
    preds: list[set[int]] = []
    for row, (ts, floor) in enumerate(zip(members, floors)):
        ps = set()
        for t in ts:
            for p in graph.preds[t]:
                r = row_of[p]
                if r > row:
                    raise RuntimeError("a task waits on one created after it")
                if r != row:
                    ps.add(row - 1 if r >= floor else r)
        preds.append(ps)
    return Schedule.from_preds(preds)


def lower_exec_plan(
    interp: "Interpreter", info, task_ast=None, privatization=None,
    graph=None,
) -> ExecPlan:
    """Lower ``info`` (already privatized when ``privatization`` has
    groups) into an :class:`ExecPlan`; ``task_ast`` skips regenerating
    the AST the caller's analysis already holds, and ``graph`` — the
    checked task graph of that AST — skips rebuilding it."""
    from ..schedule import generate_task_ast
    from ..schedule.privatize import build_privatized_graph, join_label
    from ..tasking.task import TaskGraph

    pgroups = privatization.groups if privatization is not None else ()
    fprog = interp.fused_program
    with span("exec.lower") as sp:
        ast = task_ast if task_ast is not None else generate_task_ast(info)
        # the graph the analysis checks: graph task ids are AST order
        # (nests x blocks), then one join per reduction group
        if graph is None and pgroups:
            graph, _ = build_privatized_graph(ast, privatization)
        elif graph is None:
            graph = TaskGraph.from_task_ast(ast)

        # One task stream per group.  Singletons keep the per-nest task
        # structure; longer groups are fusion-legal block-chains merged
        # into a single task per block index (their kernels are
        # registered on ``fprog`` by plan_chain_groups, so they reach
        # worker processes with the rest of the kernel program).
        if pgroups:
            groups = [[nest] for nest in ast.nests]
        else:
            groups, _ = plan_chain_groups(interp.scop, ast, fprog)

        first: dict[str, int] = {}  # statement -> its first graph task
        n_tasks = 0
        for nest in ast.nests:
            first[nest.statement] = n_tasks
            n_tasks += len(nest.blocks)

        group_of = {s: g for g in pgroups for s in g.statements}
        names: dict[str, list[str]] = {g.array: [] for g in pgroups}
        streams: dict[str, FusedKernel | None] = {}
        rows: list[TaskRow] = []
        # per row: the graph tasks it runs, and where its stream's
        # collapsing starts (see quotient_schedule)
        members: list[tuple[int, ...]] = []
        floors: list[int] = []
        runs: list[StreamRun] = []
        # rectangles of all kernel rows, and how many of them
        # ``run_rects`` runs in loop form
        n_rects = n_loop_rects = 0
        for group in groups:
            label = chain_label(tuple(n.statement for n in group))
            last = group[-1]
            pgroup = group_of.get(label)
            first_row = len(rows)
            start = first_row if last.chained and pgroup is None else None
            kernel = streams[label] = fprog.get(label)
            sliced = kernel.fn is not None
            for b in range(len(last.blocks)):
                iters = group[0].blocks[b].iterations
                rects = rectangles(iters)
                n_rects += len(rects)
                n_loop_rects += sum(
                    takes_loop_form(lo, hi) for lo, hi in rects
                ) if sliced else len(rects)
                payload = {"statement": label, "iters": iters, "rects": rects}
                if pgroup is not None:
                    private = private_name(
                        pgroup.array, len(names[pgroup.array])
                    )
                    names[pgroup.array].append(private)
                    payload["remap"] = {pgroup.array: private}
                members.append(tuple(first[n.statement] + b for n in group))
                floors.append(len(rows) if start is None else start)
                rows.append(TaskRow(label, payload))
            stream = range(first_row, len(rows))
            if pgroup is not None:  # each row against its own private
                runs.append(StreamRun(stream, None, ()))
                continue
            union = ()
            if stream:
                union = tuple(rectangles(np.concatenate(
                    [rows[r].payload["iters"] for r in stream]
                )))
            runs.append(StreamRun(stream, kernel, union))
        for k, g in enumerate(pgroups):
            label = join_label(g.array)
            streams[label] = None
            members.append((n_tasks + k,))
            floors.append(len(rows))
            runs.append(StreamRun(range(len(rows), len(rows) + 1), None, ()))
            rows.append(TaskRow(label, {
                "statement": label,
                "combine": {
                    "array": g.array,
                    "group": g.group,
                    "privates": list(names[g.array]),
                },
            }))
        schedule = quotient_schedule(graph, members, floors)

        # Backend task ids are assigned in creation order (groups ×
        # blocks), the *unfused* graph's ids in AST order (nests ×
        # blocks).  ``task_members[t]`` lists the unfused ids backend
        # task ``t`` executed, so collected events can be expanded back
        # onto the graph the profiler joins against.
        chains = tuple(
            tuple(n.statement for n in g) for g in groups if len(g) > 1
        )
        stats = dict(
            tasks=len(rows),
            fuse=interp.fuse,
            fused_chains=chains,
            task_members=tuple(members) if chains else (),
            **plan_coverage(ast, fprog),
        )
        if pgroups:
            parts = {s: 0 for s in sorted(privatization.statements)}
            for row in rows:
                if "remap" in row.payload:
                    parts[row.stream] += 1
            stats["privatization"] = {
                "arrays": [g.array for g in pgroups],
                "groups": {g.array: g.group for g in pgroups},
                "parts": parts,
                "privates": sum(len(v) for v in names.values()),
                "joins": [join_label(g.array) for g in pgroups],
            }
        sp.set(
            tasks=len(rows), chains=len(chains),
            rects=n_rects, loop_rects=n_loop_rects,
        )
    return ExecPlan(
        info=info,
        fused=fprog,
        privatization=privatization,
        ast=ast,
        streams=streams,
        rows=tuple(rows),
        schedule=schedule,
        runs=tuple(runs),
        privates=tuple(
            (g.array, g.identity, tuple(names[g.array])) for g in pgroups
        ),
        stats=stats,
    )


def remapped(store, remap) -> ArrayStore:
    """``store``, or for a privatized member row (``remap``: accumulator
    -> private buffer name) the proxy store aliasing each accumulator
    onto its private."""
    if not remap:
        return store
    return ArrayStore({**store.arrays, **{
        acc: store.arrays[priv] for acc, priv in remap.items()
    }})


def run_task(interp, store, statement, rects, remap=None, combine=None):
    """Execute one row in a worker process (the arguments are a
    ``wire_task`` tuple): a join row (``combine``) folds its privates,
    a kernel row runs the kernel of ``statement`` — a statement or a
    chain label such as ``"S+T"`` — over ``rects``."""
    if combine is not None:
        return apply_combine(store, combine)
    interp.fused_program.get(statement).run_rects(
        remapped(store, remap), interp.funcs, rects
    )


def bind_rows(interp, plan: ExecPlan, store) -> Callable[[int], None]:
    """``call(tid)``: the body of row ``tid``, bound to this run's store
    — what every scheduler (and a bare loop over ``range(len(rows))``)
    executes: a join row folds its privates, a kernel row runs its
    stream's kernel over its rectangles."""
    funcs = interp.funcs
    rows, kernels = plan.rows, plan.streams

    def call(tid: int) -> None:
        stream, payload = rows[tid]
        kernel = kernels[stream]
        if kernel is None:
            apply_combine(store, payload["combine"])
        else:
            kernel.run_rects(
                remapped(store, payload.get("remap")), funcs,
                payload["rects"],
            )

    return call


def bind_runs(
    interp, runs: tuple[StreamRun, ...], store, call: Callable[[int], None]
) -> Callable[[int], None]:
    """``run(k)``: ``runs[k]`` bound to this run's store — a run with a
    kernel as one ``run_rects`` call over its union rectangles, any
    other as ``call(tid)`` per row."""
    funcs = interp.funcs

    def run(k: int) -> None:
        unit = runs[k]
        if unit.kernel is not None:
            unit.kernel.run_rects(store, funcs, unit.rects)
        else:
            for tid in unit.rows:
                call(tid)

    return run


def run_stream_runs(
    interp, plan: ExecPlan, store, call: Callable[[int], None]
) -> dict:
    """The serial elision (module docstring): the plan's streams in
    creation order.  Returns scheduling statistics."""
    run = bind_runs(interp, plan.runs, store, call)
    for k in range(len(plan.runs)):
        run(k)
    return {"policy": "stream-runs", "runs": len(plan.runs)}


def run_plan(
    interp: "Interpreter",
    plan: ExecPlan,
    backend: str = "serial",
    workers: int = 4,
    store: ArrayStore | None = None,
    collect_events: bool = False,
) -> tuple[ArrayStore, ExecutionStats]:
    """Replay ``plan`` (lowered by ``interp``) on ``backend`` against
    ``store`` — a fresh deterministic one unless given — which is
    mutated in place and returned with timing/coverage statistics."""
    from ..tasking.backends import run_processes
    from ..tasking.dispatch import run_serial, run_threads

    backend = BACKEND_ALIASES.get(backend, backend)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; choose from {BACKENDS}"
        )
    if store is None:
        store = interp.new_store()

    scratch: list[str] = []  # private buffers injected for this run
    try:
        for array, identity, names in plan.privates:
            base = store.arrays[array]
            for name in names:
                if name in store.arrays:
                    raise ValueError(
                        f"private buffer name {name!r} collides with a "
                        "program array"
                    )
                data = np.full_like(base.data, identity)
                store.arrays[name] = ArrayView(name, data, base.offsets)
                scratch.append(name)

        rows = plan.rows
        call = bind_rows(interp, plan, store)
        name, attrs = "exec.measured", {}
        if plan.privates:
            name = "exec.privatized"
            attrs = {"groups": len(plan.privates), "privates": len(scratch)}
        collecting = (
            obs_runtime.collecting(backend, workers)
            if collect_events
            else nullcontext()
        )
        with span(name, backend=backend, workers=workers, **attrs):
            with collecting as collector:
                start = time.perf_counter()
                active = obs_runtime.current()
                label = lambda tid: rows[tid].stream  # noqa: E731
                if backend == "serial" and active is None:
                    result = run_stream_runs(interp, plan, store, call)
                elif backend == "serial":  # events are per task: per row
                    result = run_serial(range(len(rows)), call, label)
                elif backend == "threads":
                    if active is None:  # one dispatch per claim
                        claims = plan.claims
                        result = run_threads(
                            claims.schedule,
                            bind_runs(interp, claims.runs, store, call),
                            workers,
                            lambda k: rows[claims.runs[k].rows[0]].stream,
                        )
                    else:  # events are per task: per row
                        result = run_threads(
                            plan.schedule, call, workers, label, active
                        )
                    result["claims"] = result["tasks"]
                    result["tasks"] = len(rows)
                else:  # processes
                    result = run_processes(
                        interp, store, plan.schedule, plan.wire, workers
                    )
                wall = time.perf_counter() - start
            events = collector.trace() if collector is not None else None
    finally:
        # the privates are scratch — callers only see program arrays
        for name in scratch:
            store.arrays.pop(name, None)

    stats = ExecutionStats(
        backend=backend,
        workers=workers if backend != "serial" else 1,
        wall_time=wall,
        # Both parallel schedulers report dispatch statistics
        # (work-stealing steals / ready-batch counts), the serial
        # elision its stream runs; a collecting serial replay has none.
        scheduler=result,
        events=events,
        **plan.stats,
    )
    return store, stats
