"""Lower once, replay many: the immutable task program behind the executors.

:func:`lower_exec_plan` turns ``(interpreter, pipeline info)`` — plus a
verified :class:`~repro.schedule.privatize.PrivatizationPlan`, if any —
into an :class:`ExecPlan`: task AST, fusion-legal chain groups, one
flat :class:`TaskRow` per task with its rectangle decomposition
(payloads keep NumPy iteration arrays, views into the AST's
:class:`~repro.schedule.astgen.TaskArrays`), and a compiled
:class:`~repro.tasking.dispatch.Schedule` — the rows and the schedule
built by the first replay that reads them, which the serial elision
never does (a one-shot pays for what it runs; the refusal of a task
that waits on one created after it is checked on every lowering).  A
row is one of two kinds:
a kernel row runs its stream's kernel
(:class:`~repro.interp.fused.FusedKernel`, one per statement or chain)
over its rectangles, a join row folds a reduction group's private
buffers.  The schedule is not derived on its own: it is the quotient,
over the rows, of the edges of the very task graph the analysis checks
(:func:`~repro.schedule.astgen.task_edges`, which
``TaskGraph.from_task_ast`` and ``build_privatized_graph`` build their
objects from), transitively reduced — what runs orders what was
proved.  No graph object is built to lower.  ``dependArr``
slots belong to generated programs (:mod:`repro.codegen.emit`) and play
no part here.  :func:`run_plan` replays the plan without calling
``create_task``, and picks the dispatch unit once for every backend:
serial walks the plan's serial elision (below), threads and the
process pool of :mod:`repro.tasking` walk its claims (below), and a
replay that collects events walks the rows.  Every unit runs
:func:`bind_rows`' row body, or :func:`bind_runs`' over it — pool
workers bind both to the plan they receive at start.  Everything
that depends on the *run* — store, stream closures, private buffers,
event collector, the copied join counters — is created there; the plan
itself is shared between runs and threads and is never mutated
(``repro serve`` replays one plan from several executor threads at
once) — apart from its claims caches, each entry set once, and the
structures its first readers build.

Plans are cached on the interpreter (:meth:`Interpreter.exec_plan`), so
``ExecutionStats.wall_time`` measures task submission + run, not
lowering; a replay builds the rows or schedule it reads before its
clock starts.

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

Claims: the parallel walk contracts the schedule.  An exact claim
(:func:`contract_claims`) is a maximal run of consecutive rows of one
stream in which every internal edge is its source row's only successor
and its target row's only predecessor — a chain nothing else waits on
or feeds.  Per-row dispatch would release no row at another point
relative to its producer, so running the claim as one unit loses no
overlap.  A stream can also be claimed *whole*: its claim is its
serial-elision :class:`StreamRun`, legal by the argument above, at the
price of delaying its consumers until the union call ends.  A whole
stream is a consecutive row range and creation order is topological, so
the claims' quotient stays acyclic.

The verdict (:func:`whole_streams`) answers one measured question:
could this work overlap on the CPUs this replay may use?  On a scratch
copy of the replay's store it times every unit of the serial elision
and of the exact claims — wall and thread CPU time — and the scheduler
alone over both.  However claims overlap on ``workers`` threads, they
take no less than their critical path, than their CPU share spread over
the usable CPUs (the process' affinity set, at most ``workers``), or
than their wall spread over the workers (:func:`overlap_bound`): a
blocked share — a stage that sleeps or waits — overlaps on every
worker, a CPU share only on a CPU.  Per plan (:func:`serial_wins`):
when that bound over the exact claims cannot beat the serial elision's
summed union calls, the verdict is every stream whole, chained in
creation order — the serial elision on the parallel backend, width 1,
so ``threads`` starts no helper.  Otherwise per stream
(:func:`claimed_whole`): a stream of more than one exact claim —
privatized members included — goes whole when even perfect overlap of
its claims could not beat its union call.  Dispatch is charged on both
sides: each claim its share of the scheduler's measured cost over the
exact claims, the serial elision the scheduler's cost over its chain.
So CPU-bound rows on one CPU go whole (the ledger's pinned host),
while a stage that blocks keeps its per-row claims there too.  The
measurement costs about four plan runs, which one replay can never win
back, so the first untraced ``threads`` or ``processes`` replay at a
worker count dispatches the exact claims (:attr:`ExecPlan.exact`) and
the second measures the verdict (:attr:`ExecPlan.claims`, per worker
count, set once): a one-shot never pays for it.  The verdict is taken
once, so it reflects that replay's host load as well as the plan.  Such
a replay runs the claims' quotient schedule, one ``run_rects`` call per
claim of an elided stream over the rectangles of its rows' union (a
claim's consecutive rows are a lex-contiguous range) and ``call(tid)``
per row of any other — a whole member stream still runs each row
against its own private, and its join is its one successor; collecting
replays keep the per-row schedule.  Fused P5 is one chain: its 196 rows
at N=14 are one claim; P10@14's producer chains go whole.

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

import os
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
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
    #: a kernel row's iters, rects [, remap]; a join row's combine
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
    whole: frozenset[int]  # indices into ``ExecPlan.runs`` claimed whole


@dataclass(frozen=True)
class ExecPlan:
    """The lowered task program of one ``(interpreter, info)`` pair.

    ``info``, ``ast``, ``fused`` and ``privatization`` are the cache
    key's referents — holding them keeps their ids from being recycled.  The
    interpreter is *not* held: it owns the plan cache, and a back
    reference would leave every interpreter (AST, rows and all) to the
    cycle collector instead of freeing it with its last reference.

    Lowering builds what every replay reads; ``rows``, ``schedule`` and
    ``exact`` are built by the first replay that reads them — the serial
    elision reads none of them — and ``members`` (cheap, from
    ``row_of``) by the first that reports it.  Racing first readers may
    each build one; the results are equal and the last stored wins.
    """

    info: object
    fused: object  # FusedProgram in force at lowering
    privatization: object  # PrivatizationPlan with groups, or None
    ast: "TaskAst"
    #: task streams -> their kernel (None: a join), in creation order
    streams: dict[str, FusedKernel | None]
    #: the serial elision: every stream, in creation order
    runs: tuple[StreamRun, ...]
    #: per reduction group: (accumulator, identity, private buffer names)
    privates: tuple[tuple[str, float, tuple[str, ...]], ...]
    #: the run-independent fields of :class:`ExecutionStats`
    stats: dict
    #: per graph task, the row that runs it
    row_of: np.ndarray = field(compare=False, repr=False)
    #: per row, where its stream's collapsing starts (quotient_schedule)
    floors: np.ndarray = field(compare=False, repr=False)
    #: worker count -> the claims untraced ``threads`` or ``processes``
    #: replays at that count dispatch from their second on, with the
    #: measured whole streams; set once (:func:`plan_claims`)
    claims: dict[int, Claims] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: worker counts an untraced parallel replay has run at
    replayed: set[int] = field(
        default_factory=set, compare=False, repr=False
    )

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the graph tasks it runs, ascending: backend task ids
        are creation order, the unfused graph's AST order, so collected
        events expand back onto the graph the profiler joins against."""
        order = np.argsort(self.row_of, kind="stable")
        bounds = np.searchsorted(
            self.row_of[order], np.arange(len(self.floors) + 1)
        ).tolist()
        ids = order.tolist()
        return tuple(
            tuple(ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        )

    @cached_property
    def rows(self) -> tuple[TaskRow, ...]:
        """One :class:`TaskRow` per task, in creation order, with its
        rectangle decomposition.  Its ``exec.rows`` span counts the
        rectangles of the kernel rows and how many of them ``run_rects``
        runs in loop form."""
        arrays = self.ast.arrays
        pgroups = getattr(self.privatization, "groups", ())
        accumulator = {s: g.array for g in pgroups for s in g.statements}
        names = {array: iter(ns) for array, _, ns in self.privates}
        joins = iter(zip(pgroups, self.privates))
        rows: list[TaskRow] = []
        n_rects = n_loop_rects = 0
        with span("exec.rows") as sp:
            for (label, kernel), run in zip(self.streams.items(), self.runs):
                if kernel is None:  # a join folds its group's privates
                    g, (_, _, privates) = next(joins)
                    rows.append(TaskRow(label, {"combine": {
                        "array": g.array,
                        "group": g.group,
                        "privates": list(privates),
                    }}))
                    continue
                sliced = kernel.spec.slice_form
                array = accumulator.get(label)
                for row in run.rows:
                    iters = arrays.iterations(self.members[row][0])
                    rects = rectangles(iters)
                    n_rects += len(rects)
                    n_loop_rects += sum(
                        takes_loop_form(lo, hi) for lo, hi in rects
                    ) if sliced else len(rects)
                    payload = {"iters": iters, "rects": rects}
                    if array is not None:
                        payload["remap"] = {array: next(names[array])}
                    rows.append(TaskRow(label, payload))
            sp.set(tasks=len(rows), rects=n_rects, loop_rects=n_loop_rects)
        return tuple(rows)

    @cached_property
    def schedule(self) -> "Schedule":
        """The task graph's reduced quotient over the rows (row = task
        id), taken again from the AST's edges (:func:`quotient_schedule`)."""
        from ..schedule.astgen import task_edges

        return quotient_schedule(
            task_edges(self.ast, self.privatization), self.row_of,
            self.floors,
        )

    @cached_property
    def exact(self) -> Claims:
        """The exact claims: what the first untraced ``threads`` or
        ``processes`` replay at a worker count dispatches, built by it
        (never by serial or collecting replays)."""
        return contract_claims(self)


def plan_claims(plan: ExecPlan, funcs, store, workers: int) -> Claims:
    """What an untraced parallel replay at ``workers`` dispatches: on the
    first at that count ``plan.exact``; on the second the claims of the
    verdict measured against ``store`` (left untouched), stored in
    ``plan.claims[workers]`` for every later one.  Concurrent replays
    may both measure; the first to store wins."""
    claims = plan.claims.get(workers)
    if claims is not None:
        return claims
    if workers not in plan.replayed:
        plan.replayed.add(workers)
        return plan.exact
    whole = whole_streams(plan, funcs, store, workers)
    return plan.claims.setdefault(workers, contract_claims(plan, whole))


def contract_claims(plan: ExecPlan, whole=frozenset()) -> Claims:
    """Contract every chain of ``plan.schedule`` into one claim, and
    every stream in ``whole`` (indices into ``plan.runs``) into its own
    serial-elision run.  When ``whole`` is every stream the claims are
    the serial elision itself, chained in creation order (which is
    topological): one unit at a time, so no helper starts.

    An exact claim is a maximal run of rows ``r..r+k`` of one stream
    whose internal edges are each the source row's only successor and
    the target row's only predecessor.  A claim of an elided stream runs
    over the rectangles of its rows' union: the stream's own when the
    claim is the whole stream, the row's when it is one row, decomposed
    here otherwise.
    """
    from ..tasking.dispatch import Schedule

    if len(whole) == len(plan.runs):
        return Claims(
            plan.runs, chain_schedule(len(plan.runs)), frozenset(whole)
        )
    counts, succs = plan.schedule.counts, plan.schedule.succs
    runs: list[StreamRun] = []
    for k, run in enumerate(plan.runs):
        if k in whole:
            runs.append(run)
            continue
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
    return Claims(tuple(runs), Schedule.from_preds(preds), frozenset(whole))


#: Rounds of :func:`whole_streams`' measurement.  On fresh plans of
#: coarse_p's P6@20 (2-core Xeon, Python 3.11) one round left its first
#: stream (claims 2.1-2.7x its union) per claim in 22 of 30 verdicts,
#: because its cold union call ran first; two rounds in 1 of 30.
VERDICT_ROUNDS = 2


class Cost(NamedTuple):
    """What one unit took when the verdict ran it, in seconds."""

    wall: float
    cpu: float  # of which its thread ran on a CPU (``time.thread_time``)


def usable_cpus(workers: int) -> int:
    """The CPUs ``workers`` threads of this process can overlap on: the
    process' affinity set (``os.cpu_count()`` where the platform has
    none), at most ``workers``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus))


def overlap_bound(costs, workers: int, critical: float = 0.0) -> float:
    """The least wall ``costs`` can take on ``workers`` threads however
    they overlap: no less than ``critical`` (a path through them) or the
    longest one, than their CPU share spread over the usable CPUs, or
    than their wall spread over the workers — a blocked share overlaps
    on every worker, a CPU share only on a CPU."""
    return max(
        critical,
        max((c.wall for c in costs), default=0.0),
        sum(c.cpu for c in costs) / usable_cpus(workers),
        sum(c.wall for c in costs) / workers,
    )


def claimed_whole(costs: dict, workers: int) -> frozenset:
    """The per-stream rule: of ``costs`` (stream -> (the :class:`Cost`
    of each of its exact claims, its union call's wall)), the streams
    whose claims could not beat the union call even perfectly
    overlapped."""
    return frozenset(
        k for k, (claims, union) in costs.items()
        if overlap_bound(claims, workers) >= union
    )


def serial_wins(
    costs, schedule: "Schedule", serial: float, workers: int
) -> bool:
    """The per-plan rule: whether ``costs`` (one :class:`Cost` per task
    of ``schedule``), however they overlap, could not beat ``serial`` —
    the bound counts the schedule's critical path."""
    start = [0.0] * len(costs)
    critical = 0.0
    for c, cost in enumerate(costs):  # task order is topological
        finish = start[c] + cost.wall
        critical = max(critical, finish)
        for s in schedule.succs[c]:
            start[s] = max(start[s], finish)
    return overlap_bound(costs, workers, critical) >= serial


def chain_schedule(n: int) -> "Schedule":
    """``n`` tasks, each waiting on the one before it: width 1, so
    ``run_threads`` starts no helper."""
    from ..tasking.dispatch import Schedule

    return Schedule.from_preds([{k - 1} if k else set() for k in range(n)])


def whole_streams(plan: ExecPlan, funcs, store, workers: int) -> frozenset:
    """The streams (indices into ``plan.runs``) to claim whole, measured
    here: every stream when no overlap of the exact claims could beat
    the serial elision, else those whose own claims could not beat their
    union call (module docstring).

    Candidates are streams of more than one exact claim, privatized
    members included; a plan whose exact claims are one chain and have
    no candidate is not measured.  On a scratch copy of ``store``
    (privates included; discarded) the plan runs in creation order as
    the serial elision and as the exact claims, timing each unit's wall
    and thread CPU, for :data:`VERDICT_ROUNDS` rounds, keeping each
    unit's least of each: a first call's one-time costs, or a
    preemption, inflate one round only.  Each round also times the
    scheduler alone: ``run_threads`` at ``workers`` over the exact
    claims' schedule and over the serial elision's chain, with bodies
    that do nothing.  A claim is charged its share of the first, as CPU
    work, and the serial elision the second: dispatch is paid whether
    or not the work overlaps.
    """
    from ..tasking.dispatch import run_threads

    exact = plan.exact
    stream_of = [k for k, run in enumerate(plan.runs) for _ in run.rows]
    owner = [stream_of[run.rows.start] for run in exact.runs]
    split = Counter(owner)
    candidates = [k for k in range(len(plan.runs)) if split[k] > 1]
    sched = exact.schedule
    if not candidates and len(sched.roots) <= 1 and all(
        len(ss) <= 1 for ss in sched.succs
    ):
        return frozenset()
    scratch = store.copy()
    call = bind_rows(funcs, plan.rows, plan.streams, scratch)
    chain = chain_schedule(len(plan.runs))

    def costs(units) -> list[Cost]:
        """Run ``units`` in order; each one's cost."""
        body = bind_runs(funcs, units, scratch, call)
        spent = []
        for k in range(len(units)):
            t0, c0 = time.perf_counter(), time.thread_time()
            body(k)
            spent.append(Cost(
                time.perf_counter() - t0, time.thread_time() - c0
            ))
        return spent

    def dispatch(schedule) -> float:
        t0 = time.perf_counter()
        run_threads(schedule, _skip, workers, None)
        return time.perf_counter() - t0

    def least(a: list[Cost], b: list[Cost]) -> list[Cost]:
        return [Cost(*map(min, x, y)) for x, y in zip(a, b)]

    never = Cost(float("inf"), float("inf"))
    union, claims = [never] * len(plan.runs), [never] * len(exact.runs)
    scheduled = chained = float("inf")
    for _ in range(VERDICT_ROUNDS):
        union = least(union, costs(plan.runs))
        claims = least(claims, costs(exact.runs))
        scheduled = min(scheduled, dispatch(sched))
        chained = min(chained, dispatch(chain))
    share = scheduled / len(claims)
    claims = [Cost(c.wall + share, c.cpu + share) for c in claims]
    serial = sum(u.wall for u in union) + chained
    if serial_wins(claims, sched, serial, workers):
        return frozenset(range(len(plan.runs)))
    return claimed_whole({
        k: (
            [c for c, o in zip(claims, owner) if o == k],
            union[k].wall + share,
        )
        for k in candidates
    }, workers)


def _skip(tid: int) -> None:
    """A task body that does nothing: the scheduler timed alone."""


def row_edges(edges, row_of) -> tuple[np.ndarray, np.ndarray]:
    """``edges``, the task graph's ``(src, dst)`` pair of id arrays
    (:func:`~repro.schedule.astgen.task_edges`), between the rows that
    run their tasks (``row_of[task]``).  Creation order must be
    topological: a row waiting on a later one is refused."""
    src, dst = (row_of[np.asarray(e, dtype=np.int64)] for e in edges)
    if np.any(src > dst):
        raise RuntimeError("a task waits on one created after it")
    return src, dst


def quotient_schedule(edges, row_of, floors) -> "Schedule":
    """The schedule of rows where row ``row_of[t]`` runs graph task ``t``.

    A row waits on the rows holding its tasks' predecessors
    (:func:`row_edges`).  Rows of one chained stream are ordered by the
    stream itself, so a predecessor at or after ``floors[row]`` (the
    stream's first row) collapses to the previous row; ``floors[row] ==
    row`` collapses nothing.  The row edges collapse in bulk: one sort
    of packed ``(dst, src)`` keys leaves each row's distinct
    predecessors latest first.

    The schedule is transitively reduced
    (:func:`~repro.tasking.dispatch.transitive_reduction`): a row waits
    only on the rows no other of its predecessors already orders, so
    chains, hybrid relaxations and join tasks are pruned by the one
    pass, whatever options built the graph.  The graph itself — what
    ``check_legality`` checked — stays unreduced.
    """
    from ..tasking.dispatch import Schedule, transitive_reduction

    src, dst = row_edges(edges, row_of)
    src, dst = src[src != dst], dst[src != dst]
    floors = np.asarray(floors, dtype=np.int64)
    src = np.where(src >= floors[dst], dst - 1, src)
    n = len(floors)
    # dst ascending, src descending (keys are >= 0); a sort and a mask
    # of repeats, as np.unique's hash path on NumPy 2.4 costs ~10x that
    keys = np.sort(dst * n + (n - 1 - src))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    srcs = (n - 1 - keys % n).tolist()
    bounds = np.searchsorted(keys // n, np.arange(n + 1)).tolist()
    return Schedule.from_preds(transitive_reduction(
        [srcs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    ))


def lower_exec_plan(
    interp: "Interpreter", info, task_ast=None, privatization=None,
) -> ExecPlan:
    """Lower ``info`` (already privatized when ``privatization`` has
    groups) into an :class:`ExecPlan`; ``task_ast`` skips regenerating
    the AST the caller's analysis already holds.  Lowering reads the
    AST's :class:`~repro.schedule.astgen.TaskArrays` only — no task
    loop nest, no task graph object — and builds what every replay
    reads: the streams with their union rectangles, the privates, and
    which row runs which graph task, refusing a task that waits on one
    created after it.  The rows and the schedule are built by the
    first replay that dispatches rows."""
    from ..schedule import generate_task_ast
    from ..schedule.astgen import task_edges
    from ..schedule.privatize import join_label

    pgroups = privatization.groups if privatization is not None else ()
    fprog = interp.fused_program
    with span("exec.lower") as sp:
        ast = task_ast if task_ast is not None else generate_task_ast(info)
        arrays = ast.arrays
        starts = arrays.starts.tolist()

        # One task stream per group of nest indices.  Singletons keep
        # the per-nest task structure; longer groups are fusion-legal
        # block-chains merged into a single task per block index (their
        # kernels are registered on ``fprog`` by plan_chain_groups, so
        # they reach worker processes with the rest of the kernel
        # program).
        if pgroups:
            groups = [[k] for k in range(len(arrays.statements))]
        else:
            groups, _ = plan_chain_groups(interp.scop, ast, fprog)

        group_of = {s: g for g in pgroups for s in g.statements}
        names: dict[str, list[str]] = {g.array: [] for g in pgroups}
        parts: dict[str, int] = {}  # privatized statement -> its rows
        streams: dict[str, FusedKernel | None] = {}
        runs: list[StreamRun] = []
        # graph task ids are AST order (nests x blocks, then one join
        # per reduction group), rows creation order (groups x blocks,
        # then the joins); per row, where its stream's collapsing starts
        # (see quotient_schedule)
        row_of = np.empty(arrays.num_blocks + len(pgroups), dtype=np.int64)
        floors = np.empty(len(row_of), dtype=np.int64)
        tasks = 0  # rows so far
        for group in groups:
            label = chain_label(tuple(arrays.statements[k] for k in group))
            head, last = group[0], group[-1]
            pgroup = group_of.get(label)
            stream = range(tasks, tasks + starts[last + 1] - starts[last])
            tasks = stream.stop
            for k in group:
                row_of[starts[k] : starts[k] + len(stream)] = stream
            chained = arrays.chained[last] and pgroup is None
            floors[stream.start : stream.stop] = (
                stream.start if chained else stream
            )
            kernel = streams[label] = fprog.get(label)
            if pgroup is not None:  # each row against its own private
                privates = names[pgroup.array]
                privates += [
                    private_name(pgroup.array, len(privates) + b)
                    for b in range(len(stream))
                ]
                parts[label] = len(stream)
                runs.append(StreamRun(stream, None, ()))
                continue
            union = ()
            if stream:
                union = tuple(rectangles(arrays.nest_iterations(head)))
            runs.append(StreamRun(stream, kernel, union))
        for k, g in enumerate(pgroups):
            streams[join_label(g.array)] = None
            row_of[arrays.num_blocks + k] = floors[tasks] = tasks
            runs.append(StreamRun(range(tasks, tasks + 1), None, ()))
            tasks += 1
        floors = floors[:tasks]
        row_edges(task_edges(ast, privatization), row_of)

        chains = tuple(
            tuple(arrays.statements[k] for k in g)
            for g in groups if len(g) > 1
        )
        stats = dict(
            tasks=tasks,
            fuse=interp.fuse,
            fused_chains=chains,
            **plan_coverage(ast, fprog),
        )
        if pgroups:
            stats["privatization"] = {
                "arrays": [g.array for g in pgroups],
                "groups": {g.array: g.group for g in pgroups},
                "parts": {
                    s: parts.get(s, 0)
                    for s in sorted(privatization.statements)
                },
                "privates": sum(len(v) for v in names.values()),
                "joins": [join_label(g.array) for g in pgroups],
            }
        sp.set(tasks=tasks, chains=len(chains))
    return ExecPlan(
        info=info,
        fused=fprog,
        privatization=privatization,
        ast=ast,
        streams=streams,
        runs=tuple(runs),
        privates=tuple(
            (g.array, g.identity, tuple(names[g.array])) for g in pgroups
        ),
        stats=stats,
        row_of=row_of,
        floors=floors,
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


def bind_rows(
    funcs, rows: tuple[TaskRow, ...], kernels: dict, store
) -> Callable[[int], None]:
    """``call(tid)``: the body of row ``tid`` of a plan's ``rows``, its
    ``streams`` as ``kernels``, bound to this run's store — what every
    scheduler, in this process or a worker (and a bare loop over
    ``range(len(rows))``), executes: a join row folds its privates, a
    kernel row runs its stream's kernel over its rectangles."""

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
    funcs, runs: tuple[StreamRun, ...], store, call: Callable[[int], None]
) -> Callable[[int], None]:
    """``run(k)``: ``runs[k]`` bound to this run's store — a run with a
    kernel as one ``run_rects`` call over its union rectangles, any
    other as ``call(tid)`` per row."""

    def run(k: int) -> None:
        unit = runs[k]
        if unit.kernel is not None:
            unit.kernel.run_rects(store, funcs, unit.rects)
        else:
            for tid in unit.rows:
                call(tid)

    return run


def add_privates(store, plan: ExecPlan) -> list[str]:
    """Add ``plan``'s private buffers to ``store``, each shaped like its
    accumulator and filled with its group's identity; their names, for
    the caller to remove.  A name that is already a program array is
    refused before any is added."""
    added = [name for _, _, names in plan.privates for name in names]
    for name in added:
        if name in store.arrays:
            raise ValueError(
                f"private buffer name {name!r} collides with a "
                "program array"
            )
    for array, identity, names in plan.privates:
        base = store.arrays[array]
        for name in names:
            data = np.full_like(base.data, identity)
            store.arrays[name] = ArrayView(name, data, base.offsets)
    return added


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

    scratch = add_privates(store, plan)  # private buffers for this run
    try:
        name, attrs = "exec.measured", {}
        if plan.privates:
            name = "exec.privatized"
            attrs = {"groups": len(plan.privates), "privates": len(scratch)}
        collecting = (
            obs_runtime.collecting(backend, workers)
            if collect_events
            else nullcontext()
        )
        with span(name, backend=backend, workers=workers, **attrs) as sp:
            with collecting as collector:
                active = obs_runtime.current()
                # The dispatch unit, chosen here for every backend:
                # events are per task, so a collecting replay walks the
                # rows; an untraced serial one the stream runs (the
                # elision), threads and processes the claims — their
                # verdict measured before the clock starts, like
                # lowering.
                whole = frozenset()
                if active is not None:
                    runs, schedule = None, plan.schedule
                elif backend == "serial":
                    runs, schedule = plan.runs, None
                else:
                    runs, schedule, whole = plan_claims(
                        plan, interp.funcs, store, workers
                    )
                # rows are built, once per plan, only for units that
                # run them: not for an elided stream with a kernel
                call = None
                if runs is None or any(u.kernel is None for u in runs):
                    call = bind_rows(
                        interp.funcs, plan.rows, plan.streams, store
                    )
                start = time.perf_counter()
                body = call if runs is None else bind_runs(
                    interp.funcs, runs, store, call
                )
                label = lambda tid: plan.rows[tid].stream  # noqa: E731
                if backend == "serial":
                    units = plan.stats["tasks"] if runs is None else len(runs)
                    run_serial(range(units), body, label, active)
                    result = None if runs is None else {
                        "policy": "stream-runs", "runs": len(runs)
                    }
                elif backend == "threads":
                    result = run_threads(
                        schedule, body, workers, label, active
                    )
                else:
                    result = run_processes(
                        interp.funcs, store, plan, runs, schedule, workers
                    )
                if backend != "serial":  # units dispatched, rows run,
                    # streams dispatched as one claim
                    result["claims"] = result["tasks"]
                    result["tasks"] = plan.stats["tasks"]
                    result["whole"] = len(whole)
                    sp.set(claims=result["claims"], whole=len(whole))
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
        task_members=plan.members if plan.stats["fused_chains"] else (),
        **plan.stats,
    )
    return store, stats
