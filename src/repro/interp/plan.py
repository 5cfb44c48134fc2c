"""Lower once, replay many: the immutable task program behind the executors.

:func:`lower_exec_plan` turns ``(interpreter, pipeline info)`` — plus a
verified :class:`~repro.schedule.privatize.PrivatizationPlan`, if any —
into an :class:`ExecPlan`: task AST, fusion-legal chain groups, and one
flat :class:`TaskRow` per task with its rectangle decomposition and
packed ``dependArr`` slots already computed (the addressing of
:mod:`repro.codegen.emit`; payloads keep NumPy iteration arrays instead
of round-tripping through Python literals).  :func:`run_plan` replays
the rows on a backend.  Everything that depends on the *run* — store,
stream closures, private accumulator buffers, event collector, backend —
is created there; the plan itself is shared between runs and threads and
is never mutated (``repro serve`` replays one plan from several executor
threads at once).

Plans are cached on the interpreter (:meth:`Interpreter.exec_plan`), so
``ExecutionStats.wall_time`` measures task submission + run, not
lowering.

Privatized plans: every member block gets a private buffer shaped like
the accumulator and filled with the operator-group identity (``sum`` →
0, ``product`` → 1, ``min`` → +inf, ``max`` → −inf), so it computes "its
updates applied to the identity" and the join is the plain group
operator even for ``-=``.  Member rows are ``chain=False`` (their mutual
order is what the verified proof relaxed) and run against a proxy store
aliasing the accumulator onto the private — compiled loops and fused
kernels read ``store.arrays[name]`` and run unchanged.  One join row per
group waits on every member token and folds the privates into the base
in ascending creation order inside a single task, so all backends
produce bit-identical accumulators for one part count.  Privates live in
the caller's store for the run (the process backend shares every entry
through one SharedArrayStore segment) and are removed before returning.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
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
    """One ``create_task`` call, fully lowered.  Read-only: backends keep
    references to ``payload`` and its contents but never write to them."""

    stream: str  # task-stream label: statement, chain ``S+T`` or join
    payload: dict  # statement, iters [, rects] [, remap] [, combine]
    out_depend: int
    out_idx: int
    in_depend: tuple[int, ...]
    in_idx: tuple[int, ...]
    blocks: tuple  # member TaskBlocks — what ``cost_of_block`` is applied to
    cost: float  # default cost (instance count; 1.0 for a join)
    chain: bool  # funcCount self chain (off for privatized members)


@dataclass(frozen=True)
class ExecPlan:
    """The lowered task program of one ``(interpreter, info)`` pair.

    ``info``, ``fused`` and ``privatization`` are the cache key's
    referents — holding them keeps their ids from being recycled.  The
    interpreter is *not* held: it owns the plan cache, and a back
    reference would leave every interpreter (AST, rows and all) to the
    cycle collector instead of freeing it with its last reference.
    """

    info: object
    fused: object  # FusedProgram in force at lowering (None: fuse off)
    privatization: object  # PrivatizationPlan with groups, or None
    ast: "TaskAst"
    write_num: int
    #: task streams -> fused kernel dispatched directly (None: the
    #: combine / remap / run_block ladder, as in the worker processes)
    streams: dict[str, FusedKernel | None]
    rows: tuple[TaskRow, ...]
    #: per reduction group: (accumulator, identity, private buffer names)
    privates: tuple[tuple[str, float, tuple[str, ...]], ...]
    #: the run-independent fields of :class:`ExecutionStats`
    stats: dict


def _external_tokens(blocks, members) -> list:
    """In-tokens of one task.  A merged chain task waits on the union of
    its members' tokens minus in-chain ones (same- or earlier-index
    member work is ordered by the merged task itself / its self chain)."""
    if len(blocks) == 1:
        return list(blocks[0].in_tokens)
    seen = set()
    out = []
    for blk in blocks:
        for s, end in blk.in_tokens:
            key = (s, tuple(end))
            if s not in members and key not in seen:
                seen.add(key)
                out.append((s, end))
    return out


def lower_exec_plan(
    interp: "Interpreter", info, task_ast=None, privatization=None
) -> ExecPlan:
    """Lower ``info`` (already privatized when ``privatization`` has
    groups) into an :class:`ExecPlan`; ``task_ast`` skips regenerating
    the AST the caller's analysis already holds."""
    from ..codegen.emit import statement_columns, statement_packers
    from ..schedule import generate_task_ast
    from ..schedule.privatize import join_label

    pgroups = privatization.groups if privatization is not None else ()
    fprog = interp.fused_program if interp.fuse != "off" else None
    with span("exec.lower") as sp:
        ast = task_ast if task_ast is not None else generate_task_ast(info)
        columns = statement_columns(ast)
        packers = statement_packers(ast)

        # One task stream per group.  Singletons keep the per-nest task
        # structure; longer groups are fusion-legal block-chains merged
        # into a single task per block index (their kernels are
        # registered on ``fprog`` by plan_chain_groups, so they reach
        # worker processes with the rest of the fusion plan).
        if fprog is not None and not pgroups:
            groups, _ = plan_chain_groups(interp.scop, ast, fprog)
        else:
            groups = [[nest] for nest in ast.nests]

        group_of = {s: g for g in pgroups for s in g.statements}
        names: dict[str, list[str]] = {g.array: [] for g in pgroups}
        member_slots: dict[str, list] = {g.array: [] for g in pgroups}
        streams: dict[str, FusedKernel | None] = {}
        rows: list[TaskRow] = []
        # rectangles of directly dispatched kernels, and how many of
        # them are small enough for ``run_rects`` to pick the loop form
        n_rects = n_loop_rects = 0
        for group in groups:
            label = chain_label(tuple(n.statement for n in group))
            last = group[-1]
            col = columns[last.statement]
            members = {n.statement for n in group}
            pgroup = group_of.get(label)
            # A fused stream's hot path is one closure call over the
            # precomputed rectangles; member blocks of a reduction go
            # through run_block against their proxy store instead.
            kernel = None
            if fprog is not None and pgroup is None:
                kernel = fprog.get(label)
            streams[label] = kernel
            for b, block in enumerate(last.blocks):
                blocks = tuple(n.blocks[b] for n in group)
                in_tok = _external_tokens(blocks, members)
                out = packers[last.statement].pack(block.end)
                payload = {"statement": label, "iters": blocks[0].iterations}
                if kernel is not None:
                    rects = payload["rects"] = rectangles(
                        blocks[0].iterations
                    )
                    n_rects += len(rects)
                    n_loop_rects += sum(
                        takes_loop_form(lo, hi) for lo, hi in rects
                    )
                if pgroup is not None:
                    private = private_name(
                        pgroup.array, len(names[pgroup.array])
                    )
                    names[pgroup.array].append(private)
                    payload["remap"] = {pgroup.array: private}
                    member_slots[pgroup.array].append((out, col))
                rows.append(TaskRow(
                    label, payload, out, col,
                    tuple(packers[s].pack(end) for s, end in in_tok),
                    tuple(columns[s] for s, _ in in_tok),
                    blocks, float(sum(blk.size for blk in blocks)),
                    chain=pgroup is None,
                ))
        # one extra out column per reduction group for its join task
        for k, g in enumerate(pgroups):
            label = join_label(g.array)
            slots = member_slots[g.array]
            streams[label] = None
            payload = {
                "statement": label,
                "iters": np.empty((0, 1), dtype=np.int64),
                "combine": {
                    "array": g.array,
                    "group": g.group,
                    "privates": list(names[g.array]),
                },
            }
            rows.append(TaskRow(
                label, payload, 0, len(columns) + k,
                tuple(d for d, _ in slots), tuple(ix for _, ix in slots),
                (), 1.0, chain=True,
            ))

        # Backend task ids are assigned in creation order (groups ×
        # blocks), the *unfused* graph's ids in AST order (nests ×
        # blocks).  ``task_members[t]`` lists the unfused ids backend
        # task ``t`` executed, so collected events can be expanded back
        # onto the graph the profiler joins against.
        chains = tuple(
            tuple(n.statement for n in g) for g in groups if len(g) > 1
        )
        task_members: tuple[tuple[int, ...], ...] = ()
        if chains:
            first: dict[str, int] = {}
            acc = 0
            for nest in ast.nests:
                first[nest.statement] = acc
                acc += len(nest.blocks)
            task_members = tuple(
                tuple(first[n.statement] + b for n in group)
                for group in groups
                for b in range(len(group[-1].blocks))
            )
        stats = dict(
            fuse=interp.fuse,
            fused_chains=chains,
            task_members=task_members,
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
        write_num=len(columns) + len(pgroups),
        streams=streams,
        rows=tuple(rows),
        privates=tuple(
            (g.array, g.identity, tuple(names[g.array])) for g in pgroups
        ),
        stats=stats,
    )


def _stream_func(interp, store, kernel) -> Callable:
    """The body of one task stream, bound to this run's store.  One
    function object per stream: backends key their funcCount self chain
    (serializing same-stream blocks) on func identity."""
    funcs = interp.funcs
    if kernel is not None:
        return lambda payload: kernel.run_rects(store, funcs, payload["rects"])

    def run(payload) -> None:
        if "combine" in payload:
            return apply_combine(store, payload["combine"])
        st = store
        remap = payload.get("remap")
        if remap:
            st = ArrayStore(
                {**store.arrays, **{
                    acc: store.arrays[priv] for acc, priv in remap.items()
                }}
            )
        interp.run_block(st, payload["statement"], payload["iters"])

    return run


def run_plan(
    interp: "Interpreter",
    plan: ExecPlan,
    backend: str = "serial",
    workers: int = 4,
    store: ArrayStore | None = None,
    cost_of_block: Callable | None = None,
    collect_events: bool = False,
) -> tuple[ArrayStore, ExecutionStats]:
    """Replay ``plan`` (lowered by ``interp``) on ``backend`` against
    ``store`` — a fresh deterministic one unless given — which is
    mutated in place and returned with timing/coverage statistics."""
    from ..tasking import FuturesBackend, ProcessBackend, SerialBackend

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

        if backend == "serial":
            system = SerialBackend(plan.write_num)
        elif backend == "threads":
            system = FuturesBackend(plan.write_num, workers=workers)
        else:  # processes
            system = ProcessBackend(
                plan.write_num, interp, store, workers=workers
            )
        funcs = {
            label: _stream_func(interp, store, kernel)
            for label, kernel in plan.streams.items()
        }
        create = system.create_task
        name, attrs = "exec.measured", {}
        if plan.privates:
            name = "exec.privatized"
            attrs = {"groups": len(plan.privates), "privates": len(scratch)}
        # The serial backend executes inside create_task, so the
        # collector must span task creation as well as the run.
        collecting = (
            obs_runtime.collecting(backend, workers)
            if collect_events
            else nullcontext()
        )
        with span(name, backend=backend, workers=workers, **attrs):
            with collecting as collector:
                start = time.perf_counter()
                for row in plan.rows:
                    (label, payload, out, col, in_dep, in_idx, blocks, cost,
                     chain) = row
                    if cost_of_block is not None and blocks:
                        cost = sum(cost_of_block(blk) for blk in blocks)
                    # positional: the CreateTask signature every backend shares
                    create(
                        funcs[label], payload, out, col, in_dep, in_idx,
                        cost, label, chain,
                    )
                result = system.run(workers=workers)
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
        # Both parallel backends report dispatch statistics (work-stealing
        # steals / ready-batch counts); the serial backend returns None.
        scheduler=result if isinstance(result, dict) else None,
        events=events,
        **plan.stats,
    )
    return store, stats
