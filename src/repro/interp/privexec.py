"""Measured execution of privatized reduction schedules.

:func:`execute_privatized` is the runtime half of the privatization
transformation (:mod:`repro.schedule.privatize`): it runs the re-blocked
task program with one *private accumulator buffer per member block* and
one generated *join task per reduction group*:

* every private is allocated with the accumulator's shape and filled
  with the operator-group identity (``sum`` → 0, ``product`` → 1,
  ``min`` → +inf, ``max`` → −inf), so a block that updates its private
  computes exactly "its updates applied to the identity" — which makes
  the join the plain group operator even for ``-=`` updates (the private
  accumulates the negated sum, and adding it to the base is the original
  semantics);
* member blocks are created ``chain=False`` (their mutual order is
  exactly what the verified proof relaxed) and execute against a *proxy*
  store that aliases the accumulator name onto the block's private — the
  compiled loop bodies and fused kernels read
  ``store.arrays[name]`` and run unchanged;
* the join task folds the privates into the base accumulator in one
  fixed, ascending creation order inside a single task, so all
  privatized backends (serial / threads / processes) produce
  **bit-identical** accumulators for the same part count — only the
  comparison against *sequential* needs an associativity-aware tolerance
  for sum/product (min/max and exact-integer sums match bitwise there
  too).

Private buffers are injected into the caller's store for the run (the
process backend shares every store entry through one
:class:`~repro.interp.store.SharedArrayStore` segment) and removed again
before returning.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs import runtime as obs_runtime
from ..obs.spans import span
from .executor import (
    BACKEND_ALIASES,
    BACKENDS,
    ExecutionStats,
    plan_coverage,
)
from .interp import Interpreter
from .store import ArrayStore, ArrayView

if TYPE_CHECKING:
    from ..pipeline import PipelineInfo
    from ..schedule.privatize import PrivatizationPlan

#: The join's combining ufunc per operator group.  ``sum`` uses ``+``
#: even for ``-=`` idioms — see the module docstring.
GROUP_UFUNCS = {
    "sum": np.add,
    "product": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}

#: Accumulator comparisons against *sequential* execution that are exact
#: in float64 regardless of combine order.
EXACT_GROUPS = frozenset({"min", "max"})


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


def execute_privatized(
    interp: Interpreter,
    info: "PipelineInfo",
    plan: "PrivatizationPlan",
    backend: str = "serial",
    workers: int = 4,
    store: ArrayStore | None = None,
    cost_of_block: Callable | None = None,
    collect_events: bool = False,
) -> tuple[ArrayStore, ExecutionStats]:
    """Run the privatized task program for ``info`` under ``plan``.

    ``info`` must already be the *privatized* pipeline info
    (:func:`repro.schedule.privatize.privatize_info`), i.e. member
    statements re-blocked into chunks.  The plan is re-validated here —
    a tampered group (wrong identity, unverified proof) stops execution.
    """
    from ..codegen.emit import statement_columns, statement_packers
    from ..schedule import generate_task_ast
    from ..schedule.privatize import join_label
    from ..tasking import FuturesBackend, ProcessBackend, SerialBackend

    backend = BACKEND_ALIASES.get(backend, backend)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; choose from {BACKENDS}"
        )
    plan.validate()  # tamper guard on the execution path
    if not plan.groups:
        from .executor import execute_measured

        return execute_measured(
            interp,
            info,
            backend=backend,
            workers=workers,
            store=store,
            cost_of_block=cost_of_block,
            collect_events=collect_events,
        )

    ast = generate_task_ast(info)
    columns = statement_columns(ast)
    packers = statement_packers(ast)
    # one extra out column per reduction group for the join tasks
    write_num = len(columns) + len(plan.groups)
    cost = cost_of_block or (lambda b: float(b.size))
    if store is None:
        store = interp.new_store()

    # forced here so the lazy plan build stays outside the timed run
    fprog = interp.fused_program if interp.fuse != "off" else None

    # ------------------------------------------------------------------
    # allocate + identity-initialize one private per member block
    # ------------------------------------------------------------------
    group_of_stmt = {
        s: g for g in plan.groups for s in g.statements
    }
    privates: dict[str, list[str]] = {g.array: [] for g in plan.groups}
    block_priv: dict[tuple[str, int], str] = {}
    for nest in ast.nests:
        group = group_of_stmt.get(nest.statement)
        if group is None:
            continue
        base = store.arrays[group.array]
        for block in nest.blocks:
            name = private_name(group.array, len(privates[group.array]))
            if name in store.arrays:
                raise ValueError(
                    f"private buffer name {name!r} collides with a "
                    "program array"
                )
            data = np.full_like(base.data, group.identity)
            store.arrays[name] = ArrayView(name, data, base.offsets)
            privates[group.array].append(name)
            block_priv[(nest.statement, block.block_id)] = name

    if backend == "serial":
        system = SerialBackend(write_num)
    elif backend == "threads":
        system = FuturesBackend(write_num, workers=workers)
    else:  # processes
        system = ProcessBackend(write_num, interp, store, workers=workers)

    def task_body(payload) -> None:
        st = store
        remap = payload.get("remap")
        if remap:
            st = ArrayStore(
                {**store.arrays, **{
                    acc: store.arrays[priv] for acc, priv in remap.items()
                }}
            )
        interp.run_block(st, payload["statement"], payload["iters"])

    def join_body(payload) -> None:
        apply_combine(store, payload["combine"])

    stmt_funcs = {
        nest.statement: (lambda payload, _f=task_body: _f(payload))
        for nest in ast.nests
    }
    join_funcs = {
        g.array: (lambda payload, _f=join_body: _f(payload))
        for g in plan.groups
    }

    def build_tasks() -> None:
        member_tokens: dict[str, list[tuple[int, int]]] = {
            g.array: [] for g in plan.groups
        }
        for nest in ast.nests:
            col = columns[nest.statement]
            packer = packers[nest.statement]
            group = group_of_stmt.get(nest.statement)
            for block in nest.blocks:
                in_dep = [packers[s].pack(end) for s, end in block.in_tokens]
                in_idx = [columns[s] for s, _ in block.in_tokens]
                payload = {
                    "statement": nest.statement,
                    "iters": block.iterations,
                }
                if group is not None:
                    payload["remap"] = {
                        group.array: block_priv[(nest.statement, block.block_id)]
                    }
                    member_tokens[group.array].append(
                        (packer.pack(block.end), col)
                    )
                system.create_task(
                    stmt_funcs[nest.statement],
                    payload,
                    out_depend=packer.pack(block.end),
                    out_idx=col,
                    in_depend=in_dep,
                    in_idx=in_idx,
                    cost=cost(block),
                    # privatized blocks commute — no funcCount self chain
                    chain=group is None,
                    statement=nest.statement,
                )
        # one join task per group, waiting on every member block's token
        for k, g in enumerate(plan.groups):
            tokens = member_tokens[g.array]
            system.create_task(
                join_funcs[g.array],
                {
                    "statement": join_label(g.array),
                    "iters": np.empty((0, 1), dtype=np.int64),
                    "combine": {
                        "array": g.array,
                        "group": g.group,
                        "privates": list(privates[g.array]),
                    },
                },
                out_depend=0,
                out_idx=len(columns) + k,
                in_depend=[d for d, _ in tokens],
                in_idx=[ix for _, ix in tokens],
                cost=1.0,
                statement=join_label(g.array),
            )

    runtime_trace = None
    try:
        with span(
            "exec.privatized",
            backend=backend,
            workers=workers,
            groups=len(plan.groups),
            privates=sum(len(v) for v in privates.values()),
        ):
            if collect_events:
                with obs_runtime.collecting(backend, workers) as collector:
                    start = time.perf_counter()
                    build_tasks()
                    result = system.run(workers=workers)
                    wall = time.perf_counter() - start
                runtime_trace = collector.trace()
            else:
                start = time.perf_counter()
                build_tasks()
                result = system.run(workers=workers)
                wall = time.perf_counter() - start
    finally:
        # the privates are scratch — callers only see program arrays
        for names in privates.values():
            for name in names:
                store.arrays.pop(name, None)
    scheduler = result if isinstance(result, dict) else None

    stats = ExecutionStats(
        backend=backend,
        workers=workers if backend != "serial" else 1,
        wall_time=wall,
        scheduler=scheduler,
        events=runtime_trace,
        fuse=interp.fuse,
        **plan_coverage(ast, fprog),
        privatization={
            "arrays": list(privates),
            "groups": {g.array: g.group for g in plan.groups},
            "parts": {
                s: sum(
                    1 for key in block_priv if key[0] == s
                )
                for s in sorted(plan.statements)
            },
            "privates": sum(len(v) for v in privates.values()),
            "joins": [join_label(g.array) for g in plan.groups],
        },
    )
    return store, stats


def privatized_matches(
    plan: "PrivatizationPlan",
    sequential: ArrayStore,
    privatized: ArrayStore,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> tuple[bool, str]:
    """Group-aware comparison of a privatized run against sequential.

    Non-accumulator arrays and ``min``/``max`` accumulators must match
    **bit-exactly** (reordering min/max is exact in float64); ``sum`` and
    ``product`` accumulators are compared with an explicit
    associativity-aware tolerance, because the join applies the operator
    in a different (but fixed) order than the sequential loop.
    """
    approx = {
        g.array for g in plan.groups if g.group not in EXACT_GROUPS
    }
    worst = ""
    for name in sorted(sequential.arrays):
        a = sequential.arrays[name].data
        b = privatized.arrays[name].data
        if name in approx:
            if not np.allclose(a, b, rtol=rtol, atol=atol):
                err = float(np.max(np.abs(a - b)))
                return False, f"{name}: max abs error {err:g} beyond tolerance"
            if not np.array_equal(a, b):
                worst = f"{name}: within tolerance (reassociated sum/product)"
        elif not np.array_equal(a, b):
            return False, f"{name}: exact comparison failed"
    return True, worst or "bit-exact"
