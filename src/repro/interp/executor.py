"""Measured execution of pipelined task programs.

Everything upstream of this module *analyzes* or *simulates*; here the
generated task program actually runs against real arrays, timed, on one
of three backends:

* ``serial`` — blocks execute immediately at creation order (the
  tasking-disabled baseline, same block kernels);
* ``threads`` — :class:`~repro.tasking.backends.FuturesBackend` thread
  pool (shared address space, GIL-limited for scalar bodies, overlaps
  NumPy kernels and blocking calls);
* ``processes`` — :class:`~repro.tasking.backends.ProcessBackend`
  worker processes over a :class:`~repro.interp.store.SharedArrayStore`
  (true multi-core execution).

:func:`execute_measured` returns the mutated store plus an
:class:`ExecutionStats` record carrying wall time and the fused
coverage of the plan — blocks whose statement has no fused kernel ran
on the compiled-loop path, and the per-statement ``fused_fallback``
records say why.  Bench traces embed this record (see
``repro.bench.trace``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..obs import runtime as obs_runtime
from ..obs.spans import span
from .interp import Interpreter
from .store import ArrayStore

if TYPE_CHECKING:
    from ..obs.runtime import RuntimeTrace

BACKENDS = ("serial", "threads", "processes")
#: Accepted spellings for each backend name.
BACKEND_ALIASES = {
    "serial": "serial",
    "thread": "threads",
    "threads": "threads",
    "threading": "threads",
    "process": "processes",
    "processes": "processes",
}


@dataclass(frozen=True)
class ExecutionStats:
    """What one measured execution did and how long it took."""

    backend: str
    workers: int
    wall_time: float
    blocks_total: int
    iterations_total: int
    scheduler: dict | None = None  # backend dispatch statistics
    #: live runtime events of the run (None unless collect_events);
    #: per-task timestamps are on the parent's monotonic clock — worker
    #: processes report ``monotonic_ns`` rebased through a calibrated
    #: per-worker offset, never raw ``perf_counter`` values
    events: "RuntimeTrace | None" = None
    #: privatized-reduction summary (arrays, parts, join labels) when
    #: the run came from :func:`repro.interp.privexec.execute_privatized`
    privatization: dict | None = None
    #: resolved fuse mode of the interpreter that ran
    fuse: str = "off"
    #: blocks / statement instances dispatched as fused closures (chain
    #: members count individually so coverage stays comparable)
    blocks_fused: int = 0
    iterations_fused: int = 0
    #: per-statement dispatch path actually planned for this run:
    #: "fused" / "interp"
    dispatch_modes: dict[str, str] = field(default_factory=dict)
    #: per-statement fusion refusals: {stmt: {"reason": ..., "code": RPA06x}}
    fused_fallback: dict[str, dict] = field(default_factory=dict)
    #: merged block-chains executed as single tasks, e.g. (("S", "T"),)
    fused_chains: tuple[tuple[str, ...], ...] = ()
    #: backend task id -> unfused-graph task ids it executed (empty when
    #: no chains were merged, i.e. ids already align); lets collected
    #: events be expanded back onto the unfused task graph
    task_members: tuple[tuple[int, ...], ...] = ()

    @property
    def fused_block_coverage(self) -> float:
        """Fraction of blocks that ran as fused closures."""
        return self.blocks_fused / self.blocks_total if (
            self.blocks_total
        ) else 0.0

    @property
    def fused_iteration_coverage(self) -> float:
        """Fraction of statement instances that ran as fused closures."""
        return self.iterations_fused / self.iterations_total if (
            self.iterations_total
        ) else 0.0

    def as_dict(self) -> dict:
        """JSON-ready form for traces and bench reports."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "fuse": self.fuse,
            "wall_time_s": self.wall_time,
            "blocks_total": self.blocks_total,
            "blocks_fused": self.blocks_fused,
            "iterations_total": self.iterations_total,
            "iterations_fused": self.iterations_fused,
            "fused_block_coverage": round(self.fused_block_coverage, 4),
            "fused_iteration_coverage": round(
                self.fused_iteration_coverage, 4
            ),
            "dispatch_modes": dict(self.dispatch_modes),
            "fused_fallback": dict(self.fused_fallback),
            "fused_chains": [list(c) for c in self.fused_chains],
            "task_members": [list(m) for m in self.task_members],
            "scheduler": self.scheduler,
            "runtime": (
                self.events.summary_dict() if self.events is not None else None
            ),
            "privatization": self.privatization,
        }

    def summary(self) -> str:
        fused = 100.0 * self.fused_iteration_coverage
        return (
            f"{self.backend} ({self.workers} workers, fuse={self.fuse}): "
            f"{self.wall_time * 1e3:.1f} ms, "
            f"{self.blocks_total} blocks, {fused:.0f}% iterations fused"
        )


def plan_coverage(ast, fprog) -> dict:
    """The coverage fields of :class:`ExecutionStats` for running ``ast``
    under fusion plan ``fprog`` (None: fusion off)."""
    blocks_total = iters_total = blocks_fused = iters_fused = 0
    dispatch_modes: dict[str, str] = {}
    for nest in ast.nests:
        fused = fprog is not None and fprog.get(nest.statement) is not None
        dispatch_modes[nest.statement] = "fused" if fused else "interp"
        for block in nest.blocks:
            size = len(block.iterations)
            blocks_total += 1
            iters_total += size
            if fused:
                blocks_fused += 1
                iters_fused += size
    return {
        "blocks_total": blocks_total,
        "iterations_total": iters_total,
        "blocks_fused": blocks_fused,
        "iterations_fused": iters_fused,
        "dispatch_modes": dispatch_modes,
        "fused_fallback": fprog.fallbacks() if fprog is not None else {},
    }


def execute_measured(
    interp: Interpreter,
    info,
    backend: str = "serial",
    workers: int = 4,
    store: ArrayStore | None = None,
    cost_of_block: Callable | None = None,
    collect_events: bool = False,
) -> tuple[ArrayStore, ExecutionStats]:
    """Emit the pipelined task program for ``info`` and actually run it.

    The store (a fresh deterministic one unless given) is mutated in
    place and returned with timing/coverage statistics.  Every backend
    executes the identical task program, so results are bit-comparable
    across backends and against :meth:`Interpreter.run_sequential`.

    Tasks are created straight from the task AST with the same packed
    ``dependArr`` addressing the emitted source programs use (see
    :mod:`repro.codegen.emit`) — but payloads keep their NumPy iteration
    arrays instead of round-tripping through Python literals, so the
    timing measures kernel execution, not source re-parsing.
    """
    from ..codegen.emit import statement_columns, statement_packers
    from ..schedule import generate_task_ast
    from ..tasking import FuturesBackend, ProcessBackend, SerialBackend

    backend = BACKEND_ALIASES.get(backend, backend)
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; choose from {BACKENDS}"
        )
    from .fused import plan_chain_groups, rectangles

    ast = generate_task_ast(info)
    columns = statement_columns(ast)
    packers = statement_packers(ast)
    write_num = len(columns)
    cost = cost_of_block or (lambda b: float(b.size))
    if store is None:
        store = interp.new_store()

    fprog = interp.fused_program if interp.fuse != "off" else None

    # Fused dispatch plan: one entry per task stream.  Singleton groups
    # keep the per-nest task structure; longer groups are fusion-legal
    # block-chains merged into a single task per block index.  Merged
    # task ids are mapped back to unfused-graph ids via ``task_members``
    # so event collection and the profiler keep working under merging.
    if fprog is not None:
        groups, _ = plan_chain_groups(interp.scop, ast, fprog)
    else:
        groups = [[nest] for nest in ast.nests]

    fused_chains = tuple(
        tuple(n.statement for n in g) for g in groups if len(g) > 1
    )

    # Per-group task stream: label, fused kernel (None -> run_block
    # ladder), member nests.  Chain kernels were registered on the fused
    # program by plan_chain_groups, so they precede backend construction
    # and reach worker processes with the rest of the plan.
    group_rows = []
    for group in groups:
        if len(group) == 1:
            label = group[0].statement
        else:
            label = "+".join(n.statement for n in group)
        kernel = fprog.get(label) if fprog is not None else None
        group_rows.append((label, kernel, group))

    # Stable synthetic ids for merged chain tasks: backend task ids are
    # assigned in creation order (group_rows × blocks), the *unfused*
    # graph's ids in AST order (nests × blocks).  ``task_members[t]``
    # lists the unfused ids a backend task executed, so collected events
    # can be expanded back onto the graph the profiler joins against.
    merged = any(len(g) > 1 for g in groups)
    task_members: tuple[tuple[int, ...], ...] = ()
    if merged:
        offsets: dict[str, int] = {}
        acc = 0
        for nest in ast.nests:
            offsets[nest.statement] = acc
            acc += len(nest.blocks)
        rows: list[tuple[int, ...]] = []
        for _label, _kernel, group in group_rows:
            for b in range(len(group[-1].blocks)):
                rows.append(
                    tuple(offsets[n.statement] + b for n in group)
                )
        task_members = tuple(rows)

    if backend == "serial":
        system = SerialBackend(write_num)
    elif backend == "threads":
        system = FuturesBackend(write_num, workers=workers)
    else:  # processes
        system = ProcessBackend(write_num, interp, store, workers=workers)

    def task_body(payload) -> None:
        interp.run_block(store, payload["statement"], payload["iters"])

    # One function object per task stream: backends key their funcCount
    # self-chain (serializing same-stream blocks) on func identity.  A
    # fused stream's hot path is a single closure call over rectangles
    # precomputed at task-creation time — no per-task interpretation.
    stream_funcs = {}
    for label, kernel, _group in group_rows:
        if kernel is not None:
            stream_funcs[label] = (
                lambda payload, _k=kernel: _k.run_rects(
                    store, interp.funcs, payload["rects"]
                )
            )
        else:
            stream_funcs[label] = (
                lambda payload, _f=task_body: _f(payload)
            )

    def build_tasks() -> None:
        for label, kernel, group in group_rows:
            last = group[-1]
            col = columns[last.statement]
            packer = packers[last.statement]
            members = {n.statement for n in group}
            for b, block in enumerate(last.blocks):
                blocks = [n.blocks[b] for n in group]
                if len(group) == 1:
                    in_tok = list(block.in_tokens)
                else:
                    # union of member tokens minus in-chain ones (same- or
                    # earlier-index member work is ordered by the merged
                    # task itself / its self-chain)
                    seen = set()
                    in_tok = []
                    for blk in blocks:
                        for s, end in blk.in_tokens:
                            if s in members:
                                continue
                            key = (s, tuple(end))
                            if key not in seen:
                                seen.add(key)
                                in_tok.append((s, end))
                payload = {"statement": label, "iters": blocks[0].iterations}
                if kernel is not None:
                    payload["rects"] = rectangles(blocks[0].iterations)
                system.create_task(
                    stream_funcs[label],
                    payload,
                    out_depend=packer.pack(block.end),
                    out_idx=col,
                    in_depend=[packers[s].pack(end) for s, end in in_tok],
                    in_idx=[columns[s] for s, _ in in_tok],
                    cost=sum(cost(blk) for blk in blocks),
                    statement=label,
                )

    # The serial backend executes inside create_task, so the collector
    # must span task creation as well as the run.
    runtime_trace = None
    with span("exec.measured", backend=backend, workers=workers):
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
    # Both parallel backends report dispatch statistics (work-stealing
    # steals / ready-batch counts); the serial backend returns None.
    scheduler = result if isinstance(result, dict) else None

    stats = ExecutionStats(
        backend=backend,
        workers=workers if backend != "serial" else 1,
        wall_time=wall,
        scheduler=scheduler,
        events=runtime_trace,
        fuse=interp.fuse,
        fused_chains=fused_chains,
        task_members=task_members,
        **plan_coverage(ast, fprog),
    )
    return store, stats
