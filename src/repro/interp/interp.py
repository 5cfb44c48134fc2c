"""Reference sequential interpreter, and the kernels blocks run.

:class:`Interpreter` executes a kernel program in its original
sequential order against an :class:`~repro.interp.store.ArrayStore`
(:meth:`~Interpreter.run_sequential`, the one function
:func:`~repro.interp.compile.compile_program` generates).  This is the
correctness oracle: every transformed execution (task runtime,
generated code, any topological order of the task graph) must produce
bit-identical arrays.  Everything else runs blocks through the one
kernel per statement of :attr:`~Interpreter.fused_program`, built on
first use — constructing an interpreter generates no code.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Mapping

import numpy as np

from ..lang.ast import Call, Program, walk_expr
from ..scop import Scop, extract_scop
from .compile import compile_program, elementwise
from .fused import FusedProgram, fuse_scop
from .store import ArrayStore

#: Default opaque functions for kernels written with f/g/h-style calls.
#: Deterministic, order-sensitive (non-commutative beyond the first
#: argument) so reordering bugs change the result.
DEFAULT_FUNCS: dict[str, Callable] = {}

#: Lowered task programs (and the relaxed task ASTs
#: ``execute_privatized`` builds from an info) kept per interpreter
#: (LRU, :meth:`Interpreter.cached`).  A caller that
#: scans blockings (one ``detect_pipeline`` per coarsening) pushes one
#: pipeline info per candidate through one interpreter; a served or
#: benchmarked kernel replays one or two.
EXEC_PLAN_CACHE_SIZE = 8

#: Most bytes of sequential-oracle arrays an interpreter retains
#: (:meth:`Interpreter.oracle`), and separately of initial arrays
#: (:meth:`Interpreter.new_store`), so a kernel keeps at most twice this.
#: A kernel whose arrays are larger keeps none of them and recomputes on
#: every call; the Table 9 and reduction kernels the ledger serves are
#: under 100 KiB each.
ORACLE_KEEP_BYTES = 1 << 20


@elementwise
def _mix(*args: float) -> float:
    # Pure float64 arithmetic — maps over NumPy arrays with bit-identical
    # results, so fused block kernels may call it on whole slices.
    acc = 1.0
    for k, a in enumerate(args):
        acc = (acc * 31.0 + (k + 1) * a) % 65521.0
    return acc


for _name in ("f", "g", "h", "u", "v", "w", "compute", "dot"):
    DEFAULT_FUNCS[_name] = _mix

# min/max are real ufuncs (not _mix): the reduction kernels rely on
# their associativity, which the pattern portfolio proves and the fuzz
# campaign exercises.
DEFAULT_FUNCS["min"] = np.minimum
DEFAULT_FUNCS["max"] = np.maximum


class Interpreter:
    """Sequential executor for an extracted SCoP and its source program."""

    def __init__(
        self,
        program: Program,
        scop: Scop,
        funcs: Mapping[str, Callable] | None = None,
        vectorize: str | None = None,
        fuse: str | None = None,
    ):
        # ``vectorize`` is the deprecated spelling of ``fuse`` (the tier it
        # selected is gone); this is the one place the alias resolves.
        if fuse is None:
            fuse = "auto" if vectorize is None else vectorize
        if fuse not in ("auto", "on", "off"):
            raise ValueError(
                "fuse must be 'auto', 'on' or 'off' (vectorize is its "
                f"deprecated alias), got {fuse!r}"
            )
        self.program = program
        self.scop = scop
        self.funcs = dict(DEFAULT_FUNCS)
        if funcs:
            self.funcs.update(funcs)
        self.fuse = fuse
        self._fused_program: FusedProgram | None = None
        self._exec_plans: OrderedDict = OrderedDict()
        self._sequential: Callable | None = None
        self._oracle: ArrayStore | None = None
        self._inputs: ArrayStore | None = None
        #: guards the lazily built, shared structures: the kernel program,
        #: the execution-plan cache and the sequential oracle function
        #: (re-entrant: lowering reads ``fused_program``)
        self._lock = threading.RLock()
        #: guards the retained oracle arrays for the whole computation;
        #: its own lock, so lowering never waits behind an in-flight
        #: oracle (taken before ``_lock``, never after)
        self._oracle_lock = threading.Lock()
        missing = {
            e.func
            for stmt in scop.statements
            for e in walk_expr(stmt.assign.value)
            if isinstance(e, Call) and e.func not in self.funcs
        }
        if missing:
            raise KeyError(f"no implementation for functions: {sorted(missing)}")
        if fuse == "on":
            # Fail at construction, not mid-execution: ``on`` asserts full
            # coverage, so build the plan (and its SemanticError naming
            # every non-fusable statement) eagerly.
            self.fused_program

    # ------------------------------------------------------------------
    @staticmethod
    def from_source(
        source_or_program: str | Program,
        params: Mapping[str, int],
        funcs: Mapping[str, Callable] | None = None,
        vectorize: str | None = None,
        fuse: str | None = None,
    ) -> "Interpreter":
        from ..lang import parse
        from ..obs.spans import span

        if isinstance(source_or_program, str):
            with span("frontend.parse"):
                program = parse(source_or_program)
        else:
            program = source_or_program
        scop = extract_scop(program, dict(params))
        return Interpreter(program, scop, funcs, vectorize=vectorize, fuse=fuse)

    @property
    def fused_program(self) -> FusedProgram:
        """The kernel of every statement, built on first use: slice forms
        where the gate admits them (``--fuse on`` asserts it admits every
        statement), the loop form only under ``fuse="off"``."""
        if self._fused_program is None:
            with self._lock:  # racing first readers must agree on one plan
                if self._fused_program is None:
                    plan = fuse_scop(
                        self.scop, self.funcs, gate=self.fuse != "off"
                    )
                    if self.fuse == "on":
                        plan.require_full()
                    self._fused_program = plan
        return self._fused_program

    def adopt_fused(self, program: FusedProgram) -> None:
        """Install a kernel program built elsewhere (a warm load reads
        the stored one instead of re-running the Presburger legality
        analysis)."""
        self._fused_program = program

    def exec_plan(self, info, task_ast=None):
        """The lowered task program for ``info`` (see
        :mod:`repro.interp.plan`): lowered on first use, then replayed.

        Keyed by identity of what is lowered (``task_ast`` — one
        ``info`` has a raw and a relaxed one — else ``info``) and of the
        kernel program in force (:meth:`cached`).
        """
        from .plan import lower_exec_plan

        lowered = task_ast if task_ast is not None else info
        return self.cached(
            ("plan", id(lowered), id(self.fused_program)),
            lambda: lower_exec_plan(self, info, task_ast),
        )

    def cached(self, key: tuple, build: Callable):
        """``build()``, kept under ``key`` among this interpreter's last
        :data:`EXEC_PLAN_CACHE_SIZE` results.  A key names its referents
        by id, so what is built must hold them: an id cannot be recycled
        while its entry lives.  Building is under the lock: concurrent
        first calls pay once."""
        with self._lock:
            value = self._exec_plans.get(key)
            if value is not None:
                self._exec_plans.move_to_end(key)
                return value
            value = self._exec_plans[key] = build()
            if len(self._exec_plans) > EXEC_PLAN_CACHE_SIZE:
                self._exec_plans.popitem(last=False)
            return value

    # ------------------------------------------------------------------
    def new_store(self) -> ArrayStore:
        """A fresh, writable copy of the kernel's initial arrays.

        They are :meth:`ArrayStore.for_scop`'s ``index`` fill, a pure
        function of the SCoP, so the first call builds them, freezes
        them and retains them while they fit :data:`ORACLE_KEEP_BYTES`;
        every call returns a C-contiguous copy of its own, which a
        replay mutates.  Racing first callers each build equal arrays
        and take no lock, so neither lowering nor an in-flight oracle
        makes a replay wait.  A larger kernel retains nothing and
        builds the arrays on every call.
        """
        kept = self._inputs
        if kept is None:
            store = ArrayStore.for_scop(self.scop)
            if store.nbytes > ORACLE_KEEP_BYTES:
                return store
            for view in store.arrays.values():
                view.data.setflags(write=False)
            self._inputs = kept = store
        return kept.copy()

    def run_sequential(self, store: ArrayStore) -> ArrayStore:
        """Execute the program in original order (handles imperfect nests):
        a full sequential scalar execution on Python floats, as one
        generated function (:func:`~repro.interp.compile.compile_program`)
        built on first use.  ``store``'s written arrays are replaced when
        the program returns; one that raises leaves them untouched."""
        if self._sequential is None:
            with self._lock:
                if self._sequential is None:
                    self._sequential = compile_program(
                        self.program, self.scop
                    )
        return self._sequential(store, self.funcs)

    def oracle(self, span_name: str = "interp.oracle") -> ArrayStore:
        """The arrays of ``run_sequential(new_store())``, read-only.

        They are a pure function of the interpreter (program, params,
        ``funcs`` and the deterministic initial arrays, whose retained
        copy :meth:`new_store` hands over), so they are computed
        once, under a lock of their own — concurrent first callers pay
        once, and :meth:`exec_plan` / :attr:`fused_program` on another
        thread do not wait for them — and
        retained while they fit :data:`ORACLE_KEEP_BYTES`; a larger
        kernel retains nothing and recomputes on every call.  Every
        array is frozen: a replay that aliased one fails loudly instead
        of corrupting the reference.  The computation, and only it, runs
        under a span named by the caller (``driver.oracle`` /
        ``serve.oracle``).  :meth:`run_sequential` stays the uncached
        primitive for callers with inputs of their own.
        """
        from ..obs.spans import span

        def compute(store: ArrayStore, kept: bool) -> ArrayStore:
            with span(span_name, bytes=store.nbytes, kept=kept):
                self.run_sequential(store)
                for view in store.arrays.values():
                    view.data.setflags(write=False)
            return store

        if self._oracle is not None:
            return self._oracle
        with self._oracle_lock:
            if self._oracle is not None:
                return self._oracle
            store = self.new_store()
            if store.nbytes <= ORACLE_KEEP_BYTES:
                self._oracle = compute(store, kept=True)
                return self._oracle
        # over the bound nothing is shared, so nothing needs the lock
        return compute(store, kept=False)

    @property
    def oracle_bytes(self) -> int:
        """Bytes of oracle arrays this interpreter retains (0: none)."""
        kept = self._oracle
        return kept.nbytes if kept is not None else 0

    @property
    def input_bytes(self) -> int:
        """Bytes of initial arrays this interpreter retains (0: none)."""
        kept = self._inputs
        return kept.nbytes if kept is not None else 0

    # ------------------------------------------------------------------
    def run_block(
        self, store: ArrayStore, statement: str, iterations: np.ndarray
    ) -> None:
        """Execute one pipeline block (a batch of iterations of a
        statement): the statement's kernel over the block's rectangles,
        in lexicographic order."""
        self.fused_program.get(statement)(store, self.funcs, iterations)
