"""The ``CreateTask`` tasking API (Section 5.5, Figures 7–8).

The paper's code generator targets a minimal, language-agnostic tasking
layer: a single ``CreateTask`` entry point taking a function pointer, its
packed input, one *out* dependency slot and a list of *in* dependency
slots.  This module reimplements that layer on the task graph:

* ``dependArr`` is modelled as a dictionary of integer *slots*; a slot's
  address is ``write_num * depend + idx`` exactly as in Figure 8;
* OpenMP ``depend`` semantics are honoured in full (an *out* waits for the
  previous writer and all readers since; an *in* waits for the last
  writer);
* the ``funcCount`` self-chain of Figure 8 serializes tasks created from
  the same function pointer, i.e. blocks of the same loop nest.

Generated task programs (see :mod:`repro.codegen.emit`) call this API the
same way the paper's generated C calls the OpenMP wrapper, and
:class:`OmpTaskSystem` is the one implementation of it: ``run()``
executes the resulting graph on :func:`repro.tasking.execute` (the
work-stealing threads every in-process run shares).  Plan replays
(:mod:`repro.interp.plan`) take their schedule from the analysis' own
task graph and call no ``create_task``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .runtime import RunResult, execute
from .task import TaskGraph


@dataclass
class _SlotState:
    last_writer: int | None = None
    readers_since: list[int] = field(default_factory=list)


class OmpTaskSystem:
    """A task-graph-backed implementation of the CreateTask layer."""

    def __init__(self, write_num: int):
        if write_num < 1:
            raise ValueError("write_num must be positive")
        self.write_num = write_num
        self.graph = TaskGraph()
        self._slots: dict[int, _SlotState] = {}
        self._func_last: dict[object, int] = {}
        self._func_counts: dict[object, int] = {}

    def slot(self, depend: int, idx: int) -> int:
        """The ``dependArr`` address of a dependency token (Figure 8):
        ``write_num * depend + idx``, ``depend`` the packed block end and
        ``idx`` the statement column."""
        if not 0 <= idx < self.write_num:
            raise ValueError(
                f"idx {idx} out of range for write_num {self.write_num}"
            )
        return self.write_num * depend + idx

    def create_task(
        self,
        func: Callable[[object], None],
        task_input: object,
        out_depend: int,
        out_idx: int,
        in_depend: Sequence[int] = (),
        in_idx: Sequence[int] = (),
        cost: float = 1.0,
        statement: str | None = None,
        chain: bool = True,
    ) -> int:
        """Create one task (the Python analogue of Figure 7's signature).

        ``in_depend``/``in_idx`` are parallel arrays (``dependNum`` entries
        each).  Returns the task id.  ``chain=False`` opts this task out
        of the Figure 8 ``funcCount`` self chain (privatized reduction
        blocks commute with each other).
        """
        if len(in_depend) != len(in_idx):
            raise ValueError("in_depend and in_idx must have equal length")
        # addresses first: a refused call creates no task
        in_slots = [self.slot(d, ix) for d, ix in zip(in_depend, in_idx)]
        out_slot = self.slot(out_depend, out_idx)

        name = statement or getattr(func, "__name__", "task")
        count = self._func_counts.get(func, 0)
        self._func_counts[func] = count + 1
        tid = self.graph.add_task(
            statement=name,
            block_id=count,
            cost=cost,
            action=(lambda: func(task_input)),
        )

        # depend(in: dependArr[write_num*in_depend[k] + in_idx[k]])
        for slot in in_slots:
            state = self._slots.setdefault(slot, _SlotState())
            if state.last_writer is not None:
                self.graph.add_edge(state.last_writer, tid)
            state.readers_since.append(tid)

        # depend(in: self[funcCount-1]) / depend(out: self[funcCount])
        if chain:
            prev_same = self._func_last.get(func)
            if prev_same is not None:
                self.graph.add_edge(prev_same, tid)
            self._func_last[func] = tid

        # depend(out: dependArr[write_num*out_depend + out_idx])
        out_state = self._slots.setdefault(out_slot, _SlotState())
        if out_state.last_writer is not None:
            self.graph.add_edge(out_state.last_writer, tid)
        for reader in out_state.readers_since:
            if reader != tid:
                self.graph.add_edge(reader, tid)
        out_state.last_writer = tid
        out_state.readers_since = []
        return tid

    def run(self, workers: int = 4) -> RunResult:
        """Launch the created tasks (the ``omp parallel`` + ``single`` part)."""
        return execute(self.graph, workers)

    def __len__(self) -> int:
        return len(self.graph)
