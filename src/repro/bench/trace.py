"""Export schedules and runtime observations as Chrome trace-event JSON.

``chrome://tracing`` / Perfetto can load the output to inspect pipelined
schedules interactively — one lane per worker, one slice per task, with
statement/block metadata attached.  Abstract cost units are emitted as
microseconds (the viewer's native unit).

A document can carry up to three lane groups, each its own pid:

* **pid 0 — simulated schedule**: the list-scheduled execution of the
  task graph (always present).
* **pid 1 — compile phases**: hierarchical spans from
  :mod:`repro.obs.spans` (pass ``spans=``), nesting parse → SCoP →
  pipeline → schedule → codegen with Presburger-op attribution.
* **pid 2 — measured execution**: live task events collected from a real
  backend run via :mod:`repro.obs.runtime` (pass ``runtime=``), with
  queue-depth counter tracks for the thread backend.

``process_name`` / ``process_sort_index`` metadata events label and
order the groups so Perfetto shows compile above simulation above the
measured lanes.
"""

from __future__ import annotations

import json
from typing import Any

from ..tasking import SimResult, TaskGraph

#: pid per lane group (Chrome trace "processes" are display groups).
SIM_PID = 0
COMPILE_PID = 1
MEASURED_PID = 2


def _as_dict(record: Any) -> Any:
    """Normalize a stats record: dicts pass through, else ``as_dict()``."""
    if record is None or isinstance(record, dict):
        return record
    as_dict = getattr(record, "as_dict", None)
    if as_dict is None:
        raise TypeError(
            f"expected a dict or an object with as_dict(), got "
            f"{type(record).__name__}"
        )
    return as_dict()


def trace_events(graph: TaskGraph, sim: SimResult) -> list[dict[str, Any]]:
    """Chrome trace-event list (``X`` complete events, one per task)."""
    events: list[dict[str, Any]] = []
    for task in graph.tasks:
        tid = task.task_id
        events.append(
            {
                "name": f"{task.statement}#{task.block_id}",
                "cat": task.statement,
                "ph": "X",
                "ts": float(sim.start[tid]),
                "dur": float(sim.finish[tid] - sim.start[tid]),
                "pid": SIM_PID,
                "tid": int(sim.worker[tid]),
                "args": {
                    "statement": task.statement,
                    "block": task.block_id,
                    "cost": task.cost,
                    "predecessors": sorted(graph.preds[tid]),
                },
            }
        )
    return events


def _process_meta(pid: int, name: str, sort_index: int) -> list[dict[str, Any]]:
    return [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": name},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": sort_index},
        },
    ]


def trace_json(
    graph: TaskGraph,
    sim: SimResult,
    indent: int | None = None,
    execution=None,
    spans=None,
    runtime=None,
) -> str:
    """Full trace document (``traceEvents`` plus display metadata).

    ``execution`` attaches the measured-execution record of a real run
    (an :class:`~repro.interp.executor.ExecutionStats` or its dict form):
    backend, workers, wall time, fused coverage and per-statement
    ``fused_fallback`` refusals — alongside the simulated schedule they
    contextualize.

    ``spans`` (a list of :class:`~repro.obs.spans.SpanRecord`) adds the
    compile-phase lane group; ``runtime`` (a
    :class:`~repro.obs.runtime.RuntimeTrace`, defaulting to
    ``execution.events`` when present) adds the measured-execution lanes.
    """
    if runtime is None:
        runtime = getattr(execution, "events", None)

    other: dict[str, Any] = {
        "makespan": sim.makespan,
        "workers": sim.workers,
        "policy": sim.policy,
        "tasks": len(graph),
    }
    if execution is not None:
        other["execution"] = _as_dict(execution)
    if runtime is not None:
        other["runtime"] = runtime.summary_dict()
    if spans:
        from ..obs.spans import phase_breakdown

        other["phases"] = phase_breakdown(spans)

    events = trace_events(graph, sim)
    events += [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": SIM_PID,
            "tid": w,
            "args": {"name": f"worker {w}"},
        }
        for w in range(sim.workers)
    ]
    events += _process_meta(SIM_PID, "simulated schedule", 1)
    if spans:
        from ..obs.spans import spans_to_trace_events

        events += _process_meta(COMPILE_PID, "compile phases", 0)
        events += spans_to_trace_events(spans, pid=COMPILE_PID)
    if runtime is not None and len(runtime):
        events += _process_meta(
            MEASURED_PID, f"measured execution ({runtime.backend})", 2
        )
        events += runtime.to_trace_events(pid=MEASURED_PID)

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    return json.dumps(doc, indent=indent)


def write_trace(
    path: str,
    graph: TaskGraph,
    sim: SimResult,
    execution=None,
    spans=None,
    runtime=None,
) -> None:
    """Write the trace document to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            trace_json(
                graph,
                sim,
                execution=execution,
                spans=spans,
                runtime=runtime,
            )
        )


#: ph types the exporter may legitimately emit.
_KNOWN_PHASES = {"X", "M", "C", "B", "E", "i"}


def validate_trace_document(doc: Any) -> list[str]:
    """Check a parsed trace document against the Chrome trace-event format.

    Returns a list of problems (empty when the document is valid):
    missing top-level keys, events without ``name``/``ph``/``pid``/
    ``tid``, unknown ``ph`` types, negative ``ts``/``dur``, and complete
    (``X``) events missing their duration.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    for k, e in enumerate(events):
        where = f"traceEvents[{k}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                problems.append(f"{where}: missing {key!r}")
        ph = e.get("ph")
        if ph is not None and ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {ph!r}")
        if ph in ("X", "C", "B", "E", "i") and "ts" not in e:
            problems.append(f"{where}: {ph} event missing 'ts'")
        ts = e.get("ts")
        if ts is not None and not isinstance(ts, (int, float)):
            problems.append(f"{where}: non-numeric ts {ts!r}")
        elif ts is not None and ts < 0:
            problems.append(f"{where}: negative ts {ts}")
        if ph == "X":
            dur = e.get("dur")
            if dur is None:
                problems.append(f"{where}: X event missing 'dur'")
            elif not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    return problems
