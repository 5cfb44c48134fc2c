"""Critical-path profiler over measured task executions.

Combines three records the observability layer now produces for one run
— the task DAG (creation-order ids shared with the backends), the
measured per-task timings of :mod:`repro.obs.runtime`, and the
simulator's prediction — into one report:

* the **measured critical path**: the longest duration-weighted chain
  through the DAG, i.e. the tasks that actually bounded the run;
* **per-statement self-time** (where the milliseconds went);
* **simulated-vs-measured divergence**: the simulator predicts a
  makespan in abstract cost units; scaling those units by the measured
  per-unit execution time (total busy time / total cost) yields a
  predicted wall makespan to hold against the measured one;
* **top slack blocks**: tasks whose longest path through them falls
  furthest short of the makespan — the safest candidates for coarsening
  or for soaking up stolen work.

``repro profile <kernel>`` is the CLI entry (see :mod:`repro.cli`): a
``transform`` with ``exec_backend`` and ``collect_events`` set, whose
graph, simulation and execution statistics :func:`profile_run` joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ProfileReport", "profile_run"]


@dataclass(frozen=True)
class ProfileReport:
    """What one profiled run measured, and how the prediction compares."""

    backend: str
    workers: int
    tasks: int
    events: int
    measured_wall_s: float
    measured_makespan_s: float
    #: duration-weighted longest chain: (tid, statement, block, dur_ms)
    critical_path: list[tuple[int, str, int, float]]
    critical_path_s: float
    #: statement -> {"tasks": n, "self_s": s, "share": fraction,
    #: "mode": fused|interp}
    statements: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: (tid, statement, block, slack_ms), most slack first
    top_slack: list[tuple[int, str, int, float]] = field(default_factory=list)
    sim_makespan_units: float = 0.0
    sim_policy: str = "fifo"
    predicted_makespan_s: float = 0.0
    clock_calibration: dict[str, Any] = field(default_factory=dict)

    @property
    def makespan_delta(self) -> float:
        """(measured - predicted) / predicted; 0 when unpredicable."""
        if self.predicted_makespan_s <= 0:
            return 0.0
        return (
            self.measured_makespan_s - self.predicted_makespan_s
        ) / self.predicted_makespan_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "tasks": self.tasks,
            "events": self.events,
            "measured_wall_s": round(self.measured_wall_s, 6),
            "measured_makespan_s": round(self.measured_makespan_s, 6),
            "critical_path_s": round(self.critical_path_s, 6),
            "critical_path": [
                {
                    "task": tid,
                    "statement": stmt,
                    "block": block,
                    "duration_ms": round(dur, 4),
                }
                for tid, stmt, block, dur in self.critical_path
            ],
            "statements": {
                name: {
                    "tasks": int(row["tasks"]),
                    "self_s": round(row["self_s"], 6),
                    "share": round(row["share"], 4),
                    "mode": row.get("mode", "interp"),
                }
                for name, row in self.statements.items()
            },
            "top_slack": [
                {
                    "task": tid,
                    "statement": stmt,
                    "block": block,
                    "slack_ms": round(slack, 4),
                }
                for tid, stmt, block, slack in self.top_slack
            ],
            "sim_makespan_units": self.sim_makespan_units,
            "sim_policy": self.sim_policy,
            "predicted_makespan_s": round(self.predicted_makespan_s, 6),
            "makespan_delta": round(self.makespan_delta, 4),
            "clock_calibration": self.clock_calibration,
        }

    def format(self, top: int = 5) -> str:
        lines = [
            f"profile: {self.backend} backend, {self.workers} workers, "
            f"{self.tasks} tasks ({self.events} measured events)",
            f"  measured wall time      {self.measured_wall_s * 1e3:9.2f} ms",
            f"  measured makespan       "
            f"{self.measured_makespan_s * 1e3:9.2f} ms",
            f"  predicted makespan      "
            f"{self.predicted_makespan_s * 1e3:9.2f} ms "
            f"(simulated {self.sim_makespan_units:g} units, "
            f"{self.sim_policy})",
            f"  simulated-vs-measured   {100.0 * self.makespan_delta:+9.1f} %",
        ]
        lines.append(
            f"  critical path           {self.critical_path_s * 1e3:9.2f} ms"
            f" over {len(self.critical_path)} tasks"
        )
        shown = self.critical_path
        if len(shown) > 2 * top:
            shown = shown[:top] + [None] + shown[-top:]
        for row in shown:
            if row is None:
                lines.append("    ...")
                continue
            tid, stmt, block, dur = row
            lines.append(
                f"    task {tid:>5}  {stmt}#{block:<5} {dur:8.3f} ms"
            )
        lines.append("  per-statement self time:")
        for name, row in sorted(
            self.statements.items(), key=lambda kv: -kv[1]["self_s"]
        ):
            lines.append(
                f"    {name:<12} {row['self_s'] * 1e3:9.2f} ms "
                f"({100.0 * row['share']:5.1f}%, "
                f"{int(row['tasks'])} tasks, "
                f"{row.get('mode', 'interp')})"
            )
        if self.top_slack:
            lines.append(f"  top slack blocks (coarsening candidates):")
            for tid, stmt, block, slack in self.top_slack[:top]:
                lines.append(
                    f"    task {tid:>5}  {stmt}#{block:<5} "
                    f"slack {slack:8.3f} ms"
                )
        if self.clock_calibration:
            lines.append(
                "  process clock offsets: "
                + ", ".join(
                    f"pid {pid}: {row['offset_ns']}ns "
                    f"(±{row['uncertainty_ns']}ns)"
                    for pid, row in sorted(self.clock_calibration.items())
                )
            )
        return "\n".join(lines)


def profile_run(graph, sim, stats, top: int = 10) -> ProfileReport:
    """Build a report from an already-measured run.

    ``graph`` is the task DAG whose creation order matches the backend's
    task ids, ``sim`` the simulator prediction for the same graph and
    worker count, ``stats`` an :class:`~repro.interp.executor.ExecutionStats`
    with a collected :attr:`events` trace.
    """
    from ..tasking.task import witness_path

    trace = stats.events
    if trace is None:
        raise ValueError(
            "profile_run needs an ExecutionStats with collected events "
            "(execute_measured(..., collect_events=True))"
        )
    members = tuple(getattr(stats, "task_members", ()) or ())
    if members:
        # Merged-chain events carry backend ids and "S+T" labels; expand
        # them onto the unfused graph so attribution stays per-statement.
        trace = trace.expand_members(
            members,
            weights=[t.cost for t in graph.tasks],
            statements=[t.statement for t in graph.tasks],
        )
    n = len(graph)
    dur_ns = [0] * n
    for e in trace.events:
        if 0 <= e.tid < n:
            dur_ns[e.tid] = max(e.duration_ns, 0)

    down, up, parent = graph.longest_paths(dur_ns)
    cp_ns, path = witness_path(down, parent)
    critical = [
        (
            tid,
            graph.tasks[tid].statement,
            graph.tasks[tid].block_id,
            dur_ns[tid] / 1e6,
        )
        for tid in path
    ]

    # Slack: how far the longest path *through* a task falls short of
    # the critical path.  Zero for critical tasks by construction.
    slack_rows = sorted(
        (
            (
                tid,
                graph.tasks[tid].statement,
                graph.tasks[tid].block_id,
                (cp_ns - (down[tid] + up[tid] - dur_ns[tid])) / 1e6,
            )
            for tid in range(n)
        ),
        key=lambda row: -row[3],
    )

    total_busy_ns = sum(dur_ns)
    # Attribute each statement's time to its dispatch path (fused vs
    # interp) so floor drops are measured, not asserted.
    modes = dict(getattr(stats, "dispatch_modes", {}) or {})
    statements: dict[str, dict[str, float]] = {}
    for tid in range(n):
        name = graph.tasks[tid].statement
        row = statements.setdefault(name, {"tasks": 0, "self_s": 0.0})
        row["tasks"] += 1
        row["self_s"] += dur_ns[tid] / 1e9
        row["mode"] = modes.get(name, "interp")
    for row in statements.values():
        row["share"] = (
            row["self_s"] * 1e9 / total_busy_ns if total_busy_ns else 0.0
        )

    total_cost = graph.total_cost()
    unit_s = total_busy_ns / 1e9 / total_cost if total_cost else 0.0
    return ProfileReport(
        backend=stats.backend,
        workers=stats.workers,
        tasks=n,
        events=len(trace.events),
        measured_wall_s=stats.wall_time,
        measured_makespan_s=trace.makespan_ns / 1e9,
        critical_path=critical,
        critical_path_s=cp_ns / 1e9,
        statements=statements,
        top_slack=slack_rows[:top],
        sim_makespan_units=sim.makespan,
        sim_policy=sim.policy,
        predicted_makespan_s=sim.makespan * unit_s,
        clock_calibration={
            str(pid): clock.as_dict()
            for pid, clock in sorted(trace.clocks.items())
        },
    )
