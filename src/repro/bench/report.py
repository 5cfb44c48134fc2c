"""Human-readable reports: ASCII timelines.

The paper visualizes pipelined execution as per-statement timelines
(Figures 2 and 5).  :func:`ascii_timeline` renders a simulated schedule the
same way.
"""

from __future__ import annotations

from collections import defaultdict

from ..tasking import SimResult, TaskGraph


def ascii_timeline(graph: TaskGraph, sim: SimResult, width: int = 72) -> str:
    """One row per statement; ``#`` marks intervals where a block runs.

    Mirrors the paper's Figure 2/5 visualization of overlap between the
    loop nests of a pipelined program.
    """
    if width < 8:
        raise ValueError("width too small to draw a timeline")
    span = sim.makespan
    if span <= 0:
        return "(empty schedule)"
    spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
    order: list[str] = []
    for task in graph.tasks:
        if task.statement not in spans:
            order.append(task.statement)
        spans[task.statement].append(
            (float(sim.start[task.task_id]), float(sim.finish[task.task_id]))
        )
    label_w = max(len(s) for s in order)
    lines = []
    for name in order:
        cells = [" "] * width
        for s, f in spans[name]:
            lo = int(s / span * (width - 1))
            hi = max(lo, int(f / span * (width - 1)))
            for k in range(lo, hi + 1):
                cells[k] = "#"
        lines.append(f"{name:>{label_w}} |{''.join(cells)}|")
    scale = f"{' ' * label_w}  0{' ' * (width - len(f'{span:g}') - 1)}{span:g}"
    return "\n".join(lines + [scale])

