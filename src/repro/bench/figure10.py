"""Figure 10: pipelined speed-up of P1–P10 over an (N, SIZE) grid.

The paper's heat-map shows the speed-up of the pipelined program against
the sequential program for ten problem-size columns.  We sweep five values
of N crossed with two values of SIZE (ten cells per kernel, like the
figure) on the simulated quad-core (8 hardware threads).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads import TABLE9, PKernel
from .harness import (
    DEFAULT_OVERHEAD,
    PAPER_WORKERS,
    build_scop,
    run_pipeline,
)

#: Grid roughly matching the figure's ten columns.
DEFAULT_NS = (16, 24, 32, 48, 64)
DEFAULT_SIZES = (4, 16)


@dataclass(frozen=True)
class Figure10Cell:
    kernel: str
    n: int
    size: int
    speedup: float


def run_cell(
    kernel: PKernel,
    n: int,
    size: int,
    workers: int = PAPER_WORKERS,
    overhead: float = DEFAULT_OVERHEAD,
    measured: bool = False,
) -> Figure10Cell:
    if measured:
        # Real wall clock: best serial replay over pipelined threads
        # replay of the same lowered plan (the SIZE axis only weights
        # the simulator's cost model, so measured cells carry size 0).
        from .execution import measured_speedup

        sp = measured_speedup(kernel.source(n), {}, workers=workers)
        return Figure10Cell(kernel.name, n, 0, sp)
    scop = build_scop(kernel.source(n))
    result = run_pipeline(
        kernel.name, scop, kernel.cost_model(size), workers, overhead
    )
    return Figure10Cell(kernel.name, n, size, result.speedup)


def run_figure10(
    kernels: list[str] | None = None,
    ns: tuple[int, ...] = DEFAULT_NS,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    workers: int = PAPER_WORKERS,
    overhead: float = DEFAULT_OVERHEAD,
    measured: bool = False,
) -> list[Figure10Cell]:
    names = kernels or sorted(TABLE9, key=lambda k: int(k[1:]))
    if measured:
        sizes = (0,)  # wall-clock mode has no simulated SIZE axis
    cells: list[Figure10Cell] = []
    for name in names:
        kern = TABLE9[name]
        for size in sizes:
            for n in ns:
                cells.append(
                    run_cell(kern, n, size, workers, overhead, measured)
                )
    return cells


def format_figure10(cells: list[Figure10Cell]) -> str:
    """Render the heat-map as the paper's rows-by-columns text table."""
    kernels: list[str] = []
    for c in cells:
        if c.kernel not in kernels:
            kernels.append(c.kernel)
    columns: list[tuple[int, int]] = []
    for c in cells:
        if (c.n, c.size) not in columns:
            columns.append((c.n, c.size))
    lookup = {(c.kernel, c.n, c.size): c.speedup for c in cells}

    header = ["     "] + [f"N{n}/S{s}" for n, s in columns]
    lines = ["  ".join(f"{h:>8}" for h in header)]
    for k in kernels:
        row = [f"{k:>5}"] + [
            f"{lookup[(k, n, s)]:8.2f}" for n, s in columns
        ]
        lines.append("  ".join(row))
    return "\n".join(lines)
