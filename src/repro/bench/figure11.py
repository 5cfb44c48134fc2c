"""Figure 11: pipeline vs Polly on matrix-multiplication chains.

For each of the twelve kernels (2mm..4mm, transposed, generalized,
generalized-transposed) the paper plots the base-2 logarithm of the
speed-up of three strategies over sequential execution:

* ``pipeline`` — the cross-loop pipelined program,
* ``polly_8`` — Polly with all 8 hardware threads,
* ``polly``  — Polly with n threads (n = number of loop nests).

Expected shape: Polly wins on the plain/transposed chains (every nest is a
parallel loop), while on the generalized variants Polly finds nothing
(log speed-up 0) and only cross-loop pipelining gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..workloads import MatmulKernel, figure11_kernels
from .harness import (
    DEFAULT_OVERHEAD,
    PAPER_WORKERS,
    build_scop,
    run_pipeline,
    run_polly,
)

DEFAULT_MATRIX_SIZE = 32


@dataclass(frozen=True)
class Figure11Row:
    kernel: str
    pipeline: float
    polly_8: float
    polly_n: float

    def log2(self) -> tuple[float, float, float]:
        return (
            math.log2(self.pipeline),
            math.log2(self.polly_8),
            math.log2(self.polly_n),
        )


def run_kernel(
    kernel: MatmulKernel,
    size: int = DEFAULT_MATRIX_SIZE,
    workers: int = PAPER_WORKERS,
    overhead: float = DEFAULT_OVERHEAD,
    measured: bool = False,
) -> Figure11Row:
    scop = build_scop(kernel.source(size))
    cost = kernel.cost_model(size)
    if measured:
        # The pipeline column becomes a real wall-clock speed-up (best
        # serial replay over pipelined threads replay of the same
        # lowered plan); the Polly baselines stay simulated — there is
        # no Polly executor.
        from .execution import measured_speedup

        pipe_speedup = measured_speedup(
            kernel.source(size), {}, workers=workers
        )
    else:
        pipe_speedup = run_pipeline(
            kernel.name, scop, cost, workers, overhead
        ).speedup
    polly8 = run_polly(kernel.name, scop, cost, threads=8, overhead=overhead)
    pollyn = run_polly(
        kernel.name, scop, cost, threads=kernel.n, overhead=overhead
    )
    return Figure11Row(
        kernel.name, pipe_speedup, polly8.speedup, pollyn.speedup
    )


def run_figure11(
    size: int = DEFAULT_MATRIX_SIZE,
    workers: int = PAPER_WORKERS,
    overhead: float = DEFAULT_OVERHEAD,
    measured: bool = False,
) -> list[Figure11Row]:
    return [
        run_kernel(k, size, workers, overhead, measured)
        for k in figure11_kernels()
    ]


def format_figure11(rows: list[Figure11Row]) -> str:
    lines = [
        f"{'kernel':>8}  {'log2(pipeline)':>14}  {'log2(polly_8)':>14}  "
        f"{'log2(polly)':>12}"
    ]
    for row in rows:
        lp, l8, ln = row.log2()
        lines.append(
            f"{row.kernel:>8}  {lp:14.2f}  {l8:14.2f}  {ln:12.2f}"
        )
    return "\n".join(lines)
