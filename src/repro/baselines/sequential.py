"""Sequential baseline: the untransformed program's running time."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..scop import Scop

IterCost = Callable[[str, np.ndarray], np.ndarray]


def nest_costs(scop: Scop, cost_of_iters: IterCost) -> dict[int, float]:
    """Total cost per loop nest under a per-iteration cost model."""
    totals: dict[int, float] = {}
    for stmt in scop.statements:
        c = float(cost_of_iters(stmt.name, stmt.points.points).sum())
        totals[stmt.nest_index] = totals.get(stmt.nest_index, 0.0) + c
    return totals


def sequential_time(scop: Scop, cost_of_iters: IterCost) -> float:
    """Total serial running time of the program."""
    return float(sum(nest_costs(scop, cost_of_iters).values()))
