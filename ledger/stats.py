"""Summary statistics the ledger reports (stdlib only)."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    """Geometric mean; the arithmetic mean when a value is not positive
    (differences and shares can be zero or negative)."""
    values = [float(v) for v in values]
    if any(v <= 0.0 for v in values):
        return sum(values) / len(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def range_share(values) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / statistics.median(values)
