"""Integer packing of dependency vectors (Section 5.4).

The paper converts each block-end vector into a single integer by
"multiplying each dimension by a large enough integer and adding them all",
then pairs it with a statement index to address the ``dependArr`` slot.
:class:`VectorPacker` implements exactly that as an exact mixed-radix code
(offset by the per-dimension minimum so negative coordinates pack too), and
is invertible for debugging and testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: packed codes travel through int64 ``dependArr`` slots (Figure 8)
INT64_CAPACITY = 2**63


class PackerOverflowError(ValueError):
    """The packed code space does not fit an int64 slot (rule RPA041)."""

    code = "RPA041"

    def diagnostic(self):
        """The finding as an RPA041 diagnostic."""
        from ..analysis import diagnostics as D
        from ..analysis.diagnostics import Diagnostic

        return Diagnostic(D.PACKER_OVERFLOW, str(self))


@dataclass(frozen=True)
class VectorPacker:
    """Bijective encoding of bounded integer vectors into single integers."""

    mins: tuple[int, ...]
    ranges: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.ranges):
            raise ValueError("mins and ranges must have equal length")
        if any(r < 1 for r in self.ranges):
            raise ValueError("every dimension range must be >= 1")
        cap = 1
        for r in self.ranges:
            cap *= r
        if cap >= INT64_CAPACITY:
            # np.int64 arithmetic in pack_rows would silently wrap
            raise PackerOverflowError(
                f"packer capacity {cap} exceeds the int64 slot space "
                f"({INT64_CAPACITY}); coarsen the blocking so block-end "
                f"ranges shrink [{PackerOverflowError.code}]"
            )

    @staticmethod
    def for_points(points: np.ndarray) -> "VectorPacker":
        """A packer covering every row of ``points``."""
        points = np.asarray(points, dtype=np.int64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty 2-D point array")
        mins = points.min(axis=0)
        ranges = points.max(axis=0) - mins + 1
        return VectorPacker(
            tuple(int(v) for v in mins), tuple(int(v) for v in ranges)
        )

    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.mins)

    @property
    def capacity(self) -> int:
        cap = 1
        for r in self.ranges:
            cap *= r
        return cap

    def pack(self, vec: Sequence[int]) -> int:
        """Vector → integer (row-major mixed radix)."""
        if len(vec) != self.ndim:
            raise ValueError(f"expected {self.ndim} coordinates")
        code = 0
        for v, lo, r in zip(vec, self.mins, self.ranges):
            digit = int(v) - lo
            if not 0 <= digit < r:
                raise ValueError(f"coordinate {v} outside packer range")
            code = code * r + digit
        return code
