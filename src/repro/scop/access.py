"""Memory access relations.

Each access of a statement is an affine function from the statement's
iteration domain to the cells of one array.  To let reads and writes of
*different* arrays meet in one shared memory space (as the paper's ``M``),
cells are encoded as tuples ``(array_id, idx_0, …, idx_{r-1}, 0, …)`` padded
with zeros up to the maximal array rank of the SCoP.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..presburger import AffineExpr, PointRelation, PointSet, Space


class AccessKind(Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class Access:
    """One affine array access of a statement.

    Parameters
    ----------
    array:
        Name of the accessed array.
    indices:
        One :class:`AffineExpr` per array dimension, in the statement's loop
        variables.
    kind:
        Read or write.
    """

    array: str
    indices: tuple[AffineExpr, ...]
    kind: AccessKind

    @property
    def rank(self) -> int:
        return len(self.indices)

    def index_map(self, space: Space) -> tuple[np.ndarray, np.ndarray]:
        """The index expressions as ``(matrix, const)`` over ``space``:
        iteration ``x`` touches cell ``matrix @ x + const``."""
        matrix = np.zeros((self.rank, space.ndim), dtype=np.int64)
        const = np.zeros(self.rank, dtype=np.int64)
        for k, expr in enumerate(self.indices):
            matrix[k], const[k] = expr.vector(space)
        return matrix, const

    def encoded_map(
        self, space: Space, array_id: int, mem_rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`index_map` into the encoded memory space: iteration
        ``x`` touches cell ``(array_id, matrix @ x + const, 0, …)``, padded
        to ``mem_rank`` indices."""
        matrix = np.zeros((mem_rank + 1, space.ndim), dtype=np.int64)
        const = np.zeros(mem_rank + 1, dtype=np.int64)
        const[0] = array_id
        rows = slice(1, 1 + self.rank)
        matrix[rows], const[rows] = self.index_map(space)
        return matrix, const

    def explicit_relation(
        self, points: PointSet, space: Space, array_id: int, mem_rank: int
    ) -> PointRelation:
        """Iteration → encoded-cell relation tabulated over ``points``.

        ``space`` names the iteration dimensions so index expressions can be
        aligned into a coefficient matrix.
        """
        return PointRelation.from_affine(
            points, *self.encoded_map(space, array_id, mem_rank)
        )

    def __str__(self) -> str:
        subs = "".join(f"[{i}]" for i in self.indices)
        tag = "W" if self.kind is AccessKind.WRITE else "R"
        return f"{tag}:{self.array}{subs}"
