"""Schedule trees (ISL schedule-tree analogue, Section 5.2).

The node vocabulary follows ISL: *domain* nodes introduce statement
instances, *band* nodes give a partial schedule (here always the identity,
i.e. lexicographic order over their dimensions), *sequence* nodes order
children, *mark* nodes attach payloads (the pipeline dependency info), and
*expansion* nodes expand block tuples into the iterations they contract
from.  The tree is immutable; builders in :mod:`repro.schedule.build`
assemble Algorithm 2's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..presburger import PointRelation, PointSet


class ScheduleNode:
    """Base class for schedule tree nodes."""

    child: "ScheduleNode | None"

    def walk(self) -> Iterator["ScheduleNode"]:
        yield self
        for c in self.children():
            yield from c.walk()

    def children(self) -> tuple["ScheduleNode", ...]:
        child = getattr(self, "child", None)
        return (child,) if child is not None else ()

    # ------------------------------------------------------------------
    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self._label()]
        for c in self.children():
            lines.append(c.pretty(indent + 1))
        return "\n".join(lines)

    def _label(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__

    def __str__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class Leaf(ScheduleNode):
    """A schedule tree leaf."""

    def children(self) -> tuple[ScheduleNode, ...]:
        return ()

    def _label(self) -> str:
        return "leaf"


@dataclass(frozen=True)
class DomainNode(ScheduleNode):
    """Introduces the instances scheduled by the subtree."""

    statement: str
    domain: PointSet
    child: ScheduleNode = field(default_factory=Leaf)

    def _label(self) -> str:
        return f"domain {self.statement} ({len(self.domain)} points)"


@dataclass(frozen=True)
class BandNode(ScheduleNode):
    """A partial schedule over ``ndim`` dimensions (identity order here).

    ``coincident`` flags, as in ISL, record per-dimension parallelism; the
    pipeline transformation leaves them False (blocks of one statement run
    in order).
    """

    ndim: int
    child: ScheduleNode = field(default_factory=Leaf)
    coincident: tuple[bool, ...] = ()
    role: str = "band"  # "block" (pipeline loop) or "intra" (inside block)

    def _label(self) -> str:
        return f"band[{self.ndim}] ({self.role})"


@dataclass(frozen=True)
class SequenceNode(ScheduleNode):
    """Children execute one after another."""

    branches: tuple[ScheduleNode, ...]

    def children(self) -> tuple[ScheduleNode, ...]:
        return self.branches

    def _label(self) -> str:
        return f"sequence ({len(self.branches)} children)"


@dataclass(frozen=True)
class MarkNode(ScheduleNode):
    """An annotation carried through to AST generation."""

    name: str
    payload: Any
    child: ScheduleNode = field(default_factory=Leaf)

    def _label(self) -> str:
        return f"mark {self.name!r}"


@dataclass(frozen=True)
class ExpansionNode(ScheduleNode):
    """Expands block tuples into their member iterations.

    ``contraction`` is the combined blocking map ``E_S``: it maps each
    iteration to the block (end) that contracts it, exactly the contraction
    function Algorithm 2 passes to ISL's ``expand``.
    """

    contraction: PointRelation
    child: ScheduleNode = field(default_factory=Leaf)

    def _label(self) -> str:
        return f"expansion (|E| = {len(self.contraction)})"


@dataclass(frozen=True)
class ScheduleTree:
    """A rooted schedule tree."""

    root: ScheduleNode

    def walk(self) -> Iterator[ScheduleNode]:
        return self.root.walk()

    def pretty(self) -> str:
        return self.root.pretty()

    def __str__(self) -> str:
        return self.pretty()
