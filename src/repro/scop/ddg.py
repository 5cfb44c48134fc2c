"""Statement-level dependence graphs.

Summarizes the instance-level dependence relations into a small graph over
statements — the view a compiler engineer wants first: which statements
feed which, through which dependence classes, and with how many instance
pairs.  Exports to Graphviz DOT for visual inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deps import DepKind, iter_dependences
from .scop import Scop


@dataclass(frozen=True)
class DepEdge:
    source: str
    target: str
    kind: DepKind
    pairs: int
    self_dep: bool

    def __str__(self) -> str:
        arrow = "⟲" if self.self_dep else "→"
        return f"{self.source} {arrow} {self.target} [{self.kind.value}, {self.pairs} pairs]"


@dataclass(frozen=True)
class DependenceGraph:
    """All statement-level dependence edges of a SCoP."""

    scop: Scop
    edges: tuple[DepEdge, ...]

    def edges_between(self, source: str, target: str) -> list[DepEdge]:
        return [
            e for e in self.edges if e.source == source and e.target == target
        ]

    def predecessors(self, target: str) -> set[str]:
        return {
            e.source
            for e in self.edges
            if e.target == target and not e.self_dep
        }

    def summary(self) -> str:
        lines = [f"Dependence graph: {len(self.edges)} edges"]
        lines += [f"  {e}" for e in self.edges]
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz rendering: solid flow, dashed anti, dotted output."""
        styles = {
            DepKind.FLOW: "solid",
            DepKind.ANTI: "dashed",
            DepKind.OUTPUT: "dotted",
        }
        lines = ["digraph deps {", '  node [shape=ellipse, fontname="monospace"];']
        for stmt in self.scop.statements:
            lines.append(f'  {stmt.name} [label="{stmt.name} (nest {stmt.nest_index})"];')
        for e in self.edges:
            lines.append(
                f"  {e.source} -> {e.target} "
                f'[style={styles[e.kind]}, label="{e.kind.value} ({e.pairs})"];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_dependence_graph(
    scop: Scop, kinds: tuple[DepKind, ...] = tuple(DepKind)
) -> DependenceGraph:
    """Compute all non-empty statement-level dependence edges."""
    edges = tuple(
        DepEdge(
            source.name, target.name, kind, len(rel), source.name == target.name
        )
        for source, target, kind, rel in iter_dependences(scop, kinds)
    )
    return DependenceGraph(scop, edges)
