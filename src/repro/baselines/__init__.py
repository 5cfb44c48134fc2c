"""Comparator implementations: sequential and Polly/Pluto-like baselines."""

from .polly import PollyDecision, polly_decisions, polly_task_graph
from .sequential import IterCost, nest_costs, sequential_time

__all__ = [
    "IterCost",
    "PollyDecision",
    "nest_costs",
    "polly_decisions",
    "polly_task_graph",
    "sequential_time",
]
