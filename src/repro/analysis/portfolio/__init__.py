"""Pattern-portfolio analysis: reductions, do-all, geometric decomposition.

The portfolio is a static-analysis pass suite over the SCoP and
dependence layer that reports *all* provable patterns, not just the
pipeline the transformation targets:

* :mod:`.reduction` — AST-level recognition of associative, commutative
  accumulations (``+=``, ``*=``, min/max idioms, and their expanded
  forms);
* :mod:`.partition` — Presburger partition of each dependence relation
  into reduction-carried pairs (relaxable by privatization) and true
  pairs;
* :mod:`.privatize` — machine-checkable privatization legality proof
  objects, re-verified by :func:`repro.schedule.legality.verify_privatization`;
* :mod:`.patterns` — nest-level do-all / reduction /
  geometric-decomposition classification;
* :mod:`.analyze` — the driver (:func:`run_portfolio`) plus the
  ``RPA05x`` diagnostics bridge.
"""

from .analyze import (
    PairPortfolio,
    PortfolioReport,
    portfolio_to_diagnostics,
    run_portfolio,
)
from .partition import (
    DependencePartition,
    PairKey,
    compatible_specs,
    induced_relations,
    partition_dependences,
    partition_pair,
)
from .patterns import (
    GEOMETRIC_MAX_DISTANCES,
    GEOMETRIC_MAX_RADIUS,
    NestPattern,
    NestPatternReport,
    detect_nest_patterns,
)
from .privatize import (
    PrivatizationProof,
    ReductionClaim,
    RemovedDependence,
    build_pair_proof,
)
from .reduction import (
    ReductionGroup,
    ReductionSpec,
    find_reduction_specs,
    reduction_update_spec,
)

__all__ = [
    "DependencePartition",
    "GEOMETRIC_MAX_DISTANCES",
    "GEOMETRIC_MAX_RADIUS",
    "NestPattern",
    "NestPatternReport",
    "PairKey",
    "PairPortfolio",
    "PortfolioReport",
    "PrivatizationProof",
    "ReductionClaim",
    "ReductionGroup",
    "ReductionSpec",
    "RemovedDependence",
    "build_pair_proof",
    "compatible_specs",
    "detect_nest_patterns",
    "find_reduction_specs",
    "induced_relations",
    "partition_dependences",
    "partition_pair",
    "portfolio_to_diagnostics",
    "reduction_update_spec",
    "run_portfolio",
]
