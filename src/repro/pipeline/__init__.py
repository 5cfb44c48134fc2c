"""Cross-loop pipeline pattern detection — the paper's core contribution.

* :mod:`~repro.pipeline.pipeline_map` — Section 4.1, the ``T_{S,T}`` maps.
* :mod:`~repro.pipeline.blocking` — Section 4.2, blocking maps and the
  Equation-3 refinement ``E_S``.
* :mod:`~repro.pipeline.dependencies` — Section 4.3, the ``Q_S``/``Q_S^O``
  block dependency relations.
* :mod:`~repro.pipeline.detect` — Algorithm 1 tying it all together.
"""

from .blocking import Blocking, blocking_from_ends
from .dependencies import BlockDependency, block_dependency, out_dependency
from .detect import (
    PipelineInfo,
    UncoveredDependenceError,
    derive_dependencies,
    detect_pipeline,
    flow_then_all_kinds,
)
from .patterns import (
    NoPatternError,
    QuasiAffineForm,
    describe_pipeline_map,
    infer_quasi_affine,
    infer_relation_pattern,
)
from .pipeline_map import (
    PipelineMap,
    compute_pipeline_map,
    prefix_lexmax,
    raw_dependence_map,
)

__all__ = [
    "BlockDependency",
    "Blocking",
    "PipelineInfo",
    "NoPatternError",
    "PipelineMap",
    "QuasiAffineForm",
    "UncoveredDependenceError",
    "block_dependency",
    "blocking_from_ends",
    "compute_pipeline_map",
    "derive_dependencies",
    "describe_pipeline_map",
    "detect_pipeline",
    "flow_then_all_kinds",
    "infer_quasi_affine",
    "infer_relation_pattern",
    "out_dependency",
    "prefix_lexmax",
    "raw_dependence_map",
]
