"""Benchmark harness regenerating every table and figure of Section 6."""

from .calibration import (
    SensitivityRow,
    format_sensitivity,
    overhead_sensitivity,
)
from .execution import measured_speedup
from .figure2 import Figure2Result, format_figure2, run_figure2
from .figure5 import Figure5Result, format_figure5, run_figure5
from .figure10 import (
    DEFAULT_NS,
    DEFAULT_SIZES,
    Figure10Cell,
    format_figure10,
    run_cell,
    run_figure10,
)
from .figure11 import (
    DEFAULT_MATRIX_SIZE,
    Figure11Row,
    format_figure11,
    run_figure11,
    run_kernel,
)
from .harness import (
    DEFAULT_OVERHEAD,
    PAPER_WORKERS,
    ExperimentResult,
    build_scop,
    pipeline_task_graph,
    run_pipeline,
    run_polly,
    run_sequential,
)
from .report import ascii_timeline
from .table9 import format_table9, kernel_structure
from .trace import (
    trace_events,
    trace_json,
    validate_trace_document,
    write_trace,
)

__all__ = [
    "DEFAULT_MATRIX_SIZE",
    "DEFAULT_NS",
    "DEFAULT_OVERHEAD",
    "DEFAULT_SIZES",
    "ExperimentResult",
    "Figure10Cell",
    "Figure2Result",
    "Figure5Result",
    "Figure11Row",
    "PAPER_WORKERS",
    "SensitivityRow",
    "ascii_timeline",
    "build_scop",
    "format_figure2",
    "format_figure5",
    "format_figure10",
    "format_figure11",
    "format_sensitivity",
    "measured_speedup",
    "format_table9",
    "kernel_structure",
    "overhead_sensitivity",
    "pipeline_task_graph",
    "run_cell",
    "run_figure2",
    "run_figure5",
    "run_figure10",
    "run_figure11",
    "run_kernel",
    "run_pipeline",
    "run_polly",
    "run_sequential",
    "trace_events",
    "trace_json",
    "validate_trace_document",
    "write_trace",
]
