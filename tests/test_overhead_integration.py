"""End-to-end guard of the task-overhead optimizer (ISSUE 4 tentpole).

Coarsened + transitively reduced pipelines must execute bit-identically
to the sequential interpreter on every Table 9 kernel — through the
serial and thread (work-stealing) backends everywhere, and through the
process (ready-batch) backend on a subset to keep tier-1 fast.
"""

from __future__ import annotations

import pytest

from repro.driver import TransformOptions, transform
from repro.interp import Interpreter, execute_measured
from repro.pipeline import detect_pipeline, reduce_dependencies
from repro.workloads import TABLE9

N = 10
COARSEN = 3
#: kernels that also go through the process pool (pool startup is ~100ms
#: per run; two kernels cover both 1-D and 2-D block shapes)
PROCESS_SUBSET = ("P1", "P5")


@pytest.mark.parametrize("name", sorted(TABLE9))
def test_coarsened_reduced_execution_bit_identical(name):
    interp = Interpreter.from_source(TABLE9[name].source(N), {})
    seq = interp.run_sequential(interp.new_store())
    info = detect_pipeline(interp.scop, coarsen=COARSEN)
    reduced, stats = reduce_dependencies(info)
    assert stats.slots_after <= stats.slots_before

    backends = ["serial", "threads"]
    if name in PROCESS_SUBSET:
        backends.append("processes")
    for backend in backends:
        store, _ = execute_measured(
            interp, reduced, backend=backend, workers=2
        )
        assert seq.equal(store), f"{name}/{backend} diverged"


def test_driver_reduce_roundtrip():
    """``transform`` with reduce_deps verifies and reports it."""
    result = transform(
        TABLE9["P5"].source(10),
        options=TransformOptions(reduce_deps=True, workers=2, verify=True),
    )
    assert result.verified
    assert result.reduction is not None
    assert result.reduction.slots_after <= result.reduction.slots_before
    assert "dependency reduction" in result.report()


def test_driver_refuses_reduce_with_hybrid():
    with pytest.raises(ValueError, match="incompatible with hybrid"):
        transform(
            TABLE9["P1"].source(8),
            options=TransformOptions(reduce_deps=True, hybrid=True),
        )
