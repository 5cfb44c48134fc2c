"""Golden-file tests of the emitted task program source.

Each case pins the exact text :func:`repro.codegen.emit_task_program`
produces for a kernel — the generated ``CreateTask`` calls, dependency
vectors and packing constants of Sections 5.4–5.5.  Any change to block
shapes, dependence columns or packing is surfaced as a diff against the
checked-in golden file.

Regenerate intentionally with::

    pytest tests/codegen/test_golden_emit.py --update-goldens

The golden corpus doubles as a transparency check of what a compile
keeps (the SCoP's dependence table, each relation's domain, range and
per-input lexmax): emission must be byte-identical whether those are
derived fresh or read back warm.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import build_scop
from repro.codegen import emit_task_program
from repro.pipeline import detect_pipeline
from repro.workloads import TABLE9

GOLDEN_DIR = Path(__file__).parent / "golden"
KERNELS_DIR = Path(__file__).parents[2] / "examples" / "kernels"

CASES = {
    # two Table 9 kernels: the minimal two-nest pipeline and the
    # four-nest chain the paper's evaluation leans on
    "p1_n6": lambda: (TABLE9["P1"].source(6), None),
    "p5_n6": lambda: (TABLE9["P5"].source(6), None),
    # deliberately non-pipelinable: the pipeline map degenerates to a
    # full barrier, which must still emit a correct (serialized) program
    "reversed_n6": lambda: ((KERNELS_DIR / "reversed.c").read_text(), {"N": 6}),
}


def _emit(case: str) -> str:
    source, params = CASES[case]()
    scop = build_scop(source, params)
    info = detect_pipeline(scop)
    return emit_task_program(info)


def _emit_twice_on_one_scop(case: str) -> tuple[str, str]:
    """Emission from a fresh SCoP, then again from the same SCoP, whose
    dependence table and relation facts the first detection filled."""
    source, params = CASES[case]()
    scop = build_scop(source, params)
    cold = emit_task_program(detect_pipeline(scop))
    return cold, emit_task_program(detect_pipeline(scop))


@pytest.mark.parametrize("case", sorted(CASES))
def test_emitted_program_matches_golden(case, pytestconfig):
    emitted = _emit(case)
    golden_path = GOLDEN_DIR / f"{case}.py.golden"
    if pytestconfig.getoption("--update-goldens"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(emitted, encoding="utf-8")
        pytest.skip(f"updated {golden_path.name}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; run with --update-goldens"
    )
    golden = golden_path.read_text(encoding="utf-8")
    assert emitted == golden, (
        f"emitted program for {case} differs from {golden_path.name}; "
        "if the change is intended, rerun with --update-goldens"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_emission_is_cache_transparent(case):
    cold, warm = _emit_twice_on_one_scop(case)
    assert cold == warm
    assert _emit(case) == cold
