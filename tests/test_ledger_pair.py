"""``tools/ledger_pair.py``'s per-metric verdict on hand-built runs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ledger_pair", Path(__file__).parents[1] / "tools" / "ledger_pair.py"
)
ledger_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ledger_pair)

METRIC = {"name": "run_serial_ms", "unit": "ms", "better": "lower",
          "bound": 0.25}
#: parent quartiles 0.8 / 1.0 / 1.4: a spread of 0.6 of the median,
#: wider than the 0.25 bound
WIDE = [0.7, 0.8, 0.8, 0.9, 1.0, 1.0, 1.2, 1.4, 1.4, 1.6]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    row = ledger_pair.compare(METRIC, WIDE, [v * 1.1 for v in WIDE])
    assert not row["regressed"]
    assert row["unresolved"]
    assert ledger_pair.verdict(row) == "unresolved"


def test_separated_sides_resolve_a_wide_spread():
    change = [v / 3 for v in WIDE]  # every change run beats every parent run
    row = ledger_pair.compare(METRIC, WIDE, change)
    assert not row["unresolved"]
    assert ledger_pair.verdict(row) == "gain"


def test_a_narrow_spread_reads_unchanged():
    parent = [1.0 + 0.01 * k for k in range(10)]
    row = ledger_pair.compare(METRIC, parent, parent[::-1])
    assert not row["unresolved"] and not row["regressed"]
    assert ledger_pair.verdict(row) == "-"
