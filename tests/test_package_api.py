"""Public-API surface guards.

Every name a subpackage exports must resolve, and the entry points the
README/docs promise must exist — catching export typos and accidental
API removals.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.presburger",
    "repro.lang",
    "repro.scop",
    "repro.pipeline",
    "repro.schedule",
    "repro.codegen",
    "repro.tasking",
    "repro.baselines",
    "repro.workloads",
    "repro.bench",
    "repro.interp",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_sorted_unique(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", []))
    assert len(set(exported)) == len(exported), f"duplicates in {name}.__all__"


DOCUMENTED_ENTRY_POINTS = [
    ("repro", "transform"),
    ("repro", "TransformOptions"),
    ("repro.presburger", "enumerate_basic_set"),
    ("repro.presburger", "PointRelation"),
    ("repro.lang", "parse"),
    ("repro.scop", "extract_scop"),
    ("repro.scop", "analyze_dataflow"),
    ("repro.scop", "build_dependence_graph"),
    ("repro.pipeline", "detect_pipeline"),
    ("repro.pipeline", "describe_pipeline_map"),
    ("repro.schedule", "build_schedule"),
    ("repro.schedule", "check_legality"),
    ("repro.schedule", "save_task_ast"),
    ("repro.codegen", "emit_task_program"),
    ("repro.tasking", "simulate"),
    ("repro.tasking", "hybrid_task_graph"),
    ("repro.tasking", "scaling_curve"),
    ("repro.bench", "run_figure10"),
    ("repro.bench", "write_trace"),
    ("repro.interp", "Interpreter"),
]


@pytest.mark.parametrize("module,symbol", DOCUMENTED_ENTRY_POINTS)
def test_documented_entry_points_exist(module, symbol):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, symbol)) or isinstance(
        getattr(mod, symbol), type
    )


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
