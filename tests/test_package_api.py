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
    ("repro.codegen", "emit_task_program"),
    ("repro.tasking", "simulate"),
    ("repro.schedule", "relax"),
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


#: second implementations deleted because only tests selected them; the
#: product paths that replace them are named in docs/api.md
DELETED = [
    ("repro.lang", "print_program"),
    ("repro.schedule", "save_task_ast"),
    ("repro.schedule", "load_task_ast"),
    ("repro.tasking", "to_dot"),
    ("repro.tasking", "write_dot"),
    ("repro.bench", "run_workload"),
    ("repro.bench.execution", "dispatch_mode_of"),
    ("repro.obs", "default_registry"),
    ("repro.obs.metrics", "default_registry"),
    ("repro.pipeline", "reduce_dependencies"),
    ("repro.pipeline", "ReductionStats"),
    ("repro.pipeline", "task_graph_stats"),
    ("repro.driver", "INCOMPATIBLE_OPTIONS"),
    ("repro.tasking", "sequential_time"),
    ("repro.tasking", "hybrid_task_graph"),
    # test references now in tests/conftest.py, and names nothing called
    ("repro.pipeline", "pipeline_pairs_bruteforce"),
    ("repro.pipeline", "pointwise_lexmin"),
    ("repro.pipeline", "combine_blockings"),
    ("repro.pipeline", "consistent_across_sizes"),
    ("repro.presburger", "anonymous"),
    ("repro.presburger", "rowwise_lex_le"),
    ("repro.pipeline", "target_blocking"),
    ("repro.baselines", "polly_speedup"),
    ("repro.baselines", "sequential_task_graph"),
    ("repro.baselines", "uniform_cost"),
    ("repro.bench", "strategy_table"),
    ("repro.bench", "worker_timeline"),
    ("repro.bench.execution", "blocking_compute"),
    ("repro.scop", "depends_on"),
    ("repro.analysis.portfolio", "accumulator_like"),
    ("repro.service.server", "_http_answer"),
    # one relaxation consumer: repro.schedule.relax
    ("repro.tasking", "relax_self_chains"),
    ("repro.tasking", "intra_block_edges"),
    # the Presburger op cache: derived facts live on their relations
    ("repro.presburger", "cache_configure"),
    ("repro.presburger", "cache_stats"),
    ("repro.presburger", "CacheStats"),
]


@pytest.mark.parametrize("module,symbol", DELETED)
def test_deleted_names_stay_gone(module, symbol):
    mod = importlib.import_module(module)
    assert not hasattr(mod, symbol)
    assert symbol not in getattr(mod, "__all__", [])


def test_deleted_members_stay_gone():
    from repro.interp import FusedProgram, Interpreter, SharedArrayStore
    from repro.schedule.astgen import TaskArrays
    from repro.tasking import TaskGraph

    for module in (
        "repro.lang.printer", "repro.tasking.dot", "repro.pipeline.reduce",
        "repro.pipeline.reference", "repro.tasking.hybrid",
    ):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    assert not hasattr(TaskGraph, "reachability")
    assert not hasattr(TaskArrays, "from_nests")  # arrays -> nests only
    from repro.presburger import Constraint
    from repro.schedule import TaskAst

    assert not hasattr(TaskAst, "unchained")  # repro.schedule.relax
    assert not hasattr(Constraint, "shifted")
    assert not hasattr(Constraint, "permuted")
    assert not hasattr(FusedProgram, "coverage")
    assert not hasattr(FusedProgram, "statements_fused")
    # ArrayStore.for_scop stays: a shared store is made by from_store
    assert "for_scop" not in vars(SharedArrayStore)
    assert not hasattr(SharedArrayStore, "to_local")
    interp = Interpreter.from_source(
        "for(i=0; i<4; i++) S: A[i] = f(A[i]);", {}
    )
    assert not hasattr(interp, "block_counters")
    assert not hasattr(interp, "execute_blocks_in_order")
    from repro.interp import ArrayStore, ArrayView
    from repro.pipeline import Blocking
    from repro.presburger import BasicSet, PointRelation
    from repro.service.server import ReproServer

    assert not hasattr(ArrayStore, "__getitem__")
    assert not hasattr(ArrayView, "__getitem__")
    assert not hasattr(Blocking, "iterations_by_block")
    assert not hasattr(BasicSet, "from_box")
    assert not hasattr(PointRelation, "apply")
    assert not hasattr(ReproServer, "handle_http")


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
