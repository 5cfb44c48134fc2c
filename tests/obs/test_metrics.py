"""Tests for the metrics registry and the legacy-stat absorbers."""

import json

import pytest

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Histogram,
    MetricsRegistry,
    absorb_execution,
    absorb_presburger_cache,
    absorb_simulation,
    absorb_task_overhead,
    parse_series_key,
    series_key,
)


class TestSeriesKey:
    def test_plain_name(self):
        assert series_key("a.b", {}) == "a.b"

    def test_labels_sorted(self):
        assert (
            series_key("n", {"z": 1, "a": "x"}) == "n{a=x,z=1}"
        )

    def test_parse_roundtrip(self):
        key = series_key("serve.latency_ms", {"op": "run", "status": "warm"})
        name, labels = parse_series_key(key)
        assert name == "serve.latency_ms"
        assert labels == {"op": "run", "status": "warm"}

    def test_parse_plain(self):
        assert parse_series_key("a.b") == ("a.b", {})


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.counter("c", 4)
        assert reg.value("c") == 5

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("c", 1, op="x")
        reg.counter("c", 2, op="y")
        assert reg.value("c", op="x") == 1
        assert reg.value("c", op="y") == 2
        assert reg.value("c") is None

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1)
        reg.gauge("g", "text")
        assert reg.value("g") == "text"

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 6.0):
            reg.histogram("h", v)
        h = reg.histogram_stats("h")
        assert h.count == 3
        assert h.mean == pytest.approx(3.0)
        assert h.minimum == 1.0 and h.maximum == 6.0

    def test_empty_histogram_dict(self):
        assert Histogram().as_dict() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_as_dict_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.counter("z.last")
        reg.counter("a.first")
        reg.gauge("m.mid", 3)
        doc = reg.as_dict()
        assert list(doc["counters"]) == ["a.first", "z.last"]
        # same content -> byte-identical export (CI artifact diffing)
        assert reg.to_json() == reg.to_json()

    def test_to_json_parses(self):
        reg = MetricsRegistry()
        reg.histogram("h", 2.5, kind="x")
        doc = json.loads(reg.to_json())
        assert doc["histograms"]["h{kind=x}"]["count"] == 1

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.clear()
        assert reg.value("c") is None

    def test_format_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("keep.me", 1)
        reg.counter("drop.me", 1)
        out = reg.format(prefix="keep")
        assert "keep.me" in out and "drop.me" not in out


class TestBoundedHistogram:
    """The bounded-bucket histogram: memory constant for any uptime,
    exact count/sum/min/max, quantiles within one bucket ratio."""

    def test_memory_is_constant(self):
        h = Histogram()
        for i in range(10_000):
            h.observe(0.1 + (i % 100))
        assert len(h.buckets) == len(BUCKET_BOUNDS) + 1
        assert h.count == 10_000
        assert sum(h.buckets) == 10_000

    def test_exact_stats_survive_bucketing(self):
        h = Histogram()
        values = [0.37, 4.2, 4.2, 19.0, 1250.0]
        for v in values:
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == len(values)
        assert d["sum"] == pytest.approx(sum(values))
        assert d["min"] == 0.37 and d["max"] == 1250.0

    def test_quantiles_within_bucket_ratio(self):
        import random

        rng = random.Random(7)
        h = Histogram()
        values = sorted(rng.lognormvariate(1.0, 0.8) for _ in range(5000))
        for v in values:
            h.observe(v)
        for q in (0.50, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            est = h.quantile(q)
            # one bucket is a third of a decade: ratio <= 10^(1/3)
            assert exact / (10 ** (1 / 3)) <= est <= exact * 10 ** (1 / 3)

    def test_quantiles_clamped_to_observed_range(self):
        h = Histogram()
        h.observe(5.0)
        assert h.quantile(0.0) == 5.0
        assert h.quantile(1.0) == 5.0

    def test_nonpositive_values_land_in_first_bucket(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-3.0)
        assert h.buckets[0] == 2
        assert h.minimum == -3.0

    def test_overflow_bucket(self):
        h = Histogram()
        h.observe(1e12)
        assert h.buckets[-1] == 1
        assert h.quantile(0.5) == 1e12

    def test_bucket_index_boundaries(self):
        from repro.obs.metrics import _bucket_index

        for i, bound in enumerate(BUCKET_BOUNDS):
            assert _bucket_index(bound) == i, bound
            # just above a bound lands in the next bucket
            assert _bucket_index(bound * 1.0001) == i + 1

    def test_cumulative_buckets_monotone_and_elided(self):
        h = Histogram()
        for v in (1.0, 2.0, 2.0, 500.0):
            h.observe(v)
        rows = h.cumulative_buckets()
        counts = [c for _, c in rows]
        assert counts == sorted(counts)
        assert counts[-1] == h.count
        assert len(rows) < len(BUCKET_BOUNDS)  # empty tails elided


class TestPrometheusExport:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests_total", 3, op="compile")
        reg.gauge("serve.inflight", 2)
        text = reg.export_prometheus()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{op="compile"} 3' in text
        assert "repro_serve_inflight 2" in text

    def test_histogram_series(self):
        reg = MetricsRegistry()
        for v in (1.0, 5.0, 30.0):
            reg.histogram("serve.latency_ms", v, op="run")
        text = reg.export_prometheus()
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'le="+Inf"' in text
        assert 'repro_serve_latency_ms_count{op="run"} 3' in text
        assert 'repro_serve_latency_ms_sum{op="run"} 36' in text
        for q in ("0.5", "0.95", "0.99"):
            assert f'quantile="{q}"' in text

    def test_names_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird-name.with chars", 1)
        text = reg.export_prometheus()
        assert "repro_weird_name_with_chars 1" in text

    def test_inf_bucket_counts_match(self):
        reg = MetricsRegistry()
        reg.histogram("h", 1e12)  # overflow-bucket value
        text = reg.export_prometheus()
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_count 1" in text


class TestAbsorbers:
    def test_presburger_numbers_unchanged(self):
        from repro.presburger import cache

        with cache.overridden(enabled=True):
            cache.cache_clear()
            from repro.pipeline import detect_pipeline
            from repro.scop import extract_scop
            from repro.lang import parse
            from tests.conftest import LISTING1

            detect_pipeline(extract_scop(parse(LISTING1), {"N": 8}))
            st = cache.stats()
            reg = MetricsRegistry()
            absorb_presburger_cache(reg, st)
        assert reg.value("presburger.cache.hits") == st.hits
        assert reg.value("presburger.cache.misses") == st.misses
        assert reg.value("presburger.cache.entries") == st.entries
        total_op_calls = sum(
            reg.value("presburger.op.calls", op=op) for op in st.ops
        )
        assert total_op_calls == sum(o.calls for o in st.ops.values())

    def test_execution_numbers_unchanged(self):
        from repro.interp import Interpreter, execute_measured
        from repro.pipeline import detect_pipeline
        from tests.conftest import LISTING1

        interp = Interpreter.from_source(LISTING1, {"N": 8})
        info = detect_pipeline(interp.scop)
        _, stats = execute_measured(interp, info, backend="serial")
        reg = MetricsRegistry()
        absorb_execution(reg, stats)
        labels = {"backend": stats.backend}
        assert reg.value("execution.wall_time_s", **labels) == (
            stats.wall_time
        )
        assert reg.value("execution.blocks_total", **labels) == (
            stats.blocks_total
        )
        assert reg.value("execution.fuse", **labels) == "auto"
        assert reg.value("execution.blocks_fused", **labels) == (
            stats.blocks_fused
        )
        assert reg.value("execution.iterations_fused", **labels) == (
            stats.iterations_fused
        )
        assert reg.value(
            "execution.fused_iteration_coverage", **labels
        ) == pytest.approx(stats.fused_iteration_coverage, abs=1e-4)

        # a refused statement exports one series labelled by RPA06x code
        mixed = Interpreter.from_source(
            "for(i=0; i<8; i++) S: A[i] = f(B[i]);\n"
            "for(i=1; i<8; i++) R: C[i] = g(C[i-1], A[i]);",
            {},
        )
        _, stats = execute_measured(mixed, detect_pipeline(mixed.scop))
        absorb_execution(reg, stats)
        assert "recurrence" in reg.value(
            "execution.fused_fallback",
            statement="R", code="RPA066", **labels,
        )
        assert reg.value("execution.vectorize", **labels) is None

    def test_task_overhead_numbers_unchanged(self):
        """The slot counts are cut from the checked graph: P5@10's 600
        depend-in slots reduce to 300, as the pair-level pass that ran
        before scheduling counted them."""
        from repro.interp import Interpreter
        from repro.obs.metrics import task_graph_stats
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast
        from repro.tasking import TaskGraph
        from repro.workloads import TABLE9

        interp = Interpreter.from_source(TABLE9["P5"].source(10), {})
        info = detect_pipeline(interp.scop)
        graph = TaskGraph.from_task_ast(generate_task_ast(info))
        tg = task_graph_stats(graph)
        assert tg == {
            "tasks": 400,
            "edges": 996,
            "depend_in_slots": 600,
            "depend_in_slots_reduced": 300,
            "reduction_ratio": 0.5,
            "critical_path_tasks": 103,
        }
        reg = MetricsRegistry()
        absorb_task_overhead(reg, task_graph=tg)
        assert reg.as_dict()["gauges"] == {
            f"task_graph.{key}": value for key, value in tg.items()
        }

    @pytest.mark.parametrize("kernel", ["privatized", "hybrid"])
    def test_transform_series_describe_the_checked_graph(self, kernel):
        """``task_graph.*`` count the graph the compile checked: join
        tasks and unchained members included, relaxed chains dropped."""
        from pathlib import Path

        from repro.driver import TransformOptions, transform
        from repro.obs.metrics import absorb_transform
        from repro.workloads import MatmulKernel

        if kernel == "privatized":
            root = Path(__file__).resolve().parents[2]
            source = (root / "examples/kernels/histogram.c").read_text()
        else:
            source = MatmulKernel(2, "mm").source(6)

        def series(**options):
            result = transform(
                source, {"N": 16}, TransformOptions(workers=2, **options)
            )
            reg = MetricsRegistry()
            absorb_transform(reg, result)
            assert reg.value("task_graph.tasks") == len(result.graph)
            assert reg.value("task_graph.edges") == result.graph.num_edges
            return result, reg.value("task_graph.critical_path_tasks")

        if kernel == "privatized":
            result, _ = series(privatize=True)
            assert result.joins  # the join task is one of the tasks
        else:
            _, relaxed = series(hybrid=True)
            _, chained = series()
            assert relaxed < chained

    def test_simulation_numbers_unchanged(self):
        from repro.bench import build_scop, pipeline_task_graph
        from repro.tasking import simulate
        from repro.workloads import CostModel
        from tests.conftest import LISTING1

        graph = pipeline_task_graph(
            build_scop(LISTING1, {"N": 8}), CostModel.uniform(1.0)
        )
        sim = simulate(graph, workers=4)
        reg = MetricsRegistry()
        absorb_simulation(reg, sim, graph)
        labels = {"policy": sim.policy}
        assert reg.value("simulation.makespan", **labels) == sim.makespan
        assert reg.value("simulation.tasks", **labels) == len(graph)
        assert reg.value("simulation.speedup", **labels) == pytest.approx(
            graph.total_cost() / sim.makespan, abs=1e-4
        )
