"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

KERNEL = """
for(i=0; i<N-1; i++)
  for(j=0; j<N-1; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for(i=0; i<N/2-1; i++)
  for(j=0; j<N/2-1; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(KERNEL)
    return str(path)


class TestAnalyze:
    def test_prints_summary_and_trees(self, kernel_file, capsys):
        assert main(["analyze", kernel_file, "--param", "N=12"]) == 0
        out = capsys.readouterr().out
        assert "PipelineInfo" in out
        assert "expansion" in out
        assert "pipeline loop" in out

    def test_coarsen_flag(self, kernel_file, capsys):
        main(["analyze", kernel_file, "--param", "N=12", "--coarsen", "3"])
        out = capsys.readouterr().out
        assert "PipelineInfo" in out

    def test_text_output_includes_classification(self, kernel_file, capsys):
        assert main(["analyze", kernel_file, "--param", "N=12"]) == 0
        out = capsys.readouterr().out
        assert "RPA030" in out
        assert "pipeline" in out

    def test_json_format(self, kernel_file, capsys):
        assert main([
            "analyze", kernel_file, "--param", "N=12", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classifications"][0]["classification"] == "pipeline"
        assert all("code" in d for d in payload["diagnostics"])

    def test_sarif_format(self, kernel_file, capsys):
        assert main([
            "analyze", kernel_file, "--param", "N=12", "--format", "sarif",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert payload["runs"][0]["results"]

    def test_error_diagnostics_fail_analyze(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("for(i=0; i<8; i++) S: A[B[i]] = f(A[i]);")
        assert main(["analyze", str(bad)]) == 1
        assert "RPA020" in capsys.readouterr().out


class TestLint:
    def test_clean_kernel_exits_zero(self, kernel_file, capsys):
        assert main(["lint", kernel_file, "--param", "N=12"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("for(i=0; i<8; i++) S: A[B[i]] = f(A[i]);")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPA020" in out and "error" in out

    def test_warning_exits_zero(self, tmp_path, capsys):
        warn = tmp_path / "warn.c"
        warn.write_text("for(i=0; i<8; i++) S: A[i] = f(B[i]);")
        assert main(["lint", str(warn)]) == 0
        out = capsys.readouterr().out
        assert "RPA021" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("for(i=0; i<8; i++) S: A[i%2] = f(A[i]);")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(d["code"] == "RPA020" for d in payload["diagnostics"])

    def test_deep_flag_runs_scop_checks(self, tmp_path, capsys):
        src = tmp_path / "k.c"
        src.write_text(
            "for(i=0; i<8; i++) for(j=0; j<8; j++)"
            " S: A[j] = f(A[j], B[i][j]);"
        )
        assert main(["lint", str(src), "--deep"]) == 1
        out = capsys.readouterr().out
        assert "RPA022" in out


class TestRun:
    def test_verifies_and_reports(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--param", "N=12"]) == 0
        out = capsys.readouterr().out
        assert "matches sequential: True" in out
        assert "speed-up" in out

    def test_empty_kernel_reports_unit_speedup(self, kernel_file, capsys):
        """N=0 leaves both nests without an instance: no task, a zero
        makespan, and a report rather than a traceback."""
        assert main(["run", kernel_file, "--param", "N=0"]) == 0
        out = capsys.readouterr().out
        assert "tasks: 0, edges: 0" in out
        assert "matches sequential: True" in out
        assert "speed-up on 4 workers: 1.00x" in out

    def test_hybrid_flag(self, kernel_file, capsys):
        assert main(["run", kernel_file, "--param", "N=12", "--hybrid"]) == 0
        out = capsys.readouterr().out
        assert "pipelined result matches sequential: True" in out

    def test_timeline_flag(self, kernel_file, capsys):
        main(["run", kernel_file, "--param", "N=12", "--timeline"])
        out = capsys.readouterr().out
        assert "|" in out and "#" in out

    def test_exec_backend_serial(self, kernel_file, capsys):
        assert main([
            "run", kernel_file, "--param", "N=12",
            "--exec-backend", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "measured execution:" in out
        assert "measured result matches sequential: True" in out

    def test_exec_backend_threads_vectorize_on(self, kernel_file, capsys):
        assert main([
            "run", kernel_file, "--param", "N=12",
            "--exec-backend", "threads", "--fuse", "on",
        ]) == 0
        captured = capsys.readouterr()
        assert "fuse=on" in captured.out
        assert "100% iterations fused" in captured.out

    def test_vectorize_off(self, kernel_file, capsys):
        assert main([
            "run", kernel_file, "--param", "N=12",
            "--exec-backend", "serial", "--fuse", "off",
        ]) == 0
        assert "0% iterations fused" in capsys.readouterr().out

    def test_vectorize_on_still_fails_on_a_non_fusable_statement(
        self, tmp_path, capsys
    ):
        kernel = tmp_path / "recurrence.c"
        kernel.write_text("for(i=1; i<N; i++)\n  S: A[i] = f(A[i-1]);\n")
        assert main(
            ["run", str(kernel), "--param", "N=8", "--fuse", "on"]
        ) == 2
        err = capsys.readouterr().err
        assert "repro: " in err and "RPA066" in err

    @pytest.mark.parametrize(
        "flag", [["--vectorize", "auto"], ["--tune"]], ids=lambda f: f[0]
    )
    def test_retired_flag_is_a_usage_error(self, flag, kernel_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", kernel_file, "--param", "N=8", *flag])
        assert exit_.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_bad_exec_backend_rejected(self, kernel_file):
        with pytest.raises(SystemExit):
            main([
                "run", kernel_file, "--param", "N=12",
                "--exec-backend", "gpu",
            ])

    def test_workers_above_the_bound_are_refused(self, kernel_file):
        """Refused before anything is compiled or any pool starts."""
        from repro.interp.executor import MAX_WORKERS

        too_many = str(MAX_WORKERS + 1)
        with pytest.raises(SystemExit, match=f"^workers={too_many}: "):
            main([
                "run", kernel_file, "--param", "N=12",
                "--exec-backend", "processes", "--workers", too_many,
            ])


class TestCodegen:
    def test_emits_program(self, kernel_file, capsys):
        assert main(["codegen", kernel_file, "--param", "N=10"]) == 0
        out = capsys.readouterr().out
        assert "def build_tasks(system, run_block):" in out
        assert "WRITE_NUM = 2" in out

    @pytest.mark.parametrize("name", ["subswap", "histogram", "sumstencil"])
    def test_nonflow_example_emits_a_loadable_program(self, name, capsys):
        """Cross-nest anti dependences: flow-only detection is refused,
        the all-kinds fallback emits (as ``run`` compiles them)."""
        from repro.codegen import load_task_program

        kernel = f"examples/kernels/{name}.c"
        assert main(["codegen", kernel, "--param", "N=8"]) == 0
        module = load_task_program(capsys.readouterr().out)
        assert callable(module.build_tasks)


class TestDeps:
    def test_prints_graph_and_dataflow(self, kernel_file, capsys):
        assert main(["deps", kernel_file, "--param", "N=12"]) == 0
        out = capsys.readouterr().out
        assert "Dependence graph" in out
        assert "S → R [flow" in out
        assert "value-based" in out

    def test_dot_flag(self, kernel_file, capsys):
        main(["deps", kernel_file, "--param", "N=12", "--dot"])
        assert "digraph deps {" in capsys.readouterr().out


class TestEvaluationCommands:
    def test_table9(self, capsys):
        assert main(["table9"]) == 0
        out = capsys.readouterr().out
        assert "P10" in out

    def test_figure10_small(self, capsys):
        assert main(["figure10", "--sizes", "8", "10"]) == 0
        out = capsys.readouterr().out
        assert "P5" in out and "N8/S4" in out

    def test_figure11_small(self, capsys):
        assert main(["figure11", "--matrix-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "4gmmt" in out

    def test_measured_figures_name_their_base(self, capsys):
        assert main(
            ["figure10", "--measured", "--sizes", "8", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "N8/S0" in out
        assert "best serial replay wall / pipelined threads" in out
        # the simulated figure has no base line to print
        assert main(["figure10", "--sizes", "8"]) == 0
        assert "measured:" not in capsys.readouterr().out


class TestReport:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "eval")
        assert main([
            "report", "--out", out, "--sizes", "8", "--matrix-size", "8",
        ]) == 0
        import os

        files = sorted(os.listdir(out))
        assert files == [
            "figure10.txt",
            "figure11.txt",
            "figure2.txt",
            "sensitivity.txt",
            "table9.txt",
        ]
        content = (tmp_path / "eval" / "figure2.txt").read_text()
        assert "Pipeline execution" in content


class TestErrors:
    def test_bad_param_format(self, kernel_file, capsys):
        assert main(["analyze", kernel_file, "--param", "N"]) == 2
        assert "repro: bad --param 'N'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, says",
        [
            (["run", "examples/kernels/dotprod.c", "--param", "N=8"], "RPA013"),
            (["run", "{tmp}/syntax.c"], "expected ')'"),
            (["run", "{tmp}/missing.c"], "No such file"),
            (["run", "examples/kernels/listing1.c", "--param", "N=x"],
             "expected NAME=INT"),
            (["run", "{tmp}/parens.c"], "1:127: nesting deeper than 100"),
            (["run", "{tmp}/minus.c"], "1:127: nesting deeper than 100"),
            (["run", "{tmp}/twice.c"], "2:18: duplicate statement label"),
            # the 100th '+' of the statement's chain is one level too deep
            (["run", "{tmp}/chain300.c"], "1:227: nesting deeper than 100"),
            (["run", "{tmp}/chain3000.c"], "1:227: nesting deeper than 100"),
        ],
        ids=["invalid-scop", "parse-error", "missing-file", "bad-param",
             "deep-parens", "deep-minus", "duplicate-label", "long-chain",
             "longer-chain"],
    )
    def test_input_errors_are_diagnostics_not_tracebacks(
        self, argv, says, tmp_path, capsys
    ):
        (tmp_path / "syntax.c").write_text("for(i=0;i<8;i++ S: A[i] = f(A[i]);\n")
        head = "for(i=0;i<4;i++) S: A[i] = "
        (tmp_path / "parens.c").write_text(
            head + "(" * 1200 + "i" + ")" * 1200 + ";\n"
        )
        (tmp_path / "minus.c").write_text(head + "-" * 3000 + "i;\n")
        (tmp_path / "twice.c").write_text(
            head + "1;\nfor(i=0;i<4;i++) S: B[i] = A[i];\n"
        )
        for terms in (300, 3000):
            (tmp_path / f"chain{terms}.c").write_text(
                head + "+".join(["i"] * terms) + ";\n"
            )
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: ") and says in captured.err
        assert "Traceback" not in captured.err and not captured.out

    def test_a_100_term_operator_chain_runs(self, tmp_path, capsys):
        # 99 operators below the loop's level: the deepest chain accepted
        (tmp_path / "k.c").write_text(
            "for(i=0;i<4;i++) S: A[i] = " + "+".join(["i"] * 100) + ";\n"
        )
        assert main(["run", str(tmp_path / "k.c")]) == 0
        assert "result matches sequential: True" in capsys.readouterr().out

    def test_auto_label_beside_an_explicit_one_runs(self, tmp_path, capsys):
        # the unlabelled statement is S1, not a second S0
        (tmp_path / "k.c").write_text(
            "for(i=0;i<8;i++) S0: A[i] = 1;\n"
            "for(i=0;i<8;i++) B[i] = A[i];\n"
        )
        assert main(["run", str(tmp_path / "k.c")]) == 0
        assert "result matches sequential: True" in capsys.readouterr().out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCommandSet:
    def test_subcommands_are_exactly_these(self):
        """Adding or dropping a subcommand is a visible decision."""
        import argparse

        (sub,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {
            "analyze", "lint", "run", "profile", "codegen", "deps",
            "table9", "figure10", "figure11", "report",
            "serve", "top", "store",
        }

    @pytest.mark.parametrize("name", ["exec", "overhead", "serve"])
    def test_retired_bench_commands_are_unknown(self, name, capsys):
        """Wall-clock benchmarking is ``ledger/run.py``, not a subcommand."""
        with pytest.raises(SystemExit) as exc:
            main([f"bench-{name}"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_serve_speaks_one_protocol(self, capsys):
        """The registry is read through the ``metrics`` / ``health`` /
        ``requests`` verbs; there is no HTTP listener beside them."""
        import inspect

        from repro.service.server import serve

        assert "http_port" not in inspect.signature(serve).parameters
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--help"])
        assert exc.value.code == 0
        assert "--http-port" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--http-port", "0"])
        assert exc.value.code == 2


class TestObservability:
    def test_run_trace_and_metrics(self, kernel_file, tmp_path, capsys):
        from repro.bench import validate_trace_document

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main([
            "run", kernel_file, "--param", "N=10",
            "--exec-backend", "threads",
            "--trace", str(trace), "--metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        doc = json.loads(trace.read_text())
        assert validate_trace_document(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1, 2}  # sim + compile spans + measured lanes
        assert "runtime" in doc["otherData"]
        reg = json.loads(metrics.read_text())
        assert any(
            k.startswith("execution.wall_time_s") for k in reg["gauges"]
        )
        assert any(
            k.startswith("simulation.makespan") for k in reg["gauges"]
        )

    def test_run_trace_without_backend_has_no_measured_lane(
        self, kernel_file, tmp_path
    ):
        trace = tmp_path / "trace.json"
        assert main([
            "run", kernel_file, "--param", "N=10", "--trace", str(trace),
        ]) == 0
        doc = json.loads(trace.read_text())
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {0, 1}

    def test_run_accepts_backend_alias(self, kernel_file, capsys):
        assert main([
            "run", kernel_file, "--param", "N=10",
            "--exec-backend", "thread",
        ]) == 0
        assert "threads" in capsys.readouterr().out

    def test_profile_text(self, kernel_file, capsys):
        assert main([
            "profile", kernel_file, "--param", "N=10",
            "--backend", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "simulated-vs-measured" in out
        assert "per-statement self time" in out

    def test_profile_json_and_out(self, kernel_file, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        assert main([
            "profile", kernel_file, "--param", "N=10",
            "--backend", "serial", "--format", "json",
            "--out", str(out_path),
        ]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[: stdout.rindex("}") + 1])
        assert payload["backend"] == "serial"
        assert payload["critical_path"]
        saved = json.loads(out_path.read_text())
        assert saved["tasks"] == payload["tasks"]

    def test_profile_of_a_chain_merged_kernel_names_single_statements(
        self, tmp_path, monkeypatch, capsys
    ):
        """P5's four nests fuse into S1+S2+S3+S4 chains; the profile
        expands the merged events onto the unfused graph, so every row
        names one statement and every task is timed."""
        from repro.obs.runtime import RuntimeTrace
        from repro.workloads import TABLE9

        expanded = []
        real = RuntimeTrace.expand_members

        def spy(self, members, **kw):
            expanded.append(max(len(row) for row in members))
            return real(self, members, **kw)

        monkeypatch.setattr(RuntimeTrace, "expand_members", spy)
        path = tmp_path / "p5.c"
        path.write_text(TABLE9["P5"].source(12))
        assert main([
            "profile", str(path), "--backend", "serial", "--format", "json",
        ]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[: stdout.rindex("}") + 1])
        assert expanded == [4]  # one expansion, of four-statement chains
        names = {"S1", "S2", "S3", "S4"}
        assert set(payload["statements"]) == names
        assert payload["critical_path"]
        assert {row["statement"] for row in payload["critical_path"]} <= names
        assert {row["statement"] for row in payload["top_slack"]} <= names
        assert payload["events"] == payload["tasks"] == 4 * 12 * 12

    def test_analyze_stats_reports_registry(self, kernel_file, capsys):
        assert main([
            "analyze", kernel_file, "--param", "N=10", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics registry:" in out
        # all four legacy stat families surface as registry series
        assert "presburger.cache.hits" in out
        assert "task_graph.tasks" in out
        assert "simulation.makespan{policy=fifo}" in out
        assert "execution.wall_time_s{backend=serial}" in out

    def test_analyze_stats_reports_fusion_coverage(self, kernel_file, capsys):
        assert main([
            "analyze", kernel_file, "--param", "N=10", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        # both LISTING1 statements compile to fused closures
        assert "fusion coverage: 2/2 statements" in out

    def test_analyze_stats_reports_fusion_fallbacks(self, tmp_path, capsys):
        src = tmp_path / "diagonal.c"
        src.write_text(
            "for(i=0; i<N; i++)\n  for(j=0; j<N; j++)\n"
            "    S: A[i][j] = f(A[i][j]);\n"
            "for(i=0; i<N; i++)\n  for(j=0; j<N; j++)\n"
            "    R: B[i][j] = g(A[i][i], B[i][j]);\n"
        )
        assert main([
            "analyze", str(src), "--param", "N=10", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "fusion coverage: 1/2 statements" in out
        assert "fallbacks:" in out
        # the refused statement surfaces with its RPA-style gate code
        assert "R: [RPA064]" in out


HISTOGRAM_KERNEL = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""


@pytest.fixture
def histogram_file(tmp_path):
    path = tmp_path / "histogram.c"
    path.write_text(HISTOGRAM_KERNEL)
    return str(path)


class TestRunPrivatize:
    def test_privatized_run_verifies_and_reports_joins(
        self, histogram_file, capsys
    ):
        assert main([
            "run", histogram_file, "--param", "N=8", "--privatize",
        ]) == 0
        out = capsys.readouterr().out
        assert "privatization plan: 1 group(s)" in out
        assert "privatize sum over 'H'" in out
        assert "1 join task(s)" in out
        assert "privatized result matches sequential: True" in out

    def test_privatize_parts_flag(self, histogram_file, capsys):
        assert main([
            "run", histogram_file, "--param", "N=8",
            "--privatize", "--privatize-parts", "3",
        ]) == 0
        assert "3 part(s)/statement" in capsys.readouterr().out

    def test_privatize_with_measured_backend(self, histogram_file, capsys):
        assert main([
            "run", histogram_file, "--param", "N=8",
            "--privatize", "--exec-backend", "threads", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "measured privatized result matches sequential: True" in out

    def test_privatize_without_proofs_falls_through(
        self, kernel_file, capsys
    ):
        assert main([
            "run", kernel_file, "--param", "N=12", "--privatize",
        ]) == 0
        out = capsys.readouterr().out
        assert "no verified privatization proofs" in out
        assert "pipelined result matches sequential: True" in out

    def test_privatize_composes_with_hybrid(self, histogram_file, capsys):
        """A flag this once refused: ``--hybrid`` composes (the
        relaxation skips privatized members)."""
        assert main([
            "run", histogram_file, "--param", "N=8",
            "--privatize", "--hybrid",
        ]) == 0
        out = capsys.readouterr().out
        assert "privatized result matches sequential: True" in out

    def test_privatized_trace_contains_join_span(
        self, histogram_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        assert main([
            "run", histogram_file, "--param", "N=8", "--privatize",
            "--exec-backend", "threads", "--workers", "2",
            "--trace", str(trace),
        ]) == 0
        doc = json.loads(trace.read_text())
        from repro.bench import validate_trace_document

        assert not validate_trace_document(doc)
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "join(H)" in names


@pytest.fixture
def write_kernel(tmp_path):
    def write(name, source):
        path = tmp_path / f"{name}.c"
        path.write_text(source)
        return str(path)

    return write


class TestAllKindsFallback:
    """Flow first, every dependence class on UncoveredDependenceError —
    the same for ``run`` and ``profile``, with and without a store."""

    @pytest.mark.parametrize("store", [False, True], ids=["direct", "store"])
    @pytest.mark.parametrize("kernel", ["ANTI_KERNEL", "OUTPUT_KERNEL"])
    @pytest.mark.parametrize(
        "command", [["run"], ["profile", "--backend", "serial"]],
        ids=["run", "profile"],
    )
    def test_nonflow_kernel_runs_and_verifies(
        self, command, kernel, store, write_kernel, tmp_path, capsys
    ):
        from tests.pipeline import test_nonflow

        argv = [*command, write_kernel(kernel, getattr(test_nonflow, kernel))]
        if store:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "result matches sequential: True" in capsys.readouterr().out


class TestRunExecutes:
    """``repro run`` executes what ``transform`` does with the same
    options — one oracle, one replay — and its verdict is about that
    replay."""

    @pytest.mark.parametrize(
        "kernel,flags,expected",
        [
            pytest.param(
                KERNEL, [],
                {"oracle": 1, "graph": 0, "replay": ["threads"]},
                id="plain",
            ),
            pytest.param(
                KERNEL, ["--exec-backend", "serial"],
                {"oracle": 1, "graph": 0, "replay": ["serial"]},
                id="serial",
            ),
            pytest.param(  # every spelling the driver and serve accept
                KERNEL, ["--exec-backend", "threading"],
                {"oracle": 1, "graph": 0, "replay": ["threading"]},
                id="threading",
            ),
            pytest.param(
                HISTOGRAM_KERNEL,
                ["--privatize", "--exec-backend", "threads"],
                {"oracle": 1, "graph": 0, "replay": ["threads"]},
                id="privatized-threads",
            ),
            pytest.param(
                KERNEL, ["--hybrid"],
                {"oracle": 1, "graph": 0, "replay": ["threads"]},
                id="hybrid",
            ),
            pytest.param(
                KERNEL, ["--hybrid", "--exec-backend", "processes"],
                {"oracle": 1, "graph": 0, "replay": ["processes"]},
                id="hybrid-processes",
            ),
        ],
    )
    def test_execution_counts(
        self, executions, kernel, flags, expected, write_kernel, capsys
    ):
        path = write_kernel("kernel", kernel)
        assert main(["run", path, "--param", "N=8", *flags]) == 0
        assert executions == expected
        out = capsys.readouterr().out
        # one printed verdict per execution that happened
        assert out.count("matches sequential: True") == 1

    def test_failed_verification_exits_one_without_traceback(
        self, kernel_file, monkeypatch, capsys
    ):
        from repro.interp import ArrayStore

        monkeypatch.setattr(ArrayStore, "equal", lambda self, other: False)
        with pytest.raises(SystemExit) as exit_:
            main(["run", kernel_file, "--param", "N=8"])
        assert exit_.value.code == 1
        captured = capsys.readouterr()
        assert "matches sequential: False" in captured.out
        assert "threads plan replay diverged" in captured.out
        assert "Traceback" not in captured.out + captured.err


def _store_delta(before):
    from repro.store import session_counters

    after = session_counters()
    return {
        k: after.get(k, 0) - before.get(k, 0) for k in ("hits", "puts")
    }


class TestRunStore:
    """``run --cache-dir`` is ``transform(..., cache_dir=)``: keyed by
    the options the command really runs with."""

    @pytest.mark.parametrize(
        "kernel,flags",
        [
            pytest.param(KERNEL, [], id="plain"),
            pytest.param(KERNEL, ["--privatize"], id="privatize-no-proofs"),
            pytest.param(HISTOGRAM_KERNEL, ["--privatize"], id="privatized"),
        ],
    )
    def test_cold_then_warm_with_identical_output(
        self, kernel, flags, write_kernel, tmp_path, capsys
    ):
        from repro.store import session_counters

        cache = str(tmp_path / "cache")
        argv = ["run", write_kernel("kernel", kernel), "--param", "N=8",
                *flags, "--cache-dir", cache]
        outputs, deltas = [], []
        for _ in range(2):
            before = session_counters()
            assert main(argv) == 0
            deltas.append(_store_delta(before))
            outputs.append(capsys.readouterr().out.splitlines())
        assert deltas == [{"hits": 0, "puts": 1}, {"hits": 1, "puts": 0}]
        assert outputs[0][0] == f"compile cache: cold ({cache})"
        assert outputs[1][0] == f"compile cache: warm ({cache})"
        assert outputs[0][1:] == outputs[1][1:]

    def test_key_is_transforms_key_over_the_options_run(
        self, kernel_file, tmp_path, capsys
    ):
        from repro.driver import TransformOptions, transform

        cache = str(tmp_path / "cache")
        argv = ["run", kernel_file, "--param", "N=8", "--cache-dir", cache]
        assert main(argv) == 0
        # a library call with equal options shares the artifact ...
        shared = transform(KERNEL, {"N": 8}, TransformOptions(), cache_dir=cache)
        assert shared.cache_status == "warm"
        # ... a command line that differs in a run-only flag does not
        assert main([*argv, "--exec-backend", "serial"]) == 0
        assert "compile cache: cold" in capsys.readouterr().out
