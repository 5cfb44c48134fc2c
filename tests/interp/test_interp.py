"""Tests for the sequential reference interpreter."""

import numpy as np
import pytest

from repro.interp import DEFAULT_FUNCS, ArrayStore, Interpreter


class TestSequentialSemantics:
    def test_known_small_result(self):
        interp = Interpreter.from_source(
            "for(i=0; i<3; i++) S: A[i][0] = f(A[i][0]);",
            {},
            funcs={"f": lambda x: x + 10},
        )
        store = ArrayStore.for_scop(interp.scop, init="zeros")
        interp.run_sequential(store)
        assert store.arrays["A"].data[:3, 0].tolist() == [10.0, 10.0, 10.0]

    def test_loop_carried_order(self):
        """A[i] = A[i-1] + 1 — a prefix chain proves execution order."""
        interp = Interpreter.from_source(
            "for(i=1; i<6; i++) S: A[i][0] = f(A[i-1][0]);",
            {},
            funcs={"f": lambda x: x + 1},
        )
        store = ArrayStore.for_scop(interp.scop, init="zeros")
        interp.run_sequential(store)
        assert store.arrays["A"].data[:6, 0].tolist() == [0, 1, 2, 3, 4, 5]

    def test_imperfect_nest_interleaving(self):
        """Two statements in one loop body interleave per iteration."""
        log = []
        interp = Interpreter.from_source(
            "for(i=0; i<3; i++) {\n"
            "  S: A[i][0] = s(A[i][0]);\n"
            "  T: B[i][0] = t(B[i][0]);\n"
            "}",
            {},
            funcs={
                "s": lambda x: log.append("S") or 0.0,
                "t": lambda x: log.append("T") or 0.0,
            },
        )
        interp.run_sequential(interp.new_store())
        assert log == ["S", "T", "S", "T", "S", "T"]

    def test_parameterized_bounds(self):
        interp = Interpreter.from_source(
            "for(i=0; i<N; i++) S: A[i][0] = f(A[i][0]);",
            {"N": 4},
            funcs={"f": lambda x: 1.0},
        )
        store = ArrayStore.for_scop(interp.scop, init="zeros")
        interp.run_sequential(store)
        assert store.arrays["A"].data[:, 0].sum() == 4.0

    def test_triangular_bounds(self):
        count = []
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) for(j=0; j<=i; j++) "
            "S: A[i][j] = f(A[i][j]);",
            {},
            funcs={"f": lambda x: count.append(1) or 0.0},
        )
        interp.run_sequential(interp.new_store())
        assert len(count) == 10

    def test_empty_loop_runs_nothing(self):
        interp = Interpreter.from_source(
            "for(i=0; i<0; i++) S: A[i][0] = f(A[i][0]);",
            {},
            funcs={"f": lambda x: pytest.fail("should not run")},
        )
        interp.run_sequential(interp.new_store())


class TestCompiledOracle:
    """``run_sequential`` is one generated function per program
    (``compile_program``); ``TestSequentialSemantics`` above pins what
    it computes, these pin how it is built."""

    def test_inclusive_and_parametric_inner_bounds(self):
        hits = []
        interp = Interpreter.from_source(
            "for(i=1; i<=N/2; i++) for(j=i; j<=N-i; j++)"
            " S: A[i][j] = f(A[i][j]);",
            {"N": 6},
            funcs={"f": lambda x: hits.append(1) or 0.0},
        )
        interp.run_sequential(interp.new_store())
        # j runs i..6-i inclusive for i = 1, 2, 3
        assert len(hits) == 5 + 3 + 1
        assert len(hits) == len(interp.scop.statement("S").points.points)

    def test_empty_body_and_builtin_named_loop_variable(self):
        interp = Interpreter.from_source(
            "for(k=0; k<3; k++) { }\n"
            "for(range=0; range<3; range++) S: A[range] = f(A[range]);",
            {},
            funcs={"f": lambda x: 7.0},
        )
        store = interp.run_sequential(interp.new_store())
        assert store.arrays["A"].data.tolist() == [7.0, 7.0, 7.0]

    def test_built_once_and_from_the_ast_alone(self, monkeypatch):
        """The oracle shares no generator with the fused kernels it is
        compared against, and repeat runs reuse one function."""
        from repro.interp import compile as compile_mod
        from repro.interp import fused as fused_mod

        def refuse(*_a, **_k):
            raise AssertionError("the oracle must not use closure specs")

        for name in ("loop_source", "closure_source", "build_closure"):
            monkeypatch.setattr(fused_mod, name, refuse)
        monkeypatch.setattr(compile_mod, "emit_closure_spec", refuse)
        built = []
        real = compile_mod.compile_program
        monkeypatch.setattr(
            "repro.interp.interp.compile_program",
            lambda *a: built.append(1) or real(*a),
        )
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) S: A[i] = f(A[i]);", {}
        )
        first = interp.run_sequential(interp.new_store())
        again = interp.run_sequential(interp.new_store())
        assert first.equal(again) and built == [1]

    def test_nan_run_equals_its_own_second_run(self):
        interp = Interpreter.from_source(
            "for(i=0; i<4; i++) S: A[i] = (A[i] - A[i]) / (A[i] - A[i]);",
            {},
        )
        with np.errstate(invalid="ignore"):
            first = interp.run_sequential(interp.new_store())
            again = interp.run_sequential(interp.new_store())
        assert np.isnan(first.arrays["A"].data).all()
        assert first.equal(again)


class TestRetainedOracle:
    """``Interpreter.oracle()``: the arrays of ``run_sequential`` on a
    fresh store, computed once, read-only, retained up to a byte bound."""

    SOURCE = "for(i=0; i<N; i++) S: A[i] = f(A[i], B[i]);"

    def _counting(self, n=8):
        calls = []
        interp = Interpreter.from_source(
            self.SOURCE, {"N": n},
            funcs={"f": lambda a, b: calls.append(1) or a + b},
        )
        return interp, calls

    def test_equals_a_sequential_run_and_is_computed_once(self):
        interp, calls = self._counting()
        first = interp.oracle()
        assert len(calls) == 8
        assert interp.oracle() is first and len(calls) == 8
        assert first.equal(interp.run_sequential(interp.new_store()))
        assert interp.oracle_bytes == first.nbytes == 2 * 8 * 8

    def test_arrays_are_read_only(self):
        interp, _ = self._counting()
        kept = interp.oracle()
        with pytest.raises(ValueError, match="read-only"):
            kept.arrays["A"].data[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            interp.run_sequential(kept)  # an aliasing replay fails loudly
        assert kept.copy().arrays["A"].data.flags.writeable  # copies are private

    def test_over_the_bound_nothing_is_retained(self, monkeypatch):
        from repro.interp import interp as interp_mod

        monkeypatch.setattr(interp_mod, "ORACLE_KEEP_BYTES", 2 * 8 * 8 - 1)
        interp, calls = self._counting()
        first, again = interp.oracle(), interp.oracle()
        assert len(calls) == 16 and first is not again
        assert first.equal(again) and interp.oracle_bytes == 0
        assert not first.arrays["A"].data.flags.writeable

    def test_concurrent_first_callers_pay_once(self):
        import threading

        interp, calls = self._counting(64)
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(interp.oracle()))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 64 and len({id(s) for s in got}) == 1

    def test_computation_runs_under_the_callers_span(self):
        from repro.obs import spans as obs_spans

        interp, _ = self._counting()
        with obs_spans.recording() as rec:
            interp.oracle("driver.oracle")
            interp.oracle("driver.oracle")
        (span,) = [s for s in rec.spans if s.name == "driver.oracle"]
        assert span.attrs == {"bytes": 128, "kept": True}


class TestRetainedInputs:
    """``Interpreter.new_store()``: a writable copy of initial arrays
    built once, frozen and retained up to the oracle's byte bound."""

    SOURCE = (
        "for(i=0; i<N; i++) S: A[i] = f(A[i], B[i]);\n"
        "for(i=0; i<N; i++) T: C[i] = g(A[i], C[i]);"
    )

    @staticmethod
    def _counting_fill(monkeypatch):
        builds = []
        real = ArrayStore.for_scop

        def counting(scop, init="index"):
            builds.append(init)
            return real(scop, init)

        monkeypatch.setattr(ArrayStore, "for_scop", staticmethod(counting))
        return builds

    def test_replays_build_the_inputs_once(self, monkeypatch):
        from repro.interp import execute_measured
        from repro.pipeline import detect_pipeline

        builds = self._counting_fill(monkeypatch)
        interp = Interpreter.from_source(self.SOURCE, {"N": 16})
        info = detect_pipeline(interp.scop)
        oracle = interp.oracle()
        for backend in ("serial", "threads") * 3:
            out, _ = execute_measured(interp, info, backend=backend, workers=2)
            assert oracle.equal(out), backend
        assert builds == ["index"]

    def test_a_copy_is_the_fill_writable_and_private(self):
        interp = Interpreter.from_source(self.SOURCE, {"N": 16})
        first = interp.new_store()
        assert first.equal(ArrayStore.for_scop(interp.scop))
        for view in first.arrays.values():
            assert view.data.flags.writeable and view.data.flags.c_contiguous
        first.arrays["A"].data[...] = -1.0
        again = interp.new_store()
        assert again.equal(ArrayStore.for_scop(interp.scop))
        assert not np.shares_memory(first.arrays["A"].data, again.arrays["A"].data)
        assert interp.input_bytes == again.nbytes == 3 * 16 * 8

    def test_kept_arrays_are_read_only(self):
        interp = Interpreter.from_source(self.SOURCE, {"N": 16})
        interp.new_store()
        kept = interp._inputs
        assert all(
            not view.data.flags.writeable for view in kept.arrays.values()
        )
        with pytest.raises(ValueError, match="read-only"):
            kept.arrays["A"].data[0] = 1.0

    def test_over_the_bound_nothing_is_kept(self, monkeypatch):
        from repro.interp import interp as interp_mod

        monkeypatch.setattr(interp_mod, "ORACLE_KEEP_BYTES", 0)
        builds = self._counting_fill(monkeypatch)
        interp = Interpreter.from_source(self.SOURCE, {"N": 16})
        stores = [interp.new_store() for _ in range(3)]
        assert builds == ["index"] * 3
        assert interp._inputs is None and interp.input_bytes == 0
        assert all(s.arrays["A"].data.flags.writeable for s in stores)
        assert stores[0].equal(stores[2])

    def test_racing_first_callers_get_equal_stores(self):
        import sys
        import threading

        interp = Interpreter.from_source(self.SOURCE, {"N": 64})
        callers = 8
        start = threading.Barrier(callers)
        got = []

        def first_call():
            start.wait(timeout=10)
            got.append(interp.new_store())

        threads = [threading.Thread(target=first_call) for _ in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == callers
        fill = ArrayStore.for_scop(interp.scop)
        assert all(store.equal(fill) for store in got)
        cells = [store.arrays["A"].data for store in got]
        assert not any(
            np.shares_memory(a, b)
            for k, a in enumerate(cells)
            for b in cells[k + 1:]
        )


class TestDefaultFuncs:
    def test_mix_is_deterministic(self):
        f = DEFAULT_FUNCS["f"]
        assert f(1.0, 2.0) == f(1.0, 2.0)

    def test_mix_is_order_sensitive(self):
        f = DEFAULT_FUNCS["f"]
        assert f(1.0, 2.0) != f(2.0, 1.0)

    def test_mix_bounded(self):
        f = DEFAULT_FUNCS["f"]
        assert 0 <= f(1e9, -1e9, 123.0) < 65521.0


class TestBlockExecution:
    def test_execute_blocks_in_order(self, listing1_interp):
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast
        from tests.conftest import execute_blocks_in_order

        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        ast = generate_task_ast(info)
        seq = interp.run_sequential(interp.new_store())
        # program order of blocks is one valid topological order
        store = execute_blocks_in_order(
            interp, interp.new_store(), ast.all_blocks()
        )
        assert seq.equal(store)
