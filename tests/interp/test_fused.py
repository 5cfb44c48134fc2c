"""Fused-closure execution: specs, codegen, chains and the kernel forms.

The acceptance property of the block-kernel tier: every kernel of the
portfolio runs fused (mixed where a statement is refused) and unfused on
all three backends and every store matches ``run_sequential``
bit-exactly.  The replay battery of ``test_plan.py`` runs P1–P10 and
the listings as they come; this file runs them again with each kernel
form forced, and runs the shapes only it has.  On top of that the
suite pins the spec grammar (round-trip
+ pickling), the legality gate's RPA06x refusal codes, the chain
planner's merge decisions and the coverage accounting the profiler and
the ledger consume.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.interp import (
    ClosureSpec,
    Interpreter,
    NotFusable,
    build_closure,
    closure_source,
    emit_closure_spec,
    execute_measured,
    execute_privatized,
    fuse_scop,
    fusion_legal_pair,
    loop_source,
    privatized_matches,
)
from repro.interp import fused as fused_mod
from repro.pipeline import detect_pipeline
from repro.workloads import TABLE9
from tests.conftest import (
    LISTING1,
    LISTING3,
    TWO_NEST_COPY,
    assert_all_configs_match_sequential,
    blocking_compute,
    compile_for_exec,
    run_measured,
)
from tests.interp.test_plan import candidate_streams, pin_verdict
from tests.interp.test_privatized_exec import privatized_setup

PKERNELS = sorted(TABLE9, key=lambda k: int(k[1:]))

GOLDEN_DIR = Path(__file__).parent / "golden" / "fused"
EXAMPLES_DIR = Path(__file__).parents[2] / "examples" / "kernels"

#: Reduction kernel: S and R's reversed write (a reversed view) both
#: have slice forms.
HISTOGRAM = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""

#: S fuses, T's recurrence refuses (RPA066) — the canonical *mixed*
#: program (slice and loop-only kernels in one run).
MIXED = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: A[i][j] = f(A[i][j]);
for(i=0; i<N; i++)
  for(j=1; j<N; j++)
    T: B[i][j] = g(A[i][j], B[i][j-1]);
"""

#: ``(source, params, funcs)``.  ``opaque-stage`` is the latency-bound
#: workload: a picklable blocking function the fuser must refuse, so all
#: four configs run it per iteration — on worker processes too.
EXAMPLES = [
    pytest.param(LISTING1, {"N": 12}, None, id="listing1"),
    pytest.param(LISTING3, {"N": 12}, None, id="listing3"),
    pytest.param(TWO_NEST_COPY, {"N": 8}, None, id="copy"),
    pytest.param(HISTOGRAM, {"N": 8}, None, id="histogram"),
    pytest.param(MIXED, {"N": 8}, None, id="mixed"),
    *(  # shipped kernels with a reversed pass (histogram is HISTOGRAM)
        pytest.param(
            (EXAMPLES_DIR / f"{name}.c").read_text(), {"N": 12}, None, id=name
        )
        for name in ("sumstencil", "subswap", "reversed")
    ),
    pytest.param(
        TABLE9["P5"].source(4),
        {},
        {"compute": blocking_compute},
        id="opaque-stage",
    ),
]


def assert_chains_match_interpreter_on_all_backends():
    oracle = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
    seq = oracle.run_sequential(oracle.new_store())
    for backend in ("serial", "threads", "processes"):
        store, stats = run_measured(TWO_NEST_COPY, backend, "auto",
                                    params={"N": 8}, coarsen=4)
        assert ("S", "T") in stats.fused_chains
        assert seq.equal(store), f"chained {backend} diverged"


# ----------------------------------------------------------------------
# the fused / loop-form battery
# ----------------------------------------------------------------------
class TestFusedBitIdentity:
    """The shapes only this battery runs: the replay battery
    (``test_plan.py::TestReplayBitIdentity``) runs P1–P10 and the
    listings through the same helper."""

    @pytest.mark.parametrize(
        "source,params,funcs",
        [
            p for p in EXAMPLES
            if p.id not in ("listing1", "listing3", "reversed")
        ],
    )
    def test_example_all_configs(self, source, params, funcs):
        assert_all_configs_match_sequential(
            source, params, coarsen=8, funcs=funcs
        )

    def test_fused_counters_and_coverage(self):
        store, stats = run_measured(TWO_NEST_COPY, "serial", "auto",
                                    params={"N": 8}, coarsen=4)
        assert stats.blocks_fused == stats.blocks_total
        assert stats.fused_block_coverage == 1.0
        assert stats.fused_iteration_coverage == 1.0
        assert stats.dispatch_modes == {"S": "fused", "T": "fused"}
        assert "fused" in stats.summary()
        d = stats.as_dict()
        assert d["fuse"] == "auto"
        assert d["blocks_fused"] == stats.blocks_fused
        assert d["fused_block_coverage"] == 1.0

    def test_mixed_program_reports_fallback(self):
        _, stats = run_measured(MIXED, "serial", "auto",
                                params={"N": 8}, coarsen=8)
        assert stats.dispatch_modes["S"] == "fused"
        assert stats.dispatch_modes["T"] == "interp"
        assert stats.fused_fallback["T"]["code"] == "RPA066"
        assert 0.0 < stats.fused_block_coverage < 1.0


# ----------------------------------------------------------------------
# the two forms of a fused kernel: slices and loops from one spec
# ----------------------------------------------------------------------
class TestKernelForms:
    """The battery again with every rectangle forced into one form
    (``kernel_form``: ``LOOP_FORM_POINTS`` 0 = all slices, huge = all
    loops), and at block sizes around the real constant, where one run
    mixes both."""

    @pytest.mark.parametrize("name", PKERNELS)
    def test_pkernel_all_configs(self, name, kernel_form):
        assert_all_configs_match_sequential(TABLE9[name].source(8))

    @pytest.mark.parametrize("source,params,funcs", EXAMPLES)
    def test_example_all_configs(self, source, params, funcs, kernel_form):
        assert_all_configs_match_sequential(
            source, params, coarsen=8, funcs=funcs
        )

    def test_chains_match_interpreter_on_all_backends(self, kernel_form):
        assert_chains_match_interpreter_on_all_backends()

    @pytest.mark.parametrize("coarsen", [1, 3, 5])
    @pytest.mark.parametrize("name", ["P1", "P5", "P8"])
    def test_blocks_around_the_constant(self, name, coarsen):
        assert_all_configs_match_sequential(
            TABLE9[name].source(8), coarsen=coarsen
        )

    @pytest.mark.parametrize("coarsen", [1, 60])
    def test_form_follows_rectangle_size(self, coarsen):
        """Count-based: replaying P5@14 per row (a collecting threads
        replay, one worker — an untraced one runs the chain as one claim
        over the stream's union, as serial does), one-point blocks never
        call the slice form and 60-point blocks never call the loop form
        on a rectangle above the constant (small edge rectangles may)."""
        from repro.obs import spans as obs_spans

        interp, info = compile_for_exec(
            TABLE9["P5"].source(14), "auto", coarsen=coarsen
        )
        plan = interp.exec_plan(info)
        calls = {"slice": [], "loop": []}

        def counting(form, fn):
            def wrapper(store, funcs, lo, hi):
                calls[form].append(
                    int(np.prod(np.subtract(hi, lo) + 1))
                )
                return fn(store, funcs, lo, hi)
            return wrapper

        for kernel in filter(None, plan.streams.values()):
            kernel.fn = counting("slice", kernel.fn)
            kernel.loop_fn = counting("loop", kernel.loop_fn)
        oracle = interp.run_sequential(interp.new_store())
        with obs_spans.recording() as rec:
            store, _ = execute_measured(
                interp, info, backend="threads", workers=1,
                collect_events=True,
            )
        assert oracle.equal(store)

        limit = fused_mod.LOOP_FORM_POINTS
        assert all(n <= limit for n in calls["loop"])
        assert all(n > limit for n in calls["slice"])
        total = len(calls["loop"]) + len(calls["slice"])
        if coarsen == 1:
            assert calls["slice"] == [] and total == len(plan.rows)
        else:
            assert calls["slice"] and max(calls["slice"]) > 3 * limit
        # the rows' span counted the same rectangles the run executed
        (rows,) = [s for s in rec.spans if s.name == "exec.rows"]
        assert rows.attrs["rects"] == total
        assert rows.attrs["loop_rects"] == len(calls["loop"])

    def test_run_block_selects_per_rectangle(self):
        """``run_block`` (generated programs, the ledger's kernel pass)
        goes through the same selection site."""
        interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 6})
        kernel = interp.fused_program.get("S")
        seen = []
        kernel.fn = lambda *a, fn=kernel.fn: seen.append("slice") or fn(*a)
        kernel.loop_fn = (
            lambda *a, fn=kernel.loop_fn: seen.append("loop") or fn(*a)
        )
        store = interp.new_store()
        # lex interval (0,4)..(2,1): a 2-point head, a full row, a 2-point tail
        iters = np.array(
            [[0, 4], [0, 5]] + [[1, j] for j in range(6)] + [[2, 0], [2, 1]]
        )
        interp.run_block(store, "S", iters)
        assert seen == ["loop", "slice", "loop"]


def _kernel_in_worker(blob: bytes):
    """Spawned-process half of ``test_pickled_kernel_rebuilds_both_forms``:
    unpickle a kernel, report both sources and one loop-form result."""
    kernel = pickle.loads(blob)
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 6})
    store = interp.new_store()
    kernel.loop_fn(store, interp.funcs, (0, 0), (5, 5))
    return (
        kernel.source,
        loop_source(kernel.spec),
        {n: v.data.tobytes() for n, v in store.arrays.items()},
    )


# ----------------------------------------------------------------------
# chain fusion
# ----------------------------------------------------------------------
class TestChainFusion:
    def test_p5_merges_the_whole_chain(self):
        src = TABLE9["P5"].source(8)
        _, stats = run_measured(src, "serial", "auto")
        assert ("S1", "S2", "S3", "S4") in stats.fused_chains

    def test_copy_kernel_merges(self):
        _, stats = run_measured(TWO_NEST_COPY, "serial", "auto",
                                params={"N": 8}, coarsen=4)
        assert ("S", "T") in stats.fused_chains

    def test_listing1_does_not_merge(self):
        # S and R block different domains (N vs N/2) — chain refused.
        _, stats = run_measured(LISTING1, "serial", "auto",
                                params={"N": 12}, coarsen=8)
        assert stats.fused_chains == ()

    def test_chains_match_interpreter_on_all_backends(self):
        assert_chains_match_interpreter_on_all_backends()

    def test_fusion_legal_pair_on_copy(self):
        interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
        s, t = interp.scop.statements
        assert fusion_legal_pair(interp.scop, s, t)

    def test_event_collection_keeps_merging_and_maps_members(self):
        # Profiled runs merge too; stats.task_members maps each merged
        # executor id back to its unfused member tasks so traces can be
        # re-expanded (RuntimeTrace.expand_members).
        _, stats = run_measured(TWO_NEST_COPY, "serial", "auto",
                                params={"N": 8}, coarsen=4)
        interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
        info = detect_pipeline(interp.scop, coarsen=4)
        _, profiled = execute_measured(
            interp, info, backend="serial", collect_events=True
        )
        assert stats.fused_chains != ()
        assert profiled.fused_chains == stats.fused_chains
        members = profiled.task_members
        assert members
        covered = {tid for group in members for tid in group}
        n_unfused = sum(len(group) for group in members)
        assert covered == set(range(n_unfused))


# ----------------------------------------------------------------------
# spec grammar: round trip, determinism, pickling
# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    def _specs(self, source, params):
        interp = Interpreter.from_source(source, params)
        return [
            emit_closure_spec(interp.scop, s, interp.funcs)[0]
            for s in interp.scop.statements
        ], interp

    @pytest.mark.parametrize(
        "source,params",
        [
            pytest.param(LISTING1, {"N": 10}, id="listing1"),
            pytest.param(TABLE9["P5"].source(6), {}, id="p5"),
            pytest.param(TWO_NEST_COPY, {"N": 6}, id="copy"),
        ],
    )
    def test_spec_json_round_trip(self, source, params):
        stmts, _ = self._specs(source, params)
        for stmt_spec in stmts:
            spec = ClosureSpec((stmt_spec,))
            routed = ClosureSpec.from_dict(
                json.loads(json.dumps(spec.to_dict()))
            )
            assert routed == spec
            # spec -> closure -> spec is the identity
            assert build_closure(routed).spec == spec

    def test_loop_only_spec_round_trips_with_its_verdict(self):
        """A refused statement still has a spec — a coupled subscript's
        further terms included — and it travels with its verdict."""
        interp = Interpreter.from_source(
            "for(i=0; i<N; i++) for(j=0; j<N; j++)"
            " S: B[i+j][j] = f(A[i][j], B[i+j][j]);",
            {"N": 6},
        )
        spec = interp.fused_program.spec("S")
        assert not spec.slice_form
        routed = ClosureSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert routed == spec
        assert build_closure(routed).fn is None
        assert "__arr_B[i+j, j] = " in loop_source(routed)

    def test_closure_source_is_deterministic(self):
        stmts, _ = self._specs(LISTING1, {"N": 10})
        spec = ClosureSpec((stmts[0],))
        assert closure_source(spec) == closure_source(
            ClosureSpec.from_dict(spec.to_dict())
        )

    def test_loop_source_is_deterministic(self):
        stmts, _ = self._specs(LISTING1, {"N": 10})
        spec = ClosureSpec(tuple(stmts))
        routed = ClosureSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert loop_source(spec) == loop_source(routed)
        assert loop_source(spec) != closure_source(spec)

    def test_pickled_kernel_rebuilds_both_forms(self):
        """Only the spec travels: a fresh (spawned) process regenerates
        the same slice and loop sources and computes the same bytes."""
        import multiprocessing

        stmts, interp = self._specs(TWO_NEST_COPY, {"N": 6})
        kernel = build_closure(ClosureSpec(tuple(stmts)))
        kernel.loop_fn  # built here; must not be what crosses the wire
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            source, loops, arrays = pool.apply(
                _kernel_in_worker, (pickle.dumps(kernel),)
            )
        assert source == kernel.source
        assert loops == loop_source(kernel.spec)
        store = interp.new_store()
        kernel.fn(store, interp.funcs, (0, 0), (5, 5))
        assert arrays == {
            n: v.data.tobytes() for n, v in store.arrays.items()
        }

    def test_kernel_pickles_via_spec(self):
        stmts, interp = self._specs(TWO_NEST_COPY, {"N": 6})
        kernel = build_closure(ClosureSpec(tuple(stmts)))
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone.spec == kernel.spec
        a = interp.new_store()
        b = interp.new_store()
        iters = np.array([[i, j] for i in range(6) for j in range(6)],
                         dtype=np.int64)
        kernel(a, interp.funcs, iters)
        clone(b, interp.funcs, iters)
        assert a.equal(b)

    def test_fused_program_pickles(self):
        interp = Interpreter.from_source(LISTING1, {"N": 10})
        program = fuse_scop(interp.scop, interp.funcs)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.entries.keys() == program.entries.keys()
        assert clone.fallbacks() == program.fallbacks()
        assert clone.spec("S") == program.spec("S")


# ----------------------------------------------------------------------
# the legality gate's refusal codes
# ----------------------------------------------------------------------
class TestLegalityGate:
    REFUSALS = {
        "RPA064": (
            "for(i=0; i<N; i++)\n  for(j=0; j<N; j++)\n"
            "    S: A[i][j] = f(B[i][i]);"
        ),
        "RPA065": "for(i=0; i<N; i++)\n  S: s[0] += f(A[i]);",
        "RPA066": "for(i=1; i<N; i++)\n  S: A[i] = f(A[i-1]);",
    }

    @pytest.mark.parametrize("code", sorted(REFUSALS))
    def test_refusal_code(self, code):
        """A refusal denies the slice form only: the spec is there, and
        its kernel runs the loop form."""
        interp = Interpreter.from_source(self.REFUSALS[code], {"N": 8})
        spec, refusal = emit_closure_spec(
            interp.scop, interp.scop.statements[0], interp.funcs
        )
        assert isinstance(refusal, NotFusable)
        assert refusal.code == code
        kernel = interp.fused_program.get(spec.name)
        assert kernel.spec.statements == (spec,)
        assert kernel.fn is None and not kernel.spec.slice_form

    def test_reversed_write_has_a_slice_form(self):
        """A negative stride is no refusal: the slice form reverses a
        forward slice over the same cells, never a negative step."""
        interp = Interpreter.from_source(
            "for(i=0; i<N; i++)\n  S: T[N-1-i] = f(B[i]);", {"N": 8}
        )
        spec, refusal = emit_closure_spec(
            interp.scop, interp.scop.statements[0], interp.funcs
        )
        assert refusal is None
        kernel = interp.fused_program.get("S")
        assert kernel.spec.slice_form and kernel.spec.statements == (spec,)
        assert "__arr_T[-1*__hi[0]+7:-1*__lo[0]+8][::-1] = " in kernel.source

    def test_fuse_on_requires_full_coverage(self):
        with pytest.raises(Exception, match="RPA064"):
            Interpreter.from_source(
                self.REFUSALS["RPA064"], {"N": 8}, fuse="on"
            )

    def test_fuse_auto_degrades_gracefully(self):
        interp = Interpreter.from_source(
            self.REFUSALS["RPA066"], {"N": 8}, fuse="auto"
        )
        assert interp.fused_program.get("S").fn is None
        assert interp.fused_program.fallbacks()["S"]["code"] == "RPA066"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="fuse must be"):
            Interpreter.from_source(LISTING1, {"N": 8}, fuse="always")


# ----------------------------------------------------------------------
# negative strides: reversed views
# ----------------------------------------------------------------------
#: ``name: (source, {statement: refusal code})``: the consumer ``T`` of
#: each shape walks an array backwards.  Only a recurrence keeps the
#: loop form alone.
NEGATIVE_STRIDES = {
    "reversed": (
        "for(i=0; i<N; i++) S: B[i] = f(B[i]);\n"
        "for(i=0; i<N; i++) T: C[N-1-i] = g(B[i], C[N-1-i]);",
        {},
    ),
    "stride-2": (
        "for(i=0; i<N; i++) S: B[i] = f(B[i]);\n"
        "for(i=0; i<N; i++) T: C[2*N-2-2*i] = g(B[i], C[2*N-2-2*i]);",
        {},
    ),
    "reversed-row": (
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: B[N-1-i][j] = g(A[i][j], B[N-1-i][j]);",
        {},
    ),
    "reversed-sum": (HISTOGRAM, {}),
    "permuted": (
        "for(i=0; i<N; i++) for(j=0; j<N; j++) S: A[i][j] = f(A[i][j]);\n"
        "for(i=0; i<N; i++) for(j=0; j<N; j++)"
        " T: H[N-1-j][i] = g(A[i][j], H[N-1-j][i]);",
        {},
    ),
    "anti": (  # T reads the cell the next iteration writes
        "for(i=0; i<N; i++) S: B[i] = f(B[i]);\n"
        "for(i=0; i<N-1; i++) T: A[N-1-i] = g(A[N-2-i], B[i]);",
        {},
    ),
    "recurrence": (  # T reads, from N/2 on, the cells it wrote
        "for(i=0; i<N; i++) S: A[i] = f(A[i]);\n"
        "for(i=0; i<N; i++) T: A[N-1-i] = A[i];",
        {"T": "RPA066"},
    ),
}


class TestNegativeStride:
    """Every negative-stride shape, in both kernel forms, at one-point
    and three-point blocks, on every backend, against the oracle."""

    @pytest.mark.parametrize("shape", sorted(NEGATIVE_STRIDES))
    def test_gate_verdict(self, shape):
        source, refused = NEGATIVE_STRIDES[shape]
        interp = Interpreter.from_source(source, {"N": 8})
        fallbacks = interp.fused_program.fallbacks()
        assert {s: f["code"] for s, f in fallbacks.items()} == refused
        for s in interp.scop.statements:
            kernel = interp.fused_program.get(s.name)
            assert (kernel.fn is None) == (s.name in refused)

    @pytest.mark.parametrize("coarsen", [1, 3])
    @pytest.mark.parametrize("shape", sorted(NEGATIVE_STRIDES))
    def test_all_configs(self, shape, coarsen, kernel_form):
        source, _ = NEGATIVE_STRIDES[shape]
        assert_all_configs_match_sequential(source, {"N": 8}, coarsen)

    @pytest.mark.parametrize("verdict", ["none", "all"])
    @pytest.mark.parametrize("shape", sorted(NEGATIVE_STRIDES))
    def test_under_forced_verdicts(self, monkeypatch, shape, verdict):
        """Exact and whole-stream claims run reversed views over their
        rows' union rectangles on threads and processes, in both fuse
        modes."""
        pin_verdict(monkeypatch, verdict)
        source, _ = NEGATIVE_STRIDES[shape]
        oracle = Interpreter.from_source(source, {"N": 8}).oracle()
        for fuse in ("auto", "off"):
            interp, info = compile_for_exec(source, fuse, {"N": 8}, 3)
            for backend in ("threads", "processes"):
                for _ in range(2):  # the second replay takes the verdict
                    out, stats = execute_measured(
                        interp, info, backend=backend, workers=2
                    )
                    assert oracle.equal(out), (fuse, backend)
            plan = interp.exec_plan(info)
            forced = candidate_streams(plan) if verdict == "all" else set()
            assert plan.claims[2].whole == forced
            assert stats.scheduler["whole"] == len(forced)

    @pytest.mark.parametrize("shape", ["reversed", "stride-2"])
    def test_every_rectangle_in_both_forms(self, shape):
        """Each rectangle of ``T``'s domain, those ending at cell 0
        (``hi = N-1``) included, writes the same bytes in both forms."""
        interp = Interpreter.from_source(NEGATIVE_STRIDES[shape][0], {"N": 8})
        kernel = interp.fused_program.get("T")
        for lo in range(8):
            for hi in range(lo, 8):
                stores = []
                for form in (kernel.fn, kernel.loop_fn):
                    store = interp.new_store()
                    form(store, interp.funcs, (lo,), (hi,))
                    stores.append(store)
                assert stores[0].equal(stores[1]), (lo, hi)

    @pytest.mark.parametrize("name", ["histogram", "sumstencil"])
    def test_privatized_reductions_run_fully_fused(self, name, kernel_form):
        """Count: the reversed second pass of both shipped reductions
        has a slice form, so every statement instance runs fused — and
        the privatized replay is exact in either form."""
        source = (EXAMPLES_DIR / f"{name}.c").read_text()
        interp, plan, pinfo = privatized_setup(source, 12, parts=3)
        seq = interp.run_sequential(interp.new_store())
        for backend in ("serial", "threads", "processes"):
            out, stats = execute_privatized(
                interp, pinfo, plan, backend=backend, workers=2
            )
            assert privatized_matches(plan, seq, out)[0], backend
            assert stats.fused_iteration_coverage == 1.0
            assert stats.fused_fallback == {}


# ----------------------------------------------------------------------
# golden specs (satellite: pinned ClosureSpec JSON)
# ----------------------------------------------------------------------
GOLDEN_CASES = {
    "p1_n6": lambda: (TABLE9["P1"].source(6), {}),
    "p5_n6": lambda: (TABLE9["P5"].source(6), {}),
    "histogram_n6": lambda: (HISTOGRAM, {"N": 6}),
}


def _spec_corpus(case: str) -> str:
    source, params = GOLDEN_CASES[case]()
    interp = Interpreter.from_source(source, params)
    program = fuse_scop(interp.scop, interp.funcs)
    doc = {
        "specs": {
            name: program.spec(name).to_dict()
            for name in sorted(program.entries)
        },
        "fallbacks": program.fallbacks(),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_closure_spec_matches_golden(case, pytestconfig):
    corpus = _spec_corpus(case)
    golden_path = GOLDEN_DIR / f"{case}.json"
    if pytestconfig.getoption("--update-goldens"):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(corpus, encoding="utf-8")
        pytest.skip(f"updated {golden_path.name}")
    assert golden_path.exists(), (
        f"missing golden file {golden_path}; run with --update-goldens"
    )
    assert corpus == golden_path.read_text(encoding="utf-8"), (
        f"ClosureSpec corpus for {case} differs from {golden_path.name}; "
        "if the change is intended, rerun with --update-goldens"
    )


def _source_corpus(case: str, generate) -> str:
    """Generated source of every statement of ``case`` with a slice form
    and — when several have one — of their chain, in one text."""
    source, params = GOLDEN_CASES[case]()
    interp = Interpreter.from_source(source, params)
    program = fuse_scop(interp.scop, interp.funcs)
    specs = [
        program.spec(s.name) for s in interp.scop.statements
        if program.spec(s.name).slice_form
    ]
    if len(specs) > 1:
        specs.append(
            ClosureSpec(tuple(s.statements[0] for s in specs))
        )
    return "\n\n".join(generate(spec) for spec in specs) + "\n"


@pytest.mark.parametrize(
    "form,generate",
    [("slice", closure_source), ("loop", loop_source)],
    ids=["slice", "loop"],
)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_kernel_source_matches_golden(case, form, generate, pytestconfig):
    """Both generated forms are pinned: the slice goldens were written by
    the commit before the loop form existed (``closure_source`` did not
    move), the loop goldens by the one that added it."""
    corpus = _source_corpus(case, generate)
    golden_path = GOLDEN_DIR / f"{case}.{form}.txt"
    if pytestconfig.getoption("--update-goldens"):
        golden_path.write_text(corpus, encoding="utf-8")
        pytest.skip(f"updated {golden_path.name}")
    assert corpus == golden_path.read_text(encoding="utf-8"), (
        f"{form}-form source for {case} differs from {golden_path.name}; "
        "if the change is intended, rerun with --update-goldens"
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_specs_rebuild_identical_closures(case, pytestconfig):
    golden_path = GOLDEN_DIR / f"{case}.json"
    if not golden_path.exists():
        pytest.skip("no golden yet; run with --update-goldens")
    doc = json.loads(golden_path.read_text(encoding="utf-8"))
    for name, d in doc["specs"].items():
        spec = ClosureSpec.from_dict(d)
        assert spec.to_dict() == d
        assert build_closure(spec).spec == spec


# ----------------------------------------------------------------------
# privatized member blocks through fused closures
# ----------------------------------------------------------------------
class TestFusedPrivatized:
    def test_privatized_members_run_fused(self):
        from repro.interp import execute_privatized, privatized_matches
        from repro.schedule import plan_privatization, privatize_info
        from repro.scop import DepKind

        interp = Interpreter.from_source(HISTOGRAM, {"N": 8})
        plan = plan_privatization(interp.scop)
        assert plan.groups, "histogram must yield a privatization proof"
        info = detect_pipeline(
            interp.scop, kinds=tuple(DepKind), validate=False
        )
        pinfo = privatize_info(info, plan, parts=2)
        seq = interp.run_sequential(interp.new_store())
        store, stats = execute_privatized(interp, pinfo, plan,
                                          backend="serial")
        ok, _ = privatized_matches(plan, seq, store)
        assert ok
        # the remap-proxy member blocks dispatched through the closure
        assert stats.fuse == "auto"
        assert stats.blocks_fused > 0
        assert stats.dispatch_modes["S"] == "fused"
