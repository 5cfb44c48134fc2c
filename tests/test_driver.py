"""Tests for the high-level transform driver."""

import itertools
import threading

import numpy as np
import pytest

from repro import (
    TransformOptions,
    TransformResult,
    VerificationFailedError,
    transform,
)
from repro.interp.executor import MAX_WORKERS
from repro.scop import DepKind
from repro.workloads import CostModel, MatmulKernel
from tests.conftest import LISTING1, LISTING3


class TestDefaults:
    def test_full_run(self):
        result = transform(LISTING1, {"N": 12})
        assert isinstance(result, TransformResult)
        assert result.verified is True
        assert result.legality is not None and result.legality.ok
        assert result.speedup > 1.0
        assert result.num_tasks == result.info.num_tasks()

    def test_empty_kernel_has_unit_speedup(self):
        result = transform(LISTING1, {"N": 0})
        assert result.num_tasks == len(result.graph) == 0
        assert result.simulation.makespan == 0
        assert result.speedup == 1.0
        assert "speed-up on 4 workers: 1.00x (0 tasks)" in result.report()

    def test_report_contents(self):
        result = transform(LISTING1, {"N": 10})
        text = result.report()
        assert "PipelineInfo" in text
        assert "legal" in text
        assert "matches sequential: True" in text
        assert "speed-up" in text

    def test_artifacts_consistent(self):
        result = transform(LISTING3, {"N": 10})
        assert len(result.task_ast.all_blocks()) == result.num_tasks
        assert len(list(result.schedule.walk())) > 5


class TestOptions:
    def test_skip_checks(self):
        result = transform(
            LISTING1, {"N": 10}, TransformOptions(check=False, verify=False)
        )
        assert result.legality is None
        assert result.verified is None

    def test_coarsen_reduces_tasks(self):
        fine = transform(LISTING1, {"N": 12}, TransformOptions(verify=False))
        coarse = transform(
            LISTING1, {"N": 12}, TransformOptions(coarsen=4, verify=False)
        )
        assert coarse.num_tasks < fine.num_tasks

    def test_hybrid(self):
        kern = MatmulKernel(2, "mm")
        plain = transform(kern.source(8), options=TransformOptions())
        hybrid = transform(
            kern.source(8), options=TransformOptions(hybrid=True, workers=8)
        )
        assert hybrid.speedup > plain.speedup

    def test_extra_kinds(self):
        src = (
            "for(i=0; i<6; i++) S: B[i][0] = f(A[i][0], B[i][0]);\n"
            "for(i=0; i<6; i++) T: A[i][0] = g(C[i][0], A[i][0]);"
        )
        result = transform(
            src, options=TransformOptions(kinds=(DepKind.FLOW, DepKind.ANTI))
        )
        assert result.verified

    def test_verification_failure_detected(self):
        """Nondeterministic statement functions legitimately break the
        sequential-vs-pipelined comparison; the driver must say so."""
        import itertools

        counter = itertools.count()

        with pytest.raises(VerificationFailedError):
            transform(
                "for(i=0; i<4; i++) S: A[i][0] = wobble(A[i][0]);\n"
                "for(i=0; i<4; i++) T: B[i][0] = wobble(A[i][0]);",
                funcs={"wobble": lambda x: float(next(counter))},
            )

    def test_measured_execution_attached(self):
        result = transform(
            LISTING1,
            {"N": 10},
            TransformOptions(exec_backend="serial", coarsen=4),
        )
        assert result.execution is not None
        assert result.execution.backend == "serial"
        assert result.execution.wall_time > 0.0
        assert "measured execution:" in result.report()

    def test_no_measured_execution_by_default(self):
        result = transform(LISTING1, {"N": 10})
        assert result.execution is None
        assert "measured execution:" not in result.report()

    def test_measured_execution_verified_against_sequential(self):
        result = transform(
            LISTING1,
            {"N": 10},
            TransformOptions(exec_backend="threads", fuse="on"),
        )
        assert result.verified is True
        assert result.execution.fused_iteration_coverage == 1.0

    def test_vectorize_is_a_read_only_alias_of_fuse(self):
        import dataclasses

        assert TransformOptions(fuse="off").vectorize == "off"
        assert "vectorize" not in {
            f.name for f in dataclasses.fields(TransformOptions)
        }

    def test_fields_are_what_a_product_caller_sets(self):
        """Eleven fields; ``overhead`` and ``cost_model`` are read-only
        properties pinned to what ``transform`` simulates with."""
        import dataclasses

        assert [f.name for f in dataclasses.fields(TransformOptions)] == [
            "kinds", "coarsen", "hybrid", "check", "verify", "workers",
            "fuse", "exec_backend", "collect_events", "privatize",
            "privatize_parts",
        ]
        options = TransformOptions()
        assert options.overhead == 0.0
        assert options.cost_model == CostModel.uniform()
        for removed in ("static_checks", "portfolio", "overhead",
                        "cost_model", "reduce_deps"):
            with pytest.raises(TypeError):
                TransformOptions(**{removed: True})

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_nan_results_verify(self, backend):
        """Bit identity, not ``==``: a kernel whose values are NaN is
        equal to its own sequential execution."""
        import numpy as np

        from repro.interp import elementwise

        @elementwise
        def zero_over_zero(x):
            with np.errstate(invalid="ignore"):
                return (x - x) / (x - x)

        result = transform(
            "for(i=0; i<6; i++) for(j=0; j<6; j++)"
            " S: A[i][j] = f(A[i][j]);\n"
            "for(i=0; i<6; i++) for(j=0; j<6; j++)"
            " T: B[i][j] = g(A[i][j], B[i][j]);",
            funcs={"f": zero_over_zero},
            options=TransformOptions(exec_backend=backend),
        )
        assert result.verified is True

    def test_custom_funcs(self):
        result = transform(
            "for(i=0; i<4; i++) S: A[i][0] = myfn(A[i][0]);\n"
            "for(i=0; i<4; i++) T: B[i][0] = myfn(A[i][0]);",
            funcs={"myfn": lambda x: x + 1.0},
        )
        assert result.verified


HISTOGRAM = """
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    S: H[i][j] += A[i][j];
for(i=0; i<N; i++)
  for(j=0; j<N; j++)
    R: H[N-1-i][N-1-j] += B[i][j];
"""


TWO_MM = MatmulKernel(2, "mm").source(6)


class TestOneVerificationReplay:
    """``verify`` = one oracle run + one replay of the plan that is
    returned, whatever the options."""

    @pytest.mark.parametrize(
        "source,options,replayed",
        [
            pytest.param(LISTING1, {}, "threads", id="default"),
            pytest.param(
                LISTING1, {"exec_backend": "serial"}, "serial", id="serial"
            ),
            pytest.param(
                LISTING1,
                {"exec_backend": "threads", "coarsen": 2},
                "threads",
                id="threads-reduced",
            ),
            pytest.param(LISTING3, {"fuse": "off"}, "threads", id="loops"),
            pytest.param(
                HISTOGRAM, {"privatize": True}, "threads", id="privatized"
            ),
            pytest.param(
                HISTOGRAM,
                {"privatize": True, "exec_backend": "serial"},
                "serial",
                id="privatized-serial",
            ),
            pytest.param(TWO_MM, {"hybrid": True}, "threads", id="hybrid"),
        ],
    )
    def test_two_executions_per_verified_transform(
        self, executions, source, options, replayed
    ):
        result = transform(source, {"N": 8}, TransformOptions(**options))
        assert result.verified is True
        assert executions == {"oracle": 1, "graph": 0, "replay": [replayed]}
        # statistics are surfaced only for a backend that was asked for
        assert (result.execution is not None) == ("exec_backend" in options)
        assert f"{replayed} replay matches sequential: True" in result.report()

    def test_unverified_measured_run_executes_once(self, executions):
        result = transform(
            LISTING1, {"N": 8},
            TransformOptions(verify=False, exec_backend="serial"),
        )
        assert result.verified is None and result.execution is not None
        assert executions == {"oracle": 0, "graph": 0, "replay": ["serial"]}

    def test_verify_span_names_the_backend(self):
        """``driver.verify`` holds the replay and says how long the
        compare waited for the oracle; the oracle runs on its helper
        thread under the span current when ``transform`` started."""
        from repro.obs import spans as obs_spans

        for source, options in (
            (LISTING1, TransformOptions()),
            (TWO_MM, TransformOptions(hybrid=True)),
        ):
            with obs_spans.recording() as rec:
                with obs_spans.span("caller") as caller:
                    transform(source, {"N": 8}, options)
            verify = [s for s in rec.spans if s.name == "driver.verify"]
            measured = [s for s in rec.spans if s.name == "exec.measured"]
            oracle = [s for s in rec.spans if s.name == "driver.oracle"]
            assert len(verify) == len(measured) == len(oracle) == 1
            assert verify[0].attrs["backend"] == "threads"
            assert verify[0].attrs["oracle_wait_ms"] >= 0.0
            assert measured[0].parent_id == verify[0].span_id
            assert oracle[0].parent_id == caller.span_id
            assert oracle[0].thread != verify[0].thread


OPAQUE = (
    "for(i=0; i<N; i++) S: A[i] = compute(A[i], B[i]);\n"
    "for(i=0; i<N; i++) T: C[i] = compute(A[i], C[i]);"
)
#: a cross-nest anti dependence: flow-only detection refuses the kernel
ANTI = (
    "for(i=0; i<8; i++) S: B[i] = compute(A[i], B[i]);\n"
    "for(i=0; i<8; i++) T: A[i] = compute(C[i], A[i]);"
)


def _staged(on_caller=None, on_oracle=None):
    """The default ``compute`` behind hooks: ``on_caller()`` runs on its
    first call from the thread that built it, ``on_oracle()`` on its
    first call from any other (on ``serial``, the oracle's helper).
    ``compute.threads`` is the set of threads that called it."""
    from repro.interp import DEFAULT_FUNCS

    mix = DEFAULT_FUNCS["compute"]
    caller = threading.get_ident()
    seen = set()

    def compute(*args):
        me = threading.get_ident()
        if me not in seen:
            seen.add(me)
            hook = on_caller if me == caller else on_oracle
            if hook is not None:
                hook()
        return mix(*args)

    compute.threads = seen
    return compute


def _thread_starts(monkeypatch):
    """The names of the threads started from now on in this test."""
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _bounded(fn, timeout=30.0):
    """``fn()`` on a daemon thread, joined with a timeout: a hang fails
    the test instead of stalling the suite.  Returns ``{"value"}`` or
    ``{"error"}``."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed back to the test
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout)
    assert not worker.is_alive(), f"no result within {timeout:g} s"
    return box


class TestOracleBesideTheReplay:
    """A verified ``transform`` starts the oracle on a helper thread as
    soon as the interpreter exists; the compile and the replay run on
    the calling thread beside it, every check kept."""

    SERIAL = TransformOptions(exec_backend="serial")

    def test_oracle_and_replay_are_in_flight_together(
        self, executions, monkeypatch
    ):
        """Each execution's first ``compute`` meets the other's at a
        barrier: it completes only when both are in flight at once.
        Without ``verify`` nothing starts or runs off the caller."""
        barrier = threading.Barrier(2, timeout=10)
        compute = _staged(barrier.wait, barrier.wait)
        result = transform(
            OPAQUE, {"N": 4}, self.SERIAL, funcs={"compute": compute}
        )
        assert result.verified is True
        assert executions == {"oracle": 1, "graph": 0, "replay": ["serial"]}
        assert len(compute.threads) == 2

        started = _thread_starts(monkeypatch)
        compute = _staged()
        result = transform(
            OPAQUE, {"N": 4},
            TransformOptions(verify=False, exec_backend="serial"),
            funcs={"compute": compute},
        )
        assert result.verified is None
        assert started == [] and compute.threads == {threading.get_ident()}

    def test_helpers_are_reused_not_started_per_call(self, monkeypatch):
        transform(OPAQUE, {"N": 4}, self.SERIAL)  # at least one helper
        started = _thread_starts(monkeypatch)
        for _ in range(3):
            assert transform(OPAQUE, {"N": 4}, self.SERIAL).verified
        assert started == []

    @pytest.mark.parametrize("case", ["refusal", "interrupt", "deadline"])
    def test_a_calling_thread_error_does_not_wait_for_the_oracle(
        self, case
    ):
        """An analysis refusal, an interrupt in the replay and a signal
        deadline while the compare waits all raise while the oracle is
        still held on its helper thread."""
        import signal

        from repro.pipeline.detect import UncoveredDependenceError

        class Deadline(Exception):
            pass

        def interrupt():
            raise KeyboardInterrupt

        def on_alarm(signum, frame):
            raise Deadline

        release, finished = threading.Event(), threading.Event()

        def held():
            release.wait(timeout=10)
            finished.set()

        source, on_caller, error = {
            "refusal": (ANTI, None, UncoveredDependenceError),
            "interrupt": (OPAQUE, interrupt, KeyboardInterrupt),
            "deadline": (OPAQUE, None, Deadline),
        }[case]
        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            if case == "deadline":
                signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(error):
                transform(
                    source, {"N": 4}, self.SERIAL,
                    funcs={"compute": _staged(on_caller, held)},
                )
            assert not finished.is_set()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            release.set()
            finished.wait(timeout=10)

    def test_an_oracle_error_keeps_its_type(self):
        class StageFailed(Exception):
            pass

        def broken():
            raise StageFailed("oracle")

        box = _bounded(
            lambda: transform(
                OPAQUE, {"N": 4}, self.SERIAL,
                funcs={"compute": _staged(on_oracle=broken)},
            )
        )
        assert isinstance(box.get("error"), StageFailed)

    def test_lowering_does_not_wait_for_an_in_flight_oracle(self):
        from repro.driver import analyze
        from repro.interp import Interpreter

        entered, release = threading.Event(), threading.Event()

        def held():
            entered.set()
            release.wait(timeout=10)

        interp = Interpreter.from_source(
            OPAQUE, {"N": 4}, {"compute": _staged(on_oracle=held)}
        )
        a = analyze(interp, TransformOptions())
        oracle = threading.Thread(target=interp.oracle, daemon=True)
        oracle.start()
        try:
            assert entered.wait(timeout=10)
            box = _bounded(
                lambda: interp.exec_plan(a.info, a.task_ast), timeout=5
            )
            assert "value" in box and not release.is_set()
        finally:
            release.set()
            oracle.join(timeout=10)
        assert not oracle.is_alive()
        assert interp.oracle().equal(interp.run_sequential(interp.new_store()))

    def test_processes_replay_under_an_in_flight_oracle(self):
        """The pool forks, with spans recording: a forked worker takes
        the locks a running oracle's spans take, so the replay waits
        for the oracle first on this backend."""
        from tests.conftest import blocking_compute
        from repro.obs import spans as obs_spans
        from repro.workloads import TABLE9

        def run():
            with obs_spans.recording():
                return transform(
                    TABLE9["P5"].source(4), {},
                    TransformOptions(exec_backend="processes", workers=2),
                    funcs={"compute": blocking_compute},
                )

        box = _bounded(run, timeout=120)
        assert "error" not in box, box.get("error")
        result = box["value"]
        assert result.verified is True
        assert result.execution.backend == "processes"

    @pytest.mark.parametrize("backend,first", [
        ("processes", "wait"), ("process", "wait"), ("threads", "run"),
    ])
    def test_the_oracle_resolves_before_a_forking_replay(
        self, monkeypatch, backend, first
    ):
        """Every spelling of ``processes`` waits for the oracle before
        the pool forks; other backends compare after their run."""
        from repro import driver
        from repro.interp import Interpreter

        interp = Interpreter.from_source(LISTING1, {"N": 6})
        a = driver.analyze(interp, TransformOptions())
        order = []
        wait, measured = driver.PendingOracle.wait, driver.execute_measured

        def spied_wait(pending):
            order.append("wait")
            return wait(pending)

        def spied_run(*args, **kwargs):
            order.append("run")
            return measured(*args, **kwargs)

        monkeypatch.setattr(driver.PendingOracle, "wait", spied_wait)
        monkeypatch.setattr(driver, "execute_measured", spied_run)
        pending = driver.PendingOracle()
        pending.set_running_or_notify_cancel()
        pending.set_result(interp.oracle())
        _, stats, verdict = driver.replay(
            interp, a, backend, workers=2, oracle=pending
        )
        assert order[0] == first and sorted(order) == ["run", "wait"]
        assert verdict == (True, "")
        assert stats.backend == driver.BACKEND_ALIASES[backend]


#: a non-default value per option whose pairs compose
PAIRABLE = {
    "privatize": True,
    "hybrid": True,
    "coarsen": 2,
}
#: the TransformResult field an option promises to fill
PROMISES = {
    "privatize": "privatization",
}


def _option_pairs():
    """All 3 pairs on Listing 1; the 2 with ``privatize`` again on the
    histogram, where the plan has groups (without ``privatize`` that
    kernel is an UncoveredDependenceError under flow-only ``kinds``)."""
    for first, second in itertools.combinations(PAIRABLE, 2):
        yield pytest.param(LISTING1, first, second, id=f"{first}-{second}")
        if "privatize" in (first, second):
            yield pytest.param(
                HISTOGRAM, first, second, id=f"{first}-{second}-histogram"
            )


#: one value per option that no option takes; a bool field takes only a
#: bool (a served client's "false" is truthy), an int field no bool (a
#: served "coarsen": true is no coarsening factor)
BAD_VALUES = [
    ("fuse", "fast"),
    ("exec_backend", "bogus"),
    ("hybrid", "false"),
    ("verify", "no"),
    ("privatize", 1),
    ("coarsen", 0),
    ("workers", 0),
    ("workers", MAX_WORKERS + 1),
    ("privatize_parts", 0),
    ("coarsen", True),
    ("workers", True),
    ("privatize_parts", True),
]


@pytest.mark.parametrize(
    "name,value", BAD_VALUES, ids=[f"{n}={v}" for n, v in BAD_VALUES]
)
def test_bad_value_is_refused_before_any_work(name, value, tmp_path):
    """``transform`` raises before a span or a store file exists, and
    ``repro serve`` answers a compile of it as a bad request."""
    import asyncio

    from repro.obs.spans import recording
    from repro.workloads import TABLE9
    from tests.service.test_serve import _compile_req, _request, _with_server

    options = TransformOptions(**{name: value})
    with recording() as rec, pytest.raises(ValueError, match=f"^{name}="):
        transform(
            TABLE9["P5"].source(8), {}, options, cache_dir=str(tmp_path)
        )
    assert len(rec.spans) == 0
    assert sum(p.is_file() for p in tmp_path.rglob("*")) == 0

    async def compile_it(host, port, server):
        req = _compile_req(TABLE9["P5"].source(8))
        req["options"][name] = value
        return await _request(host, port, req)

    reply = asyncio.run(_with_server(str(tmp_path), compile_it))
    assert reply["error"].startswith(f"bad request: 'options': {name}=")


class TestOptionPairs:
    """Every option pair runs on the one spine with nothing it promised
    dropped: no pair is refused."""

    @pytest.mark.parametrize("source,first,second", _option_pairs())
    def test_pair_is_refused_or_keeps_every_promise(
        self, source, first, second
    ):
        options = TransformOptions(
            **{first: PAIRABLE[first], second: PAIRABLE[second]}
        )
        result = transform(source, {"N": 8}, options)
        assert result.verified is True
        for option in {first, second} & set(PROMISES):
            assert getattr(result, PROMISES[option]) is not None, option
        if source is HISTOGRAM:
            assert result.joins == ("H",)  # the proofs really executed

    def test_privatized_step_widens_kinds_to_every_class(self):
        """``kinds`` is not dropped on the privatized step: it is
        subsumed — every class is pipelined there, whatever was asked."""
        asked = transform(
            HISTOGRAM, {"N": 8},
            TransformOptions(
                privatize=True, kinds=(DepKind.FLOW, DepKind.ANTI)
            ),
        )
        default = transform(
            HISTOGRAM, {"N": 8}, TransformOptions(privatize=True)
        )
        assert asked.verified is True and asked.legality.ok
        # relation pairs are arrays: compare element-wise
        np.testing.assert_equal(asked.info.to_dict(), default.info.to_dict())
        assert asked.info.blockings == default.info.blockings

    # -- the pair that was refused while the reduction ran before ------
    # -- scheduling ------------------------------------------------------
    def test_hybrid_keeps_the_token_a_self_chain_implied(self):
        """T's block ``(i, 1)`` reads ``B[i]`` like ``(i, 0)``, but its
        token on R is implied only by T's self chain, which the hybrid
        relaxation removes.  The one reduction runs on the schedule the
        relaxation built, so every T row still waits on an R row: the
        order of the unreduced quotient, and the oracle's arrays on every
        backend."""
        from repro.driver import analyze, replay
        from repro.interp import Interpreter
        from tests.interp.test_plan import (
            assert_reduced_with_the_same_order,
            graph_quotient,
        )

        interp = Interpreter.from_source(
            "for(i=0; i<8; i++) S: A[i] = f(A[i]);\n"
            "for(i=0; i<4; i++) R: B[i] = g(B[i]);\n"
            "for(i=0; i<4; i++) for(j=0; j<2; j++)"
            " T: C[i][j] = h(A[2*i+j], B[i], C[i][j]);",
            {},
        )
        a = analyze(interp, TransformOptions(hybrid=True))
        assert not a.task_ast.nest("T").chained
        plan = interp.exec_plan(a.info, a.task_ast)
        preds = plan.schedule.preds()
        assert_reduced_with_the_same_order(preds, graph_quotient(plan))
        streams = [row.stream for row in plan.rows]
        t_rows = [t for t, stream in enumerate(streams) if stream == "T"]
        assert len(t_rows) == 8
        for t in t_rows:
            assert any(streams[p] == "R" for p in preds[t]), t
        oracle = interp.oracle()
        for backend in ("serial", "threads", "processes"):
            _, _, verdict = replay(
                interp, a, backend, workers=2, oracle=oracle
            )
            assert verdict == (True, ""), backend

    # -- pairs that compose on one spine --------------------------------
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize(
        "kernel", ["histogram", "sumstencil", "histogram+doall"]
    )
    def test_privatize_composes_with_hybrid(self, kernel, backend):
        """The relaxation skips privatized members (the proof already
        relaxed them) and relaxes the nests beside them."""
        from repro.analysis.taskcheck import check_task_graph
        from repro.driver import Analysis, analyze, replay
        from repro.interp import Interpreter
        from repro.schedule import check_legality, verify_privatized_graph
        from tests.interp.test_privatized_exec import KERNELS

        doall = (
            "for(i=0; i<N; i++) for(j=0; j<N; j++)"
            " P: C[i][j] = f(D[i][j]);\n"
            "for(i=0; i<N; i++) for(j=0; j<N; j++)"
            " Q: E[i][j] = g(C[i][j], E[i][j]);"
        )
        source = {**KERNELS, "histogram+doall": HISTOGRAM + doall}[kernel]
        interp = Interpreter.from_source(source, {"N": 8})
        a: Analysis = analyze(
            interp, TransformOptions(privatize=True, hybrid=True)
        )
        assert a.privatized
        assert check_task_graph(
            interp.scop, a.info, ast=a.task_ast, graph=a.graph,
            relaxed=a.plan.relaxed(),
        ).ok
        assert not any(n.chained for n in a.task_ast.nests)
        for member in a.plan.statements:  # untouched by the relaxation
            assert not any(
                b.in_tokens for b in a.task_ast.nest(member).blocks
            )
        assert check_legality(
            interp.scop, a.info, a.graph, relaxed=a.plan.relaxed()
        ).ok
        assert verify_privatized_graph(interp.scop, a.plan, a.graph).ok
        seq = interp.run_sequential(interp.new_store())
        _, _, verdict = replay(interp, a, backend, 3, oracle=seq)
        assert verdict == (True, "bit-exact")

    @pytest.mark.parametrize(
        "partner",
        [
            pytest.param({"exec_backend": "serial"}, id="serial"),
            pytest.param({"exec_backend": "threads"}, id="threads"),
            pytest.param({"exec_backend": "processes"}, id="processes"),
            pytest.param({"coarsen": 2}, id="coarsen"),
            pytest.param(
                {"exec_backend": "threads", "collect_events": True},
                id="collect_events",
            ),
        ],
    )
    def test_hybrid_pair_is_bit_identical_cold_warm_and_served(
        self, partner, tmp_path
    ):
        """The relaxed plan is the plan: one replay of it verifies on
        the partner's backend from a fresh compile, from the store and
        behind ``repro serve``."""
        import asyncio

        from repro.interp import Interpreter
        from repro.service import options_to_dict
        from repro.service.server import _checksums
        from tests.service.test_serve import _request, _with_server

        options = TransformOptions(hybrid=True, workers=2, **partner)
        for status in ("cold", "warm"):
            result = transform(TWO_MM, {}, options, cache_dir=str(tmp_path))
            assert result.cache_status == status
            assert result.verified is True
            assert not any(n.chained for n in result.task_ast.nests)
            if "exec_backend" in partner:
                assert result.execution.backend == partner["exec_backend"]

        request = {
            "op": "run",
            "source": TWO_MM,
            "params": {},
            "options": options_to_dict(options),
            "backend": partner.get("exec_backend", "threads"),
            "workers": 2,
        }

        async def served(host, port, server):
            return await _request(host, port, request)

        reply = asyncio.run(_with_server(str(tmp_path), served))
        assert reply["ok"] and reply["match"] is True, reply
        interp = Interpreter.from_source(TWO_MM, {})
        assert reply["checksums"] == _checksums(
            interp.run_sequential(interp.new_store())
        )


def test_a_transform_leaves_no_cyclic_garbage(tmp_path):
    """A cold and a warm verified one-shot free what they built on
    return, not through the cycle collector: the closures that name
    themselves (chain grouping, the oracle's emitter, the spec builder,
    the section encoder) and the compiled functions are not left in a
    reference cycle."""
    import gc

    from repro.presburger import cache as presburger_cache
    from repro.workloads import TABLE9

    source, opts = TABLE9["P5"].source(14), TransformOptions(workers=2)
    transform(source, {}, opts)  # first imports and lazy set-up
    presburger_cache.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for status in ("cold", "warm"):
            result = transform(source, {}, opts, cache_dir=str(tmp_path))
            assert (result.cache_status, result.verified) == (status, True)
            del result
            assert gc.collect() == 0, status
    finally:
        gc.enable()
