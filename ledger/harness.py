"""One workload, end to end, in one fresh process.

Every layer is driven from outside through its public functions; the
harness never enables the program's own spans (``repro.obs.spans`` stays
off here).

**What a time means here.**  The sandbox this runs in changes speed by
the second: a fixed spin loop reads 5.2, 5.7 or 8.5 ms per 100k
iterations depending on the minute, in plateaus of a few seconds,
independently per core, with ~1 % steal.  Plain medians of wall times
moved 15-30 % between identical runs.  Three things bring that to 2-10 %:

* the pass pins itself (and so the server child) to one CPU, so a probe
  reads the core the work runs on (:func:`pin_to_one_cpu`);
* every sample sits between readings of a fixed spin (:func:`probe`,
  :class:`Gauge`), and the CPU-busy share of its wall is divided by its
  slice's median reading over the nominal one (:func:`nominal`) --
  reported times are "at nominal host speed", raw ones are kept beside;
* the run is cut into slices that each do a share of every phase (one
  cold and one warm one-shot per kernel, a few runs per kernel and
  backend, a burst of served requests), and the in-process metrics are
  medians over the *quiet half* of the slices: a slice's score is the
  median of sample / run-wide median of the sample's kernel, and the
  lower-scoring half is kept (:meth:`Series.quiet`).  A regression slows
  every slice and moves the metric; a slow plateau drops out.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

import host
import reference
import served
import stats
from workloads import STAGE_SECONDS, WORKERS, Case, Workload

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: scratch root inside the checkout (listed in .gitignore)
WORK_ROOT = os.path.join(CHECKOUT, ".ledger_tmp")

#: an in-process operation that takes longer than this failed
OP_DEADLINE_S = 60.0

#: floors: slices per run; per slice one cold and one warm one-shot per
#: kernel; served requests and run samples are totals spread over slices
FLOORS = {"slices": 8, "served": 160, "setup": 3, "warmups": 2}
TINY_FLOORS = {"slices": 2, "served": 12, "setup": 1, "warmups": 1}

UNITS = {
    "setup_s": "s",
    "oneshot_cold_ms": "ms",
    "oneshot_warm_ms": "ms",
    "run_serial_ms": "ms",
    "run_threads_ms": "ms",
    "served_compile_p50_ms": "ms",
    "served_run_p50_ms": "ms",
    "served_p90_ms": "ms",
    "served_rps": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}


def import_layers() -> tuple[float, "Gauge"]:
    """Import every layer the ledger drives and push one tiny kernel
    through ``transform`` so lazy imports are settled; returns the
    seconds it took and the probes around it."""
    with Gauge() as gauge:
        t0 = time.perf_counter()
        src = os.path.join(CHECKOUT, "src")
        if not os.path.isdir(os.path.join(src, "repro")):
            raise SystemExit(
                f"ledger: no program to measure: {src}/repro is missing"
            )
        sys.path.insert(0, src)
        import repro.analysis.portfolio  # noqa: F401
        import repro.driver  # noqa: F401
        import repro.interp  # noqa: F401
        import repro.obs.spans as spans
        import repro.schedule.serialize  # noqa: F401
        import repro.service  # noqa: F401
        import repro.store  # noqa: F401
        import repro.tasking  # noqa: F401

        if spans.enabled():
            raise SystemExit("ledger: program spans must be off in the harness")
        from repro.driver import TransformOptions, transform

        os.makedirs(WORK_ROOT, exist_ok=True)
        warm = tempfile.mkdtemp(prefix="import-", dir=WORK_ROOT)
        try:
            transform(
                "for(i=0; i<4; i++)\n  S: A[i] = f(A[i]);\n"
                "for(i=0; i<4; i++)\n  T: B[i] = g(A[i], B[i]);\n",
                {},
                TransformOptions(exec_backend="serial", workers=WORKERS),
                cache_dir=warm,
            )
        finally:
            shutil.rmtree(warm, ignore_errors=True)
        elapsed = time.perf_counter() - t0
    return elapsed, gauge


class Tally:
    """Operations attempted and failed, all phases."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, detail=None) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {detail}" if detail else what)

    def refuse(self, what: str, detail: str) -> None:
        """An operation that could not even start counts as attempted
        and failed."""
        self.attempted += 1
        self.fail(what, detail)


class OpTimeout(Exception):
    """An in-process operation overran its deadline."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`OpTimeout` in the main thread after ``seconds``.
    A blocked ``join``/``result`` wakes for the signal, so a hung
    backend becomes a failed operation instead of a hung run."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: the host probe: a fixed pure-Python spin, and the wall it takes on
#: this host when nothing disturbs it (the "nominal" speed every
#: reported time is scaled to)
PROBE_ITERATIONS = 60_000
PROBE_NOMINAL_MS = 3.4
#: probes on each side of a served burst (in-process samples take one)
BURST_PROBES = 5


def pin_to_one_cpu() -> None:
    """Keep this process, and so the server child it spawns, on one CPU.
    The probe's reading applies to the work only when both share a core
    (on this sandbox the two cores change speed independently), and the
    server is spared the cross-core hand-offs of its interpreter lock,
    which made served latency 40-60 % slower and erratic here."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe() -> float:
    """Wall ms of the fixed spin, now, on this thread's core."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


class Gauge:
    """Host probes around a block of samples: ``n`` on entry and ``n`` on
    exit, taken while nothing else of the benchmark is running."""

    def __init__(self, n: int = 1) -> None:
        self.n = n
        self.readings: list[float] = []

    def __enter__(self) -> "Gauge":
        self.readings += [probe() for _ in range(self.n)]
        return self

    def __exit__(self, *exc) -> None:
        self.readings += [probe() for _ in range(self.n)]


def speed_of(gauges) -> float:
    """Median probe time over nominal: 1.0 undisturbed, 1.5 when the host
    runs Python 1.5x slower.  One probe is a few ms and as noisy as the
    bursts it samples; the median over a slice's or a phase's worth is
    what the samples are scaled by."""
    readings = [r for g in gauges for r in g.readings]
    return stats.median(readings) / PROBE_NOMINAL_MS if readings else 1.0


def busy_share(wall: float, cpu: float) -> float:
    """Share of ``wall`` this process spent on a CPU (all threads)."""
    return min(1.0, cpu / wall) if wall else 1.0


def nominal(wall: float, speed: float, busy: float = 1.0) -> float:
    """``wall`` rescaled to nominal host speed: the CPU-busy share is
    divided by ``speed``; the share spent waiting (a blocking stage, a
    socket) is left alone."""
    return wall * ((1.0 - busy) + busy / speed)


class Series:
    """Samples of one phase, by slice and class (kernel, or verb and
    kernel for served requests), each with the probes around it."""

    def __init__(self) -> None:
        #: (slice, class, raw wall ms, CPU-busy share, gauge)
        self.rows: list[tuple[int, object, float, float, Gauge]] = []

    def add(self, slice_: int, cls, raw: float, busy: float, gauge: Gauge) -> None:
        self.rows.append((slice_, cls, raw, busy, gauge))

    def nominal_rows(self) -> list[tuple[int, object, float]]:
        """(slice, class, ms at nominal host speed), each sample scaled
        by the speed of its slice."""
        gauges = defaultdict(list)
        for slice_, _, _, _, gauge in self.rows:
            gauges[slice_].append(gauge)
        speed = {s: speed_of(g) for s, g in gauges.items()}
        return [
            (slice_, cls, nominal(raw, speed[slice_], busy))
            for slice_, cls, raw, busy, _ in self.rows
        ]

    def quiet(self) -> list[tuple[int, object, float]]:
        """The nominal rows of the lower-scoring half of the slices (see
        the module docstring)."""
        rows = self.nominal_rows()
        by_class = defaultdict(list)
        for _, cls, value in rows:
            by_class[cls].append(value)
        centre = {cls: stats.median(v) for cls, v in by_class.items()}
        ratios = defaultdict(list)
        for slice_, cls, value in rows:
            ratios[slice_].append(value / centre[cls])
        ranked = sorted(ratios, key=lambda s: stats.median(ratios[s]))
        keep = set(ranked[: max(1, math.ceil(len(ranked) / 2))])
        return [row for row in rows if row[0] in keep]

    def dump(self) -> list:
        """Every raw sample, for the results file."""
        return [
            [s, cls, raw, busy, g.readings] for s, cls, raw, busy, g in self.rows
        ]


@dataclass
class Prepared:
    """One kernel ready to measure: program inputs and expected outputs."""

    case: Case
    options: object  # repro.driver.TransformOptions
    funcs: dict | None
    inputs: dict
    expected: dict
    #: expected ``run`` checksums from the server (reference arrays;
    #: privatized accumulators from a reference-verified serial run)
    served_sums: dict
    warm_dir: str | None = None


class WorkloadRun:
    """Measures one generated workload; use as a context manager so the
    server child and every scratch directory are removed on any exit."""

    def __init__(self, workload: Workload, seconds: float, tiny: bool = False):
        self.workload = workload
        self.seconds = float(seconds)
        self.tiny = tiny
        self.floors = TINY_FLOORS if tiny else FLOORS
        self.run_floor = 2 if tiny else workload.spec.run_samples
        self.clients = min(os.cpu_count() or 1, WORKERS)
        self.tally = Tally()
        self.prepared: list[Prepared] = []
        self.server: served.ServerChild | None = None
        self.work: str | None = None
        self.samples: dict[str, str] = {}
        self.kernel_rows: dict[str, dict] = {}
        #: every raw sample per phase: [slice, class, raw ms, CPU-busy
        #: share, readings of the probes around it]
        self.raw_rows: dict[str, list] = {}
        self.host = host.fingerprint()
        self.hung = False
        #: wall seconds per phase, for sizing a run against its budget
        self.phase_s: dict[str, float] = defaultdict(float)

    def __enter__(self) -> "WorkloadRun":
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        return self

    def __exit__(self, *exc) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def attempt(self, what: str, fn):
        """Run ``fn() -> (ok, value)`` under the op deadline and count it.
        Returns ``value`` when it succeeded, else ``None``."""
        self.tally.attempted += 1
        try:
            with deadline(OP_DEADLINE_S):
                ok, value = fn()
        except OpTimeout as exc:
            self.hung = True  # a worker thread may still be stuck
            self.tally.fail(what, exc)
            return None
        except Exception as exc:  # the boundary: any raise is a failed op
            self.tally.fail(what, f"{type(exc).__name__}: {exc}")
            return None
        if not ok:
            self.tally.fail(what, "wrong or unverified output")
            return None
        return value

    def outputs_match(self, prep: Prepared, store) -> bool:
        got = {name: view.data for name, view in store.arrays.items()}
        return reference.matches(prep.expected, got, prep.case.accumulators)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Accumulate the wall of one phase (the sizing record)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] += time.perf_counter() - t0

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def prepare_inputs(self) -> None:
        """Inputs from ``Interpreter.new_store()`` and their reference
        outputs, for every kernel."""
        from repro.driver import TransformOptions
        from repro.interp import Interpreter

        stage = reference.blocking_stage(STAGE_SECONDS)
        self.prepared = []
        for case in self.workload.cases:
            interp = Interpreter.from_source(case.source, case.params)
            inputs = {
                name: (view.data.copy(), view.offsets)
                for name, view in interp.new_store().arrays.items()
            }
            expected = reference.run(case.nests, inputs)
            self.prepared.append(
                Prepared(
                    case=case,
                    options=TransformOptions(**case.options),
                    funcs={"compute": stage} if case.opaque else None,
                    inputs=inputs,
                    expected=expected,
                    served_sums=reference.checksums(expected),
                )
            )

    def start_server(self) -> float:
        if self.server is not None:
            self.server.stop()
        self.server = served.ServerChild(
            CHECKOUT, tempfile.mkdtemp(prefix="serve-", dir=self.work), WORKERS
        )
        return self.server.start()

    def setup(self, import_s: float, import_gauge: Gauge) -> float:
        """Everything before the first measurement, in seconds at nominal
        host speed (the median over every set-up probe).  The repeatable
        parts run ``floors['setup']`` times and enter as medians; the
        last server started stays up for the served phase."""
        reps = self.floors["setup"]
        inputs_s, server_s, gauges = [], [], [import_gauge]
        with self.phase("setup"):
            for _ in range(reps):
                with Gauge() as gauge:
                    t0 = time.perf_counter()
                    self.prepare_inputs()
                    inputs_s.append(time.perf_counter() - t0)
                gauges.append(gauge)
            for _ in range(reps):
                with Gauge() as gauge:
                    server_s.append(self.start_server())
                gauges.append(gauge)
        self.samples["setup_s"] = f"1+{reps}+{reps}"
        raw = import_s + stats.median(inputs_s) + stats.median(server_s)
        return nominal(raw, speed_of(gauges))

    # ------------------------------------------------------------------
    # one sample of each kind
    # ------------------------------------------------------------------
    def _oneshot(self, prep: Prepared, cache_dir: str, warm: bool):
        from repro.driver import transform
        from repro.presburger import cache as presburger_cache
        from repro.store import session_counters

        presburger_cache.cache_clear()
        before = session_counters()
        c0, t0 = time.process_time(), time.perf_counter()
        result = transform(
            prep.case.source, prep.case.params, prep.options, prep.funcs,
            cache_dir=cache_dir,
        )
        ms = (time.perf_counter() - t0) * 1e3
        cpu_ms = (time.process_time() - c0) * 1e3
        after = session_counters()
        hit = after.get("hits", 0) - before.get("hits", 0) == 1
        put = after.get("puts", 0) - before.get("puts", 0) == 1
        ok = (
            result.verified is True
            and result.execution is not None
            and (hit and not put if warm else put and not hit)
        )
        return ok, (ms, cpu_ms)

    def oneshot_sample(self, prep: Prepared, warm: bool):
        """One timed ``transform`` through an empty (cold) or the
        populated (warm) store: ``(raw ms, CPU-busy share, gauge)``, or
        ``None`` when it failed."""
        what = f"oneshot {'warm' if warm else 'cold'} {prep.case.id}"
        if warm and prep.warm_dir is None:
            self.tally.refuse(what, "no populated store")
            return None
        cache_dir = prep.warm_dir if warm else tempfile.mkdtemp(
            prefix="store-", dir=self.work
        )
        with Gauge() as gauge:
            got = self.attempt(
                what, lambda: self._oneshot(prep, cache_dir, warm)
            )
        if not warm:
            if got is not None and prep.warm_dir is None:
                prep.warm_dir = cache_dir  # the warm path's populated store
            else:
                shutil.rmtree(cache_dir, ignore_errors=True)
        if got is None:
            return None
        ms, cpu_ms = got
        return ms, busy_share(ms, cpu_ms), gauge

    def compile_for_run(self, prep: Prepared):
        """Interpreter (fused ``auto``) + analysis, compiled once."""
        from repro.driver import analyze
        from repro.interp import Interpreter

        interp = Interpreter.from_source(
            prep.case.source, prep.case.params, prep.funcs,
            vectorize=prep.options.vectorize, fuse=prep.options.fuse,
        )
        return interp, analyze(interp, prep.options)

    def compile_all(self) -> list:
        """``compile_for_run`` per kernel (``None`` where it failed)."""
        return [
            self.attempt(
                f"compile {prep.case.id}",
                lambda: (True, self.compile_for_run(prep)),
            )
            for prep in self.prepared
        ]

    def run_once(self, prep, interp, analysis, backend, collect_events=False):
        """One measured execution:
        ``(ok, (outside ms, cpu ms, stats, store))``."""
        from repro.interp import execute_measured, execute_privatized

        c0, t0 = time.process_time(), time.perf_counter()
        if analysis.privatized:
            store, st = execute_privatized(
                interp, analysis.info, analysis.plan, backend=backend,
                workers=WORKERS, collect_events=collect_events,
            )
        else:
            store, st = execute_measured(
                interp, analysis.info, backend=backend, workers=WORKERS,
                collect_events=collect_events,
            )
        ms = (time.perf_counter() - t0) * 1e3
        cpu_ms = (time.process_time() - c0) * 1e3
        return self.outputs_match(prep, store), (ms, cpu_ms, st, store)

    def run_samples(self, prep, compiled, backend, count: int) -> list:
        """``count`` timed runs inside one gauge: ``[(raw ms, CPU-busy
        share, gauge, stats), ...]`` of those that succeeded."""
        with Gauge() as gauge:
            got = [self._run_sample(prep, compiled, backend) for _ in range(count)]
        return [
            (ms, busy_share(ms, cpu_ms), gauge, st)
            for ms, cpu_ms, st in filter(None, got)
        ]

    def _run_sample(self, prep, compiled, backend):
        what = f"run {backend} {prep.case.id}"
        if compiled is None:
            self.tally.refuse(what, "not compiled")
            return None
        got = self.attempt(
            what, lambda: self.run_once(prep, *compiled, backend)
        )
        if got is None:
            return None
        ms, cpu_ms, st, store = got
        if compiled[1].privatized and backend == "serial":
            # all privatized backends are bit-identical for one part
            # count, so this reference-verified output is what the
            # server's accumulators must hash to
            arrays = {n: v.data for n, v in store.arrays.items()}
            sums = reference.checksums(arrays)
            for acc in prep.case.accumulators:
                prep.served_sums[acc] = sums[acc]
        return ms, cpu_ms, st

    def warm_up_runs(self, compiled) -> None:
        for backend in ("serial", "threads"):
            for prep, comp in zip(self.prepared, compiled):
                for _ in range(self.floors["warmups"]):
                    self._run_sample(prep, comp, backend)

    def served_cold(self) -> list[float]:
        """Every kernel compiled once against the server's empty store."""
        return served.cold_compiles(
            self.server, self.prepared, self.tally, WORKERS
        )

    def served_burst(self, sequences, start: int, count: int, on_reply=None):
        """Requests ``start .. start+count`` of every client's sequence,
        closed loop (:func:`served.closed_loop`), between probes taken
        while no request is in flight: ``(replies, gauge)``."""
        with Gauge(BURST_PROBES) as gauge:
            replies = served.closed_loop(
                self.server, self.prepared, self.tally, sequences, start,
                count, workers=WORKERS, on_reply=on_reply,
            )
        return replies, gauge

    def burst_size(self) -> int:
        """Requests per client and slice: whole balanced blocks, so every
        burst carries the same mix of kernels and verbs, whatever the
        seed."""
        block = self.workload.request_block()
        per_slice = self.floors["served"] / self.floors["slices"] / self.clients
        return block * max(1, round(per_slice / block))

    def client_sequences(self, per_client: int) -> list:
        return [
            self.workload.requests(k, per_client)
            for k in range(self.clients)
        ]

    # ------------------------------------------------------------------
    # the end-to-end pass
    # ------------------------------------------------------------------
    def end_to_end(self, import_s: float, import_gauge: Gauge) -> dict:
        """Every end-to-end metric, tracing off."""
        m = {"setup_s": self.setup(import_s, import_gauge)}
        t_start = time.monotonic()
        floor = self.floors["slices"]
        runs_per_slice = math.ceil(self.run_floor / floor)
        burst = self.burst_size()
        # enough sequence for any number of extra slices
        sequences = self.client_sequences(burst * floor * 16)

        compiled = self.compile_all()
        self.warm_up_runs(compiled)
        with self.phase("served"):
            self.served_cold()
        series = {
            name: Series()
            for name in ("cold", "warm", "run_serial", "run_threads", "served")
        }
        s = 0
        while s < floor or time.monotonic() - t_start < self.seconds:
            for warm in (False, True):
                name = "warm" if warm else "cold"
                with self.phase(name):
                    for k, prep in enumerate(self.prepared):
                        got = self.oneshot_sample(prep, warm)
                        if got is not None:
                            series[name].add(s, k, *got)
            for backend in ("serial", "threads"):
                with self.phase(f"run_{backend}"):
                    for k, prep in enumerate(self.prepared):
                        for ms, busy, gauge, _ in self.run_samples(
                            prep, compiled[k], backend, runs_per_slice
                        ):
                            series[f"run_{backend}"].add(s, k, ms, busy, gauge)
            with self.phase("served"):
                replies, gauge = self.served_burst(sequences, s * burst, burst)
            for verb, ci, status, ms in replies:
                # the server's work is CPU-bound: the whole latency scales
                series["served"].add(s, (verb, ci, status), ms, 1.0, gauge)
            s += 1
        del compiled

        for name, key in (
            ("oneshot_cold_ms", "cold"),
            ("oneshot_warm_ms", "warm"),
            ("run_serial_ms", "run_serial"),
            ("run_threads_ms", "run_threads"),
        ):
            m[name] = self.kernel_geomean(name, series[key])
        m.update(self.served_metrics(series["served"]))
        m["ok_share"] = 1.0 - self.tally.failed / max(1, self.tally.attempted)
        m["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.samples["slices"] = str(s)
        return m

    def kernel_geomean(self, name: str, series: Series) -> float:
        """Median per kernel over the quiet slices, geometric mean over
        kernels; per-kernel rows (with every raw sample) are kept."""
        quiet = series.quiet()
        medians = []
        for k, prep in enumerate(self.prepared):
            kept = [v for _, cls, v in quiet if cls == k]
            if kept:
                medians.append(stats.median(kept))
                self.kernel_rows.setdefault(prep.case.id, {})[name] = {
                    "median": medians[-1],
                    "n": len(kept),
                    "raw_median": stats.median(
                        [raw for _, cls, raw, _, _ in series.rows if cls == k]
                    ),
                }
        self.raw_rows[name] = series.dump()
        self.samples[name] = f"{len(quiet)}/{len(series.rows)}"
        return stats.geomean(medians) if medians else 0.0

    def served_metrics(self, series: Series) -> dict:
        """p50 per verb (median per kernel, geometric mean over kernels),
        p90 and requests/s over every request.  No quiet-slice choice
        here: a burst has two or three requests per (verb, kernel), too
        few to score it, and halving the sample costs the p90 more than
        it gains."""
        rows = series.nominal_rows()
        out = {}
        for verb in ("compile", "run"):
            name = f"served_{verb}_p50_ms"
            medians = []
            for k, prep in enumerate(self.prepared):
                values = [ms for _, cls, ms in rows if cls == (verb, k, "warm")]
                if values:
                    medians.append(stats.median(values))
                    self.kernel_rows.setdefault(prep.case.id, {})[name] = {
                        "median": medians[-1], "n": len(values),
                    }
            out[name] = stats.geomean(medians) if medians else 0.0
            self.samples[name] = str(
                sum(cls[::2] == (verb, "warm") for _, cls, _ in rows)
            )
        both = [ms for _, _, ms in rows]
        out["served_p90_ms"] = stats.percentile(both, 0.90) if both else 0.0
        # a closed loop without think time completes clients / mean
        # latency requests per second (the probes between requests are
        # the harness's, not the clients')
        out["served_rps"] = (
            self.clients * 1e3 * len(both) / sum(both) if both else 0.0
        )
        self.samples["served_p90_ms"] = self.samples["served_rps"] = str(len(both))
        self.raw_rows["served"] = series.dump()
        return out

    def document(self, metrics: dict, units: dict) -> dict:
        """The results file: metrics with units and sample counts,
        per-kernel rows, inputs and host."""
        self.host["loadavg_after"] = host.loadavg()
        failed = self.tally.failed
        return {
            "workload": self.workload.spec.name,
            "why": self.workload.spec.why,
            "seed": self.workload.seed,
            "seconds": self.seconds,
            "correct": failed == 0,
            "attempted": self.tally.attempted,
            "failed": failed,
            "failed_share": failed / max(1, self.tally.attempted),
            "errors": self.tally.errors[:20],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
            "samples": dict(self.samples),
            "phase_wall_s": {k: round(v, 3) for k, v in self.phase_s.items()},
            "kernels": self.kernel_rows,
            "raw_samples": self.raw_rows,
            "cases": [
                {"id": c.id, "params": c.params, "options": c.options,
                 "opaque": c.opaque}
                for c in self.workload.cases
            ],
            "host": self.host,
        }
