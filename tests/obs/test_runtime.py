"""Tests for live runtime event collection and clock calibration."""

import json

import pytest

from repro.obs import runtime as R
from repro.obs.runtime import (
    RuntimeCollector,
    TaskEvent,
    WorkerClock,
    collecting,
    current,
)


class TestWorkerClock:
    def test_unobserved_offset_zero(self):
        clk = WorkerClock(pid=1, worker=0)
        assert clk.offset_ns == 0
        assert clk.uncertainty_ns == 0

    def test_interval_brackets_true_offset(self):
        """Synthetic round-trips around a known offset recover it."""
        true_offset = 5_000_000
        clk = WorkerClock(pid=1, worker=0)
        # parent submits at s, worker first touches at s+latency (worker
        # clock: + true_offset), finishes at r-latency, parent receives r.
        for s, latency, busy in ((0, 1000, 8000), (20_000, 500, 3000)):
            first = s + latency + true_offset
            last = first + busy
            r = last - true_offset + latency
            clk.observe(s, r, first, last)
        lo, hi = clk.lo_ns, clk.hi_ns
        assert lo <= true_offset <= hi
        assert abs(clk.offset_ns - true_offset) <= clk.uncertainty_ns
        # uncertainty is bounded by the fastest round-trip's slack
        assert clk.uncertainty_ns <= 1000

    def test_tightening_monotone(self):
        clk = WorkerClock(pid=1, worker=0)
        clk.observe(0, 100, 1000, 1050)
        w1 = clk.hi_ns - clk.lo_ns
        clk.observe(0, 60, 1010, 1040)
        assert clk.hi_ns - clk.lo_ns <= w1

    def test_inconsistent_interval_prefers_completion_bound(self):
        clk = WorkerClock(pid=1, worker=0)
        clk.lo_ns, clk.hi_ns, clk.samples = 200.0, 100.0, 2
        assert clk.offset_ns == 200
        assert clk.uncertainty_ns == 0

    def test_drifting_worker_clock_inverts_interval(self):
        """A worker clock that drifts between observations can push the
        interval inconsistent (lo > hi) through ``observe`` alone; the
        estimate must stay finite and follow the completion bound."""
        clk = WorkerClock(pid=1, worker=0)
        # first round-trip at true offset 10_000 (tight: latency 100)
        s, lat, busy, off = 0, 100, 500, 10_000
        first = s + lat + off
        last = first + busy
        clk.observe(s, last - off + lat, first, last)
        hi_before = clk.hi_ns
        # worker clock then drifts +5_000 — its later completion
        # timestamps run ahead of what the old interval allows
        off2 = 15_000
        s2 = 50_000
        first2 = s2 + lat + off2
        last2 = first2 + busy
        clk.observe(s2, last2 - off2 + lat, first2, last2)
        assert clk.lo_ns > clk.hi_ns  # interval went inconsistent
        assert clk.hi_ns == hi_before  # receipt bound kept the old min
        # inconsistent -> trust completions (the drifted lower bound)
        assert clk.offset_ns == int(clk.lo_ns)
        assert clk.uncertainty_ns == 0

    def test_one_sided_observations_stay_finite(self):
        """Before both bounds exist the midpoint degenerates to the one
        observed side rather than averaging with infinity."""
        clk = WorkerClock(pid=1, worker=0)
        clk.samples = 1
        clk.lo_ns = 4_000.0  # only completions observed
        assert clk.offset_ns == 4_000
        clk2 = WorkerClock(pid=2, worker=1)
        clk2.samples = 1
        clk2.hi_ns = -2_500.0  # only receipts observed, negative offset
        assert clk2.offset_ns == -2_500

    def test_negative_offset_recovered(self):
        """Worker clocks behind the parent (negative offset) calibrate
        just like positive ones."""
        true_offset = -7_000
        clk = WorkerClock(pid=1, worker=0)
        for s, lat, busy in ((0, 800, 6_000), (30_000, 300, 2_000)):
            first = s + lat + true_offset
            last = first + busy
            clk.observe(s, last - true_offset + lat, first, last)
        assert clk.lo_ns <= true_offset <= clk.hi_ns
        assert abs(clk.offset_ns - true_offset) <= clk.uncertainty_ns

    def test_uncertainty_shrinks_with_faster_round_trips(self):
        true_offset = 2_000
        widths = []
        clk = WorkerClock(pid=1, worker=0)
        for lat in (5_000, 1_000, 200):
            s = 0
            first = s + lat + true_offset
            last = first + 100
            clk.observe(s, last - true_offset + lat, first, last)
            widths.append(clk.uncertainty_ns)
        assert widths[0] >= widths[1] >= widths[2]
        assert widths[2] <= 200


class TestCollector:
    def test_no_collector_by_default(self):
        assert current() is None

    def test_collecting_scopes_the_collector(self):
        with collecting("threads", 2) as col:
            assert current() is col
        assert current() is None

    def test_interleaved_threads_keep_their_own_collector(self):
        """A enters, B enters, A exits, B exits — each thread sees only
        its own collector and none is left installed on either."""
        import threading

        steps = [threading.Event() for _ in range(4)]
        seen: dict[str, list] = {"A": [], "B": []}

        def thread(name, enter_after, exit_after, entered, exited):
            steps[enter_after].wait(5) if enter_after is not None else None
            with collecting("threads", 1) as col:
                col.record(0, name, worker=0, start_ns=0, end_ns=1)
                seen[name].append(current() is col)
                steps[entered].set()
                steps[exit_after].wait(5)
                seen[name].append(current() is col)
            seen[name].append(current())
            steps[exited].set()

        a = threading.Thread(target=thread, args=("A", None, 1, 0, 2))
        b = threading.Thread(target=thread, args=("B", 0, 2, 1, 3))
        a.start()
        b.start()
        a.join(10)
        b.join(10)
        assert all(s.is_set() for s in steps)
        assert seen == {"A": [True, True, None], "B": [True, True, None]}
        assert current() is None

    def test_record_and_trace(self):
        col = RuntimeCollector("threads", 2)
        col.record(0, "S0", worker=0, start_ns=10, end_ns=30)
        col.record(1, "S1", worker=1, start_ns=20, end_ns=50, stolen=True)
        col.queue_sample(0, 3)
        col.count("tasks", 2)
        trace = col.trace()
        assert len(trace) == 2
        assert trace.makespan_ns == 40
        assert trace.counters == {"tasks": 2}
        assert len(trace.queue_depth) == 1
        assert trace.events[1].stolen

    def test_worker_utilization(self):
        col = RuntimeCollector("threads", 2)
        col.record(0, "S0", worker=0, start_ns=0, end_ns=100)
        col.record(1, "S1", worker=1, start_ns=0, end_ns=100)
        assert col.trace().worker_utilization() == pytest.approx(1.0)

    def test_process_batch_rebased_onto_parent_clock(self):
        """Events from a worker with a huge clock offset land near the
        parent's submit/receive window after calibration."""
        true_offset = 10**12
        col = RuntimeCollector("processes", 1)
        submit, recv = 1000, 51_000
        first = submit + 2000 + true_offset
        last = recv - 2000 + true_offset
        col.record_process_batch(
            tids=[0, 1],
            pid=42,
            submit_ns=submit,
            recv_ns=recv,
            batch_first_ns=first,
            batch_last_ns=last,
            timings=[("S0", first, first + 10_000), ("S0", last - 10_000, last)],
        )
        trace = col.trace()
        assert 42 in trace.clocks
        for e in trace.events:
            assert e.pid == 42
            assert submit <= e.start_ns <= e.end_ns <= recv + 5000
        assert trace.clocks[42].uncertainty_ns <= (recv - submit)

    def test_trace_events_sorted_by_start(self):
        col = RuntimeCollector("threads", 2)
        col.record(1, "S1", worker=1, start_ns=500, end_ns=600)
        col.record(0, "S0", worker=0, start_ns=100, end_ns=200)
        starts = [e.start_ns for e in col.trace().events]
        assert starts == sorted(starts)


class TestChromeEvents:
    def _trace(self):
        col = RuntimeCollector("threads", 2)
        col.record(0, "S0", worker=0, start_ns=1000, end_ns=3000)
        col.record(1, "S1", worker=1, start_ns=2000, end_ns=4000, stolen=True)
        col.queue_sample(1, 2)
        return col.trace()

    def test_event_shape(self):
        events = self._trace().to_trace_events(pid=9)
        x = [e for e in events if e["ph"] == "X"]
        c = [e for e in events if e["ph"] == "C"]
        m = [e for e in events if e["ph"] == "M"]
        assert len(x) == 2 and len(c) == 1 and len(m) == 2
        assert all(e["pid"] == 9 for e in events)
        assert all(e["ts"] >= 0 for e in x + c)
        stolen = [e for e in x if e["args"].get("stolen")]
        assert len(stolen) == 1
        json.dumps(events)

    def test_empty_trace_no_events(self):
        assert R.RuntimeTrace("threads", 2, 0).to_trace_events() == []

    def test_summary_dict_serializable(self):
        doc = self._trace().summary_dict()
        json.dumps(doc)
        assert doc["events"] == 2
        assert doc["backend"] == "threads"


class TestBackendsEmitEvents:
    @pytest.fixture(scope="class")
    def kernel(self):
        from repro.interp import Interpreter
        from repro.pipeline import detect_pipeline
        from tests.conftest import LISTING1

        interp = Interpreter.from_source(LISTING1, {"N": 12})
        return interp, detect_pipeline(interp.scop, coarsen=3)

    def _run(self, kernel, backend, workers=2):
        from repro.interp import execute_measured

        interp, info = kernel
        store, stats = execute_measured(
            interp, info, backend=backend, workers=workers,
            collect_events=True,
        )
        return stats

    def test_serial_backend(self, kernel):
        stats = self._run(kernel, "serial", workers=1)
        trace = stats.events
        assert trace is not None
        assert len(trace.events) == stats.blocks_total
        assert {e.worker for e in trace.events} == {0}
        assert trace.counters.get("tasks") == stats.blocks_total

    def test_threads_backend(self, kernel):
        stats = self._run(kernel, "threads")
        trace = stats.events
        assert len(trace.events) == stats.blocks_total
        tids = sorted(e.tid for e in trace.events)
        assert tids == list(range(stats.blocks_total))  # graph-aligned ids
        assert all(e.end_ns >= e.start_ns for e in trace.events)
        assert trace.queue_depth  # thread backend samples queue depths

    def test_processes_backend(self, kernel):
        stats = self._run(kernel, "processes")
        trace = stats.events
        assert len(trace.events) == stats.blocks_total
        assert trace.clocks  # every worker pid calibrated
        for clock in trace.clocks.values():
            assert clock.samples > 0
        # calibrated events stay inside the parent-side run window
        assert all(e.start_ns >= 0 for e in trace.events)
        assert trace.makespan_ns <= int(stats.wall_time * 1e9 * 2) + 10**7

    def test_collection_off_costs_nothing(self, kernel):
        from repro.interp import execute_measured

        interp, info = kernel
        _, stats = execute_measured(interp, info, backend="threads")
        assert stats.events is None

    def test_exec_stats_as_dict_carries_runtime(self, kernel):
        stats = self._run(kernel, "serial", workers=1)
        doc = stats.as_dict()
        assert doc["runtime"]["events"] == stats.blocks_total
        json.dumps(doc)
