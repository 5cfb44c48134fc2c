"""The compiled schedule and the one thread scheduler behind every
in-process run: caller is worker 0, helpers start at the first surplus
ready task, failures and interrupts stop dispatch."""

from __future__ import annotations

import signal
import threading
import time

import numpy as np
import pytest

from repro.interp.plan import quotient_schedule
from repro.tasking import OmpTaskSystem, Schedule, TaskGraph
from repro.tasking.dispatch import (
    latest_first,
    run_serial,
    run_threads,
    transitive_reduction,
)


def chain(n):
    return Schedule.from_preds([set()] + [{k} for k in range(n - 1)])


def name_of(tid):
    return f"t{tid}"


def _edges(graph):
    """The graph's ``(src, dst)`` edge lists, as lowering reads them."""
    pairs = [(p, t) for t, ps in enumerate(graph.preds) for p in ps]
    return [p for p, _ in pairs], [t for _, t in pairs]


class TestSchedule:
    def test_from_preds_counts_successors_and_roots(self):
        sched = Schedule.from_preds([set(), set(), {0, 1}, {2}, {0}])
        assert sched.counts == (0, 0, 2, 1, 1)
        assert sched.succs == ((2, 4), (2,), (3,), (), ())
        assert sched.roots == (0, 1)
        assert sched.preds() == [set(), set(), {0, 1}, {2}, {0}]
        assert len(sched) == 5

    def test_resolver_last_writer_chain_key_and_duplicates(self):
        """A plan's schedule is its graph's quotient over the rows: a
        merged chained stream ``S+T`` (rows 0-2) waits on its previous
        row only, whatever earlier block a token names, and a row's
        duplicate predecessors collapse."""
        graph = TaskGraph()
        for name, k in [("S", 0), ("S", 1), ("S", 2),
                        ("T", 0), ("T", 1), ("T", 2), ("U", 0)]:
            graph.add_task(name, k)
        for a, b in [(0, 1), (1, 2), (3, 4), (4, 5),  # the two chains
                     (0, 3), (2, 5),  # in-row tokens
                     (0, 5),  # a token on an earlier S block
                     (4, 6), (1, 6)]:  # U reads row 1 twice
            graph.add_edge(a, b)
        # rows: tasks (0, 3), (1, 4), (2, 5), (6,)
        row_of = np.array([0, 1, 2, 0, 1, 2, 3])
        sched = quotient_schedule(_edges(graph), row_of, floors=[0, 0, 0, 3])
        assert sched.preds() == [set(), {0}, {1}, {1}]
        assert sched.counts == (0, 1, 1, 1)
        # unchained (floor = own row): the token keeps its own row, and
        # the reduction drops it — 0 -> 2 is implied by 0 -> 1 -> 2
        loose = quotient_schedule(_edges(graph), row_of, floors=[0, 1, 2, 3])
        assert loose.preds() == [set(), {0}, {1}, {1}]

    def test_resolver_argument_checks(self):
        system = OmpTaskSystem(2)
        with pytest.raises(ValueError, match="equal length"):
            system.create_task(lambda p: None, None, 0, 0, [1], [])
        with pytest.raises(ValueError, match="out of range"):
            system.create_task(lambda p: None, None, 0, 2)
        with pytest.raises(ValueError, match="out of range"):
            system.create_task(lambda p: None, None, 0, 0, [1], [5])
        assert len(system) == 0  # a refused call creates no task
        # a row waiting on a later row is no schedule
        graph = TaskGraph()
        graph.add_task("S", 0)
        graph.add_task("T", 0)
        graph.add_edge(1, 0)
        with pytest.raises(RuntimeError, match="created after it"):
            quotient_schedule(_edges(graph), np.arange(2), floors=[0, 1])


class TestTransitiveReduction:
    def test_diamond_keeps_both_arms_and_drops_the_shortcut(self):
        # 0 -> {1, 2} -> 3, plus 0 -> 3
        preds = [set(), {0}, {0}, {0, 1, 2}]
        assert transitive_reduction(latest_first(preds)) == [
            set(), {0}, {0}, {1, 2}
        ]

    def test_chain_with_a_shortcut(self):
        preds = [set(), {0}, {1}, {2, 0}, {3, 1}]
        assert transitive_reduction(latest_first(preds)) == [
            set(), {0}, {1}, {2}, {3}
        ]

    def test_is_idempotent_and_leaves_its_input_alone(self):
        preds = [set(), set(), {0, 1}, {0, 2}, {1, 2, 3}, {0, 4}]
        before = [set(ps) for ps in preds]
        once = transitive_reduction(latest_first(preds))
        assert once == [set(), set(), {0, 1}, {2}, {3}, {4}]
        assert transitive_reduction(latest_first(once)) == once
        assert preds == before

    def test_refuses_a_predecessor_not_below_its_task(self):
        with pytest.raises(ValueError, match="task 1 waits on task 2"):
            transitive_reduction([[], [2], [0]])
        with pytest.raises(ValueError, match="task 0 waits on task 0"):
            transitive_reduction([[0]])

    def test_refuses_predecessors_out_of_order(self):
        """Each task's predecessors come latest first, without repeats:
        visited in another order, an earlier one would be kept before a
        later one that reaches it."""
        for ps in ([0, 1], [1, 1]):
            with pytest.raises(ValueError, match="not latest first"):
                transitive_reduction([[], [0], ps])


class TestCallerIsWorkerZero:
    def test_width_one_schedule_starts_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda self: (started.append(self.name), real_start(self))[1],
        )
        ran = []
        stats = run_threads(
            chain(50),
            lambda tid: ran.append((tid, threading.get_ident())),
            4, name_of,
        )
        assert [tid for tid, _ in ran] == list(range(50))
        assert {ident for _, ident in ran} == {threading.get_ident()}
        assert started == []
        assert stats == {
            "policy": "work-stealing", "tasks": 50, "workers": 4,
            "helpers": 0, "steals": 0,
        }

    def test_a_run_leaves_no_cyclic_garbage(self):
        """A run's closures, queues and the store its bodies hold are
        freed when it returns, not left for the cycle collector — with
        and without helper threads."""
        import gc

        wide = Schedule.from_preds([set()] * 8 + [set(range(8))])
        gc.collect()
        gc.disable()
        try:
            for sched in (chain(8), wide):
                stats = run_threads(sched, lambda tid: None, 4, name_of)
            assert stats["helpers"] == 3
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_two_sleeping_roots_overlap_on_two_workers(self):
        span = {}

        def sleeper(tid):
            start = time.monotonic()
            time.sleep(0.05)
            span[tid] = (start, time.monotonic(), threading.get_ident())

        stats = run_threads(
            Schedule.from_preds([set(), set()]), sleeper, 2, name_of
        )
        (s0, f0, t0), (s1, f1, t1) = span[0], span[1]
        assert s0 < f1 and s1 < f0  # overlapping intervals
        assert t0 != t1 and threading.get_ident() in (t0, t1)
        assert stats["helpers"] == 1

    def test_helpers_start_at_the_first_surplus(self):
        """A chain that fans out at its end: no helper while the front is
        one task wide, one as soon as a task readies two."""
        alive_at = {}
        preds = [set(), {0}, {1}, {2}, {2}]  # 3 and 4 both wait on 2

        def body(tid):
            alive_at[tid] = threading.active_count()
            if tid >= 3:
                time.sleep(0.02)

        before = threading.active_count()
        stats = run_threads(Schedule.from_preds(preds), body, 2, name_of)
        assert alive_at[0] == alive_at[1] == alive_at[2] == before
        assert stats["helpers"] == 1
        assert threading.active_count() == before  # joined before returning

    def test_precedence_under_contention(self):
        """More workers than cores, a shortened switch interval: every
        task runs exactly once, after all of its predecessors."""
        import random
        import sys

        rng = random.Random(7)
        n = 400
        preds = [
            set(rng.sample(range(t), min(t, rng.randint(0, 3))))
            for t in range(n)
        ]
        sched = Schedule.from_preds(preds)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                order = []
                run_threads(sched, order.append, 8, name_of)
                pos = {tid: k for k, tid in enumerate(order)}
                assert sorted(order) == list(range(n))
                assert all(pos[p] < pos[t] for t in range(n) for p in preds[t])
        finally:
            sys.setswitchinterval(interval)

    def test_serial_runs_in_index_order(self):
        ran = []
        run_serial(range(5), ran.append, name_of)
        assert ran == [0, 1, 2, 3, 4]

    def test_empty_schedule(self):
        stats = run_threads(Schedule.from_preds([]), None, 3, name_of)
        assert stats["tasks"] == 0 and stats["helpers"] == 0

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_threads(chain(2), lambda tid: None, 0, name_of)


class TestFailures:
    def test_task_failure_is_reraised_after_helpers_joined(self):
        ran = []
        preds = [set(), set(), {0}, {1}, {2, 3}]

        def body(tid):
            if tid == 1:
                raise RuntimeError("stage failed")
            time.sleep(0.01)
            ran.append(tid)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="stage failed"):
            run_threads(Schedule.from_preds(preds), body, 2, name_of)
        assert threading.active_count() == before
        assert not {3, 4} & set(ran)  # transitive dependents never ran

    def test_cycle_is_reported_as_a_stall_not_a_hang(self):
        # 1 and 2 wait on each other; only the root can ever run
        sched = Schedule(
            counts=(0, 1, 1), succs=((), (2,), (1,)), roots=(0,)
        )
        with pytest.raises(RuntimeError, match="stalled: 1/3"):
            run_threads(sched, lambda tid: None, 2, name_of)

    @pytest.mark.skipif(
        not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
    )
    def test_interrupt_in_the_caller_stops_helpers(self):
        """A signal-raised exception reaches the caller while it waits
        for work: it is re-raised at once — without waiting for the
        helper's running task — and the helper takes no further task."""

        class Deadline(Exception):
            pass

        def on_alarm(signum, frame):
            raise Deadline()

        helper_busy = threading.Event()
        finished, ran = threading.Event(), []
        caller = threading.get_ident()

        def body(tid):
            ran.append(tid)
            if threading.get_ident() == caller:
                assert tid < 2 and helper_busy.wait(5)  # let it steal first
            else:
                helper_busy.set()
                time.sleep(0.4)  # still busy when the alarm fires
                finished.set()

        # two roots, one per thread; 2 .. 9 wait on both of them
        preds = [set(), set()] + [{0, 1}] * 8
        old = signal.signal(signal.SIGALRM, on_alarm)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            with pytest.raises(Deadline):
                run_threads(Schedule.from_preds(preds), body, 2, name_of)
            raised_after = time.monotonic() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert raised_after < 0.3  # did not wait out the helper's stage
        assert finished.wait(5)
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(
            th.name.startswith("repro-ws-") for th in threading.enumerate()
        ):
            time.sleep(0.01)
        assert not any(
            th.name.startswith("repro-ws-") for th in threading.enumerate()
        )
        assert sorted(ran) == [0, 1]


class TestCreateTaskSharesTheScheduler:
    def test_futures_backend_reports_the_scheduler_stats(self, monkeypatch):
        """``OmpTaskSystem.run`` is the same scheduler: one function's
        tasks form one chain, width 1, so no helper thread starts."""
        started = []
        real_start = threading.Thread.start
        monkeypatch.setattr(
            threading.Thread, "start",
            lambda self: (started.append(self.name), real_start(self))[1],
        )
        system = OmpTaskSystem(write_num=1)
        log = []
        for k in range(4):
            system.create_task(log.append, k, out_depend=k, out_idx=0)
        result = system.run(workers=3)
        assert log == [0, 1, 2, 3]  # same func: one chain, width 1
        assert result.completion_order == (0, 1, 2, 3) and started == []
        assert system.graph.preds[3] == {2}

    def test_unchained_tasks_of_one_function_are_independent(self):
        system = OmpTaskSystem(write_num=1)
        for k in range(3):
            system.create_task(
                lambda p: None, k, out_depend=k, out_idx=0, chain=False
            )
        assert Schedule.from_preds(system.graph.preds).roots == (0, 1, 2)
