"""Tests for the threaded task runtime."""

import threading
import time

import pytest

from repro.tasking import (
    TaskGraph,
    TaskRuntimeError,
    bind_interpreter_actions,
    execute,
)


def record_graph(edges, n):
    """Graph whose tasks append their id to a shared list."""
    g = TaskGraph()
    log: list[int] = []
    lock = threading.Lock()
    for k in range(n):
        def action(k=k):
            with lock:
                log.append(k)
        g.add_task("S", k, action=action)
    for a, b in edges:
        g.add_edge(a, b)
    return g, log


class TestExecution:
    def test_all_tasks_run_once(self):
        g, log = record_graph([(0, 1), (1, 2), (0, 3)], 4)
        result = execute(g, workers=3)
        assert result.ok
        assert sorted(log) == [0, 1, 2, 3]
        assert sorted(result.completion_order) == [0, 1, 2, 3]

    def test_precedence_respected_in_log(self):
        edges = [(0, 2), (1, 2), (2, 3), (2, 4)]
        for _ in range(5):  # scheduling is nondeterministic: repeat
            g, log = record_graph(edges, 5)
            execute(g, workers=4)
            pos = {t: k for k, t in enumerate(log)}
            for a, b in edges:
                assert pos[a] < pos[b]

    def test_single_worker(self):
        g, log = record_graph([(0, 1)], 2)
        execute(g, workers=1)
        assert log == [0, 1]

    def test_empty_graph(self):
        result = execute(TaskGraph(), workers=2)
        assert result.ok and result.completion_order == ()

    def test_tasks_without_actions_complete(self):
        g = TaskGraph()
        a = g.add_task("A", 0)
        b = g.add_task("B", 0)
        g.add_edge(a, b)
        assert execute(g, workers=2).ok

    def test_concurrency_actually_happens(self):
        """Two independent sleeping tasks overlap on two workers."""
        g = TaskGraph()
        span = {}

        def sleeper(k):
            def action():
                span[k] = (time.monotonic(),)
                time.sleep(0.05)
                span[k] += (time.monotonic(),)
            return action

        g.add_task("A", 0, action=sleeper(0))
        g.add_task("B", 0, action=sleeper(1))
        execute(g, workers=2)
        s0, f0 = span[0]
        s1, f1 = span[1]
        assert s0 < f1 and s1 < f0  # overlapping intervals


class TestErrors:
    def test_failing_task_raises(self):
        g = TaskGraph()

        def boom():
            raise RuntimeError("kaboom")

        g.add_task("A", 0, action=boom)
        with pytest.raises(TaskRuntimeError, match="kaboom"):
            execute(g, workers=2)

    def test_cycle_rejected_before_running(self):
        from repro.tasking import CyclicTaskGraphError

        g = TaskGraph()
        a, b = g.add_task("A", 0), g.add_task("B", 0)
        g.add_edge(a, b)
        g.add_edge(b, a)
        with pytest.raises(CyclicTaskGraphError):
            execute(g, workers=1)

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            execute(TaskGraph(), workers=0)


class TestInterpreterBinding:
    def test_bound_actions_mutate_store(self, listing1_interp):
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast

        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        graph = TaskGraph.from_task_ast(generate_task_ast(info))
        store = interp.new_store()
        before = store.arrays["A"].data.copy()
        bind_interpreter_actions(graph, interp, store)
        execute(graph, workers=2)
        assert not (store.arrays["A"].data == before).all()

    def test_repeated_runs_deterministic(self, listing1_interp):
        from repro.pipeline import detect_pipeline
        from repro.schedule import generate_task_ast

        interp = listing1_interp
        info = detect_pipeline(interp.scop)
        stores = []
        for _ in range(3):
            graph = TaskGraph.from_task_ast(generate_task_ast(info))
            store = interp.new_store()
            bind_interpreter_actions(graph, interp, store)
            execute(graph, workers=4)
            stores.append(store)
        assert stores[0].equal(stores[1])
        assert stores[1].equal(stores[2])
