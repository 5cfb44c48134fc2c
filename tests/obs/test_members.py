"""Merged-chain events: stable synthetic ids and member expansion."""

from __future__ import annotations

from repro.interp import Interpreter, execute_measured
from repro.obs.profile import profile_run
from repro.obs.runtime import RuntimeTrace, TaskEvent
from repro.pipeline import detect_pipeline
from repro.schedule import generate_task_ast
from repro.tasking import TaskGraph, simulate

from ..conftest import TWO_NEST_COPY


def _trace(events) -> RuntimeTrace:
    return RuntimeTrace(
        backend="threads", workers=2, epoch_ns=0, events=list(events)
    )


# ----------------------------------------------------------------------
# expand_members unit behaviour
# ----------------------------------------------------------------------
def test_expand_splits_merged_event_proportionally():
    trace = _trace(
        [TaskEvent(tid=0, statement="S+T", worker=1, start_ns=100, end_ns=400)]
    )
    out = trace.expand_members(
        ((3, 7),), weights={3: 1.0, 7: 2.0}, statements={3: "S", 7: "T"}
    )
    assert [(e.tid, e.statement, e.start_ns, e.end_ns) for e in out.events] == [
        (3, "S", 100, 200),
        (7, "T", 200, 400),
    ]
    # worker lane preserved, total duration preserved
    assert all(e.worker == 1 for e in out.events)
    assert sum(e.duration_ns for e in out.events) == 300


def test_expand_equal_split_without_weights():
    trace = _trace(
        [TaskEvent(tid=0, statement="S+T", worker=0, start_ns=0, end_ns=100)]
    )
    out = trace.expand_members(((1, 2),))
    assert [(e.tid, e.start_ns, e.end_ns) for e in out.events] == [
        (1, 0, 50),
        (2, 50, 100),
    ]


def test_expand_passes_through_unmapped_and_singleton_events():
    events = [
        TaskEvent(tid=0, statement="S", worker=0, start_ns=0, end_ns=10),
        TaskEvent(tid=5, statement="X", worker=0, start_ns=10, end_ns=20),
    ]
    out = _trace(events).expand_members(((9,),), statements={9: "S"})
    assert [(e.tid, e.statement) for e in out.events] == [
        (9, "S"),  # singleton retargeted to its member id
        (5, "X"),  # outside the map: untouched
    ]


def test_expand_degenerate_weights_fall_back_to_equal():
    trace = _trace(
        [TaskEvent(tid=0, statement="S+T", worker=0, start_ns=0, end_ns=100)]
    )
    out = trace.expand_members(((1, 2),), weights={1: 0.0, 2: 0.0})
    assert [e.end_ns - e.start_ns for e in out.events] == [50, 50]


def test_expand_empty_members_is_identity():
    trace = _trace(
        [TaskEvent(tid=0, statement="S", worker=0, start_ns=0, end_ns=10)]
    )
    assert trace.expand_members(()) is trace


def test_expand_zero_duration_event():
    """A zero-duration merged event still expands into one synthetic
    event per member, all degenerate at the same instant — cost
    splitting must not divide by a zero total duration."""
    trace = _trace(
        [TaskEvent(tid=0, statement="S+T", worker=0, start_ns=42, end_ns=42)]
    )
    out = trace.expand_members(((1, 2),), weights={1: 3.0, 2: 1.0})
    assert [(e.tid, e.start_ns, e.end_ns) for e in out.events] == [
        (1, 42, 42),
        (2, 42, 42),
    ]


def test_expand_partial_zero_weights_give_zero_width_members():
    """One zero-cost member inside a weighted chain gets a zero-width
    slice; its siblings absorb the full duration."""
    trace = _trace(
        [TaskEvent(tid=0, statement="A+B+C", worker=0, start_ns=0, end_ns=90)]
    )
    out = trace.expand_members(
        ((1, 2, 3),), weights={1: 2.0, 2: 0.0, 3: 1.0}
    )
    spans = [(e.tid, e.start_ns, e.end_ns) for e in out.events]
    assert spans == [(1, 0, 60), (2, 60, 60), (3, 60, 90)]
    assert sum(e.duration_ns for e in out.events) == 90


def test_expand_single_member_chain_keeps_full_duration():
    """Single-member chains (chain merging found nothing to merge for
    this task) must be a pure id/name retarget — identical timestamps,
    no rounding loss."""
    trace = _trace(
        [TaskEvent(tid=0, statement="S", worker=1, start_ns=17, end_ns=53)]
    )
    out = trace.expand_members(((4,),), weights={4: 0.0})
    assert [(e.tid, e.start_ns, e.end_ns) for e in out.events] == [
        (4, 17, 53)
    ]


def test_expand_missing_weight_index_falls_back_to_equal():
    """A weights map that lacks a member id cannot bias the split —
    the whole event falls back to the equal division."""
    trace = _trace(
        [TaskEvent(tid=0, statement="S+T", worker=0, start_ns=0, end_ns=100)]
    )
    out = trace.expand_members(((1, 9),), weights={1: 5.0})
    assert [e.duration_ns for e in out.events] == [50, 50]


def test_expand_rounding_never_loses_time():
    """Odd durations over many members: slice boundaries are rounded,
    but the union of slices is exactly the original event."""
    trace = _trace(
        [TaskEvent(tid=0, statement="M", worker=0, start_ns=0, end_ns=1001)]
    )
    members = tuple(range(1, 8))
    out = trace.expand_members(
        (members,), weights={m: float(m) for m in members}
    )
    assert out.events[0].start_ns == 0
    assert out.events[-1].end_ns == 1001
    for a, b in zip(out.events, out.events[1:]):
        assert a.end_ns == b.start_ns  # contiguous, no gaps/overlap


def test_expand_preserves_steal_and_pid():
    trace = _trace(
        [
            TaskEvent(
                tid=0, statement="S+T", worker=2, start_ns=0, end_ns=10,
                stolen=True, pid=1234,
            )
        ]
    )
    out = trace.expand_members(((0, 1),))
    assert all(e.stolen and e.pid == 1234 for e in out.events)


# ----------------------------------------------------------------------
# the integration the satellite exists for: merged chains keep their
# events, and profiling still attributes per original statement
# ----------------------------------------------------------------------
def test_chain_merging_stays_enabled_under_event_collection():
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
    info = detect_pipeline(interp.scop)
    graph = TaskGraph.from_task_ast(generate_task_ast(info))
    seq, stats = execute_measured(
        interp, info, backend="threads", workers=2, collect_events=True
    )
    assert stats.fused_chains, "kernel must fuse an S->T chain"
    assert stats.task_members, "merged run must publish its member map"
    # merged: fewer backend events than unfused tasks
    assert len(stats.events.events) < len(graph)
    # every unfused task id is recoverable from the member map
    covered = {m for row in stats.task_members for m in row}
    assert covered == set(range(len(graph)))
    # and the merged run still computes the right answer
    ref = Interpreter.from_source(TWO_NEST_COPY, {"N": 8}, fuse="off")
    ref_seq = ref.run_sequential(ref.new_store())
    assert ref_seq.equal(seq)


def test_profile_run_attributes_merged_chains_per_statement():
    interp = Interpreter.from_source(TWO_NEST_COPY, {"N": 8})
    info = detect_pipeline(interp.scop)
    graph = TaskGraph.from_task_ast(generate_task_ast(info))
    sim = simulate(graph, workers=2)
    _, stats = execute_measured(
        interp, info, backend="threads", workers=2, collect_events=True
    )
    report = profile_run(graph, sim, stats)
    # attribution is per original statement, not per merged "S+T" label
    assert set(report.statements) == {"S", "T"}
    blocks = info.blocking("S").num_blocks
    assert report.statements["S"]["tasks"] == blocks
    assert report.statements["T"]["tasks"] == blocks
    assert report.events == len(graph)
    # as_dict round-trips the member map for the obs surfaces
    assert len(stats.as_dict()["task_members"]) == len(stats.task_members)
