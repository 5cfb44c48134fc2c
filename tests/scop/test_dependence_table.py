"""The per-SCoP dependence table: equal to the literal definition on every
entry, filled once per ``Scop`` object, and gone with it."""

from pathlib import Path

import pytest

from repro.driver import TransformOptions, transform
from repro.interp import Interpreter
from repro.lang import parse
from repro.presburger import PointRelation, cache
from repro.scop import DepKind, dependence_relation, extract_scop
from repro.scop.deps import _filter_execution_order
from repro.workloads import TABLE9

from ..conftest import LISTING1
from ..fuzz.generator import generate_samples

KERNEL_DIR = Path(__file__).resolve().parents[2] / "examples" / "kernels"


def corpus():
    for name in sorted(TABLE9):
        yield name, TABLE9[name].source(10), {}
    for path in sorted(KERNEL_DIR.glob("*.c")):
        yield path.name, path.read_text(), {"N": 12}
    for sample in generate_samples(20241004, 50, n_min=6, n_max=8):
        yield f"fuzz{sample.index}", sample.source, {}


def literal(scop, src, tgt, kind) -> PointRelation:
    """The definition, joined afresh: cells the source touches in its role
    matched with cells the target touches in its, in execution order."""
    if kind is DepKind.FLOW:
        src_rel, tgt_rel = scop.write_relation(src), scop.read_relation(tgt)
    elif kind is DepKind.ANTI:
        src_rel, tgt_rel = scop.read_relation(src), scop.write_relation(tgt)
    else:
        src_rel, tgt_rel = scop.write_relation(src), scop.write_relation(tgt)
    return _filter_execution_order(
        src_rel.inverse().after(tgt_rel), src, tgt
    )


@pytest.fixture
def join_calls(monkeypatch):
    """One entry per ``PointRelation._after`` call (the join kernel)."""
    calls, real = [], PointRelation._after
    monkeypatch.setattr(
        PointRelation,
        "_after",
        lambda self, other: calls.append(1) or real(self, other),
    )
    return calls


def test_every_entry_equals_the_literal_definition():
    entries = exits = 0
    for name, source, params in corpus():
        scop = extract_scop(parse(source), params)
        for src in scop.statements:
            for tgt in scop.statements:
                for kind in DepKind:
                    got = dependence_relation(scop, src, tgt, kind)
                    want = literal(scop, src, tgt, kind)
                    where = (name, src.name, tgt.name, kind)
                    assert got == want, where
                    assert (got.n_in, got.n_out) == (tgt.depth, src.depth), where
                    entries += 1
                    exits += src.nest_index > tgt.nest_index
        assert len(scop.dependence_table()) == 3 * len(scop.statements) ** 2
    # the corpus reaches the answers given without a join, too
    assert entries > 1000 and exits > 300


def test_an_entry_is_joined_once_per_scop(join_calls):
    joins = join_calls
    with cache.overridden(enabled=False):  # every after() reaches _after
        scop = extract_scop(parse(LISTING1), {"N": 10})
        S, R = scop.statement("S"), scop.statement("R")
        first = dependence_relation(scop, S, R)
        assert len(joins) == 1
        assert dependence_relation(scop, S, R) is first
        assert dependence_relation(scop, R, S).is_empty()  # nest order
        assert dependence_relation(scop, R, S, DepKind.ANTI).is_empty()
        assert len(joins) == 1
        scop.dependence_table().clear()
        assert dependence_relation(scop, S, R) == first
        assert len(joins) == 2


def test_nothing_dependence_shaped_outlives_a_scop(join_calls):
    """Two ``transform``s of one source in one process join equally often:
    the table is the SCoP's, and each ``transform`` extracts its own."""
    joins = join_calls
    source = TABLE9["P9"].source(10)
    counts = []
    # the Presburger memo is keyed on operand *content* and would answer
    # the second compile's joins; switched off, only a cache of dependence
    # relations could make the second count smaller
    with cache.overridden(enabled=False):
        for _ in range(2):
            joins.clear()
            assert transform(source, {}, TransformOptions(coarsen=4)).verified
            counts.append(len(joins))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("privatize", [False, True])
def test_cached_analysis_leaves_no_table_on_the_interpreter(
    tmp_path, privatize
):
    """What a resident server entry keeps is the interpreter and its SCoP;
    the relations of the compile must not ride along, cold or warm."""
    from repro.service import cached_analysis
    from repro.store import ArtifactStore

    source = (KERNEL_DIR / "histogram.c").read_text()
    options = TransformOptions(privatize=privatize, kinds=tuple(DepKind))
    store = ArtifactStore(str(tmp_path))
    for expected in ("cold", "warm"):
        interp = Interpreter.from_source(source, {"N": 10})
        _, status = cached_analysis(interp, source, {"N": 10}, options, store)
        assert status == expected
        assert not interp.scop.dependence_table()
