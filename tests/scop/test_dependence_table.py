"""The per-SCoP dependence table: equal to the literal definition on every
entry, derived once per ``Scop`` object (again after ``clear()``), and
gone with it."""

import gc
import weakref
from pathlib import Path

import pytest

from repro.driver import TransformOptions, transform
from repro.interp import Interpreter
from repro.lang import parse
from repro.presburger import PointRelation, cache
from repro.scop import (
    DepKind,
    dependence_relation,
    deps,
    extract_scop,
    iter_dependences,
)
from repro.workloads import TABLE9

from ..conftest import Counter, LISTING1, reference_filter_execution_order
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
    return reference_filter_execution_order(
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


@pytest.fixture
def derivations(monkeypatch):
    """Counts the batched derivations of a dependence table."""
    return Counter(monkeypatch, deps, "_derive")


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


def test_the_table_is_derived_once_per_scop_and_refilled_after_clear(
    derivations, join_calls
):
    with cache.overridden(enabled=False):  # every after() reaches _after
        scop = extract_scop(parse(LISTING1), {"N": 10})
        S, R = scop.statement("S"), scop.statement("R")
        table = scop.dependence_table()
        assert not table and derivations.calls == 0  # no question yet
        first = dependence_relation(scop, S, R)
        assert derivations.calls == 1 and len(table) == 3 * 2**2
        assert dependence_relation(scop, S, R) is first
        assert dependence_relation(scop, R, S).is_empty()  # nest order
        assert len(list(iter_dependences(scop))) > 1
        assert derivations.calls == 1
        assert join_calls == []  # the table composes no relation
        table.clear()
        assert not table
        again = dependence_relation(scop, S, R)
        assert again == first and again is not first
        assert derivations.calls == 2 and scop.dependence_table() is table


def test_each_scop_derives_its_own_table_and_it_dies_with_it(derivations):
    """Two ``transform``s of one source in one process derive the table
    once each: it is the SCoP's, and each ``transform`` extracts its
    own.  Nothing else holds it once the SCoP is gone."""
    source = TABLE9["P9"].source(10)
    counts = []
    for _ in range(2):
        before = derivations.calls
        assert transform(source, {}, TransformOptions(coarsen=4)).verified
        counts.append(derivations.calls - before)
    assert counts == [1, 1]
    scop = extract_scop(parse(source), {})
    assert len(list(iter_dependences(scop))) > 0
    table = weakref.ref(deps.dependences(scop))
    del scop
    gc.collect()
    assert table() is None


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
