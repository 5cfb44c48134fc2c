"""Differential fuzzing of the pattern portfolio's reduction claims.

The oracle: a reduction claim licenses *reordering*.  For every random
kernel we run the portfolio, then execute the program with every freedom
the verified claims grant —

* nest pairs reclassified ``pipeline-after-privatization`` execute the
  *target* nest completely before the *source* nest (the worst legal
  reorder privatization allows);
* nests classified ``reduction`` execute their iterations in a random
  permutation —

and require the arrays to match the sequential interpretation
**bit-exactly**.  All accumulations run in exact integer float64
arithmetic (the `_mix` default functions produce integers below 65521
and the campaign sticks to sum/min/max groups), so associativity holds
exactly and any false claim shows up as a differing bit pattern.

Statically, a sample whose two updates do not commute (non-associative
shapes, mixed operator groups, plain overwrites) must never reclassify.

Reproduce one run with::

    pytest tests/fuzz/test_reduction_fuzz.py -m tier2 --fuzz-seed 12345
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.portfolio import NestPattern, run_portfolio
from repro.interp import Interpreter

# (template with {T} the accumulator access and {e} the input term,
#  group key) — group keys match iff the two updates commute
_SUM_IDIOMS = (
    "{T} += {e};",
    "{T} -= {e};",
    "{T} = {T} + {e};",
    "{T} = {e} + {T};",
    "{T} = {T} - {e};",
)
_MIN_IDIOMS = ("{T} = min({T}, {e});", "{T} = min({e}, {T});")
_MAX_IDIOMS = ("{T} = max({T}, {e});", "{T} = max({e}, {T});")
_GROUPS = (
    ("sum", _SUM_IDIOMS),
    ("min", _MIN_IDIOMS),
    ("max", _MAX_IDIOMS),
)
# statements that look accumulator-shaped but must never be claimed
_POISON = (
    ("{T} = {e} - {T};", "poison-subswap"),
    ("{T} = f({T}, {e});", "poison-opaque"),
)


@dataclass(frozen=True)
class ReductionSample:
    source: str
    #: True iff the two nests' updates provably commute (same array,
    #: same group) — the only case the portfolio may reclassify
    commuting: bool
    label: str

    def describe(self) -> str:
        return f"[{self.label}]\n{self.source}"


def _nest(statement: str, name: str, dims: int, n: int, reverse: bool):
    idx = ["i", "j"][:dims]
    sub = "".join(
        f"[{n - 1}-{v}]" if reverse else f"[{v}]" for v in idx
    )
    acc = "T" + sub
    header = "".join(
        f"for({v}=0; {v}<{n}; {v}++)\n" + "  " * (k + 1)
        for k, v in enumerate(idx)
    )
    inputs = "".join(f"[{v}]" for v in idx)
    term = f"{name}I{inputs}"  # distinct read-only input per nest
    return header + f"{name}: " + statement.format(T=acc, e=term) + "\n"


def generate_reduction_samples(seed: int, count: int):
    rng = random.Random(seed)
    samples = []
    for _ in range(count):
        dims = rng.choice((1, 2))
        n = rng.randint(5, 8)
        g1, idioms1 = rng.choice(_GROUPS)
        stmt1 = rng.choice(idioms1)
        roll = rng.random()
        if roll < 0.2:
            stmt2, g2 = rng.choice(_POISON)
        else:
            g2, idioms2 = rng.choice(_GROUPS)
            stmt2 = rng.choice(idioms2)
        reverse = rng.random() < 0.7  # mostly the interesting barrier case
        source = _nest(stmt1, "S", dims, n, reverse=False) + _nest(
            stmt2, "R", dims, n, reverse=reverse
        )
        commuting = g1 == g2 and not stmt2.startswith("poison")
        commuting = commuting and roll >= 0.2
        samples.append(
            ReductionSample(
                source,
                commuting,
                f"{dims}d n={n} {g1}/{g2 if roll >= 0.2 else stmt2}",
            )
        )
    return samples


def _relaxed_execution(interp, report, rng):
    """Execute with every freedom the verified portfolio claims grant."""
    scop = interp.scop
    store = interp.new_store()
    swap = {
        (p.explanation.source_nest, p.explanation.target_nest)
        for p in report.reclassified_pairs()
    }
    reduction_nests = {
        r.nest_index
        for r in report.nests
        if r.pattern is NestPattern.REDUCTION
    }
    nests = sorted({s.nest_index for s in scop.statements})
    order = list(nests)
    for src_nest, tgt_nest in swap:
        a, b = order.index(src_nest), order.index(tgt_nest)
        order[a], order[b] = order[b], order[a]
    reordered = order != nests
    for nest in order:
        for stmt in scop.statements:
            if stmt.nest_index != nest:
                continue
            points = stmt.points.points
            if nest in reduction_nests:
                # a block runs lexicographically: one-point blocks keep
                # the permuted order
                for k in rng.permutation(len(points)):
                    interp.run_block(store, stmt.name, points[k:k + 1])
                reordered = True
                continue
            interp.run_block(store, stmt.name, points)
    return store, reordered


def _check_sample(sample, rng):
    # fuse off: the loop forms, no slice-form gate
    interp = Interpreter.from_source(sample.source, {}, fuse="off")
    report = run_portfolio(interp.scop)

    if not sample.commuting:
        assert not report.reclassified_pairs(), (
            "false privatization claim on a non-commuting pair\n"
            + sample.describe()
        )

    seq = interp.run_sequential(interp.new_store())
    relaxed, reordered = _relaxed_execution(interp, report, rng)
    assert seq.equal(relaxed), (
        "relaxed execution diverged from sequential\n" + sample.describe()
    )
    return bool(report.reclassified_pairs()), reordered


def test_reduction_fuzz(pytestconfig):
    """Default-sized sweep (48 samples) of the reduction-claim oracle."""
    seed = pytestconfig.getoption("--fuzz-seed")
    count = pytestconfig.getoption("--fuzz-samples")
    rng = np.random.default_rng(seed)
    reclassified = reordered = 0
    for sample in generate_reduction_samples(seed ^ 0x5ED, count):
        did_reclassify, did_reorder = _check_sample(sample, rng)
        reclassified += did_reclassify
        reordered += did_reorder
    # the campaign must actually exercise the interesting paths
    assert reclassified > 0, "no sample ever reclassified — generator broken"
    assert reordered > 0


@pytest.mark.tier2
def test_reduction_fuzz_campaign(pytestconfig):
    """Nightly: the 200-sample zero-false-reduction differential sweep."""
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = np.random.default_rng(seed ^ 0xF00D)
    reclassified = 0
    for sample in generate_reduction_samples(seed + 7, 200):
        did_reclassify, _ = _check_sample(sample, rng)
        reclassified += did_reclassify
    assert reclassified > 0


# ----------------------------------------------------------------------
# privatized-execution agreement campaign (--fuzz-privatize)
# ----------------------------------------------------------------------
def _check_privatized_sample(sample, rng):
    """Full privatization pipeline on one sample; returns True when a
    plan formed (and then the privatized threads run matched bitwise)."""
    from repro.interp import execute_privatized
    from repro.pipeline.detect import detect_pipeline
    from repro.schedule import plan_privatization, privatize_info
    from repro.scop import DepKind

    interp = Interpreter.from_source(sample.source, {}, fuse="off")
    plan = plan_privatization(interp.scop)

    if not sample.commuting:
        # non-commuting pairs may still privatize when the *other*
        # statement alone forms a group; but a poison pair sharing the
        # accumulator never may — the planner sees the outside accessor
        assert not plan.groups, (
            "privatization plan formed on a non-commuting pair\n"
            + sample.describe()
        )
        return False
    if not plan.groups:
        return False

    parts = int(rng.integers(1, 5))
    info = detect_pipeline(
        interp.scop, kinds=tuple(DepKind), validate=False
    )
    pinfo = privatize_info(info, plan, parts=parts)
    seq = interp.run_sequential(interp.new_store())
    out, _ = execute_privatized(
        interp, pinfo, plan, backend="threads", workers=2
    )
    # exact integer float64 arithmetic throughout (see module docstring):
    # even the sum groups must agree with sequential bit-for-bit
    assert seq.equal(out), (
        f"privatized execution (parts={parts}) diverged from sequential\n"
        + sample.describe()
    )
    return True


def test_privatized_execution_fuzz_smoke(pytestconfig):
    """Default tier: a 16-sample privatized-execution agreement sweep."""
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = np.random.default_rng(seed ^ 0xBEEF)
    privatized = 0
    for sample in generate_reduction_samples(seed ^ 0x9417, 16):
        privatized += _check_privatized_sample(sample, rng)
    assert privatized > 0, "no sample ever privatized — generator broken"


def test_privatize_fuzz_campaign(pytestconfig):
    """Opt-in nightly (``--fuzz-privatize``): 200 samples through the
    complete plan → re-block → privatized threads execution path, each
    compared bit-exactly against sequential."""
    if not pytestconfig.getoption("--fuzz-privatize"):
        pytest.skip("enable with --fuzz-privatize")
    seed = pytestconfig.getoption("--fuzz-seed")
    rng = np.random.default_rng(seed ^ 0xBEEF)
    privatized = 0
    for sample in generate_reduction_samples(seed + 13, 200):
        privatized += _check_privatized_sample(sample, rng)
    assert privatized > 0
