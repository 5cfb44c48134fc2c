"""The sequential oracle computes on Python floats.

``run_sequential`` binds each array as a nested list, wraps every
stored value in ``float()`` and writes the arrays back when the program
returns.  Every test here compares its arrays byte for byte with
``reference_program`` (tests/conftest.py), the NumPy-scalar oracle it
replaced, on the same inputs.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.interp import ArrayStore, Interpreter
from repro.lang import parse
from repro.lang.ast import Loop
from repro.scop import extract_scop
from repro.workloads import TABLE9
from tests.conftest import compile_for_exec, reference_program, reference_run

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "kernels"

#: Cell values of the edge stores: signed zeros, infinities, NaN, a
#: subnormal, huge and negative values, cycled over every array.
EDGE_VALUES = (
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 3.0, -3.0,
    5e-324, 1e308, -2.5, 7.0, -1e-300, 65521.0,
)


def _cases():
    for name in sorted(TABLE9):
        for n in (6, 10, 14):
            yield f"{name}@{n}", TABLE9[name].source(n), {}
    for path in sorted(EXAMPLES.glob("*.c")):
        yield path.stem, path.read_text(), {"N": 10}
    from ledger.workloads import generate

    for tiny in (True, False):
        for case in generate("reduction", 1, tiny=tiny).cases:
            yield case.id, case.source, case.params


def assert_same_arrays(got, want):
    assert set(got.arrays) == set(want.arrays)
    for name in got.arrays:
        a, b = got.arrays[name].data, want.arrays[name].data
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
        differ = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
        assert a.tobytes() == b.tobytes(), f"{name}: cells {differ}"


@pytest.mark.parametrize(
    "source,params", [pytest.param(s, p, id=i) for i, s, p in _cases()]
)
def test_bit_identical_to_the_numpy_scalar_oracle(source, params):
    interp = Interpreter.from_source(source, params)
    got = interp.run_sequential(interp.new_store())
    assert_same_arrays(got, reference_run(interp))


# ----------------------------------------------------------------------
# the edge set
# ----------------------------------------------------------------------
def edge_store(scop):
    """Every array filled with :data:`EDGE_VALUES`, cycled (each array
    starts at a different phase)."""
    store = ArrayStore.for_scop(scop, init="zeros")
    values = np.array(EDGE_VALUES)
    for k, view in enumerate(store.arrays.values()):
        idx = (np.arange(view.data.size) + 3 * k) % len(values)
        view.data[...] = values[idx].reshape(view.data.shape)
    return store


def with_ops(program, ops):
    """``program`` with the assignment operator of each label in
    ``ops`` replaced, on the AST."""

    def item(node):
        if isinstance(node, Loop):
            return replace(node, body=tuple(item(b) for b in node.body))
        return replace(node, op=ops.get(node.label, node.op))

    return replace(program, nests=tuple(item(n) for n in program.nests))


def run_both(source, funcs=None, ops=None, params=None):
    """``(new, reference)`` arrays of ``source`` on one edge store."""
    program = parse(source)
    if ops:
        program = with_ops(program, ops)
    interp = Interpreter(
        program, extract_scop(program, params or {"N": 13}), funcs
    )
    inputs = edge_store(interp.scop)
    with np.errstate(all="ignore"):
        got = interp.run_sequential(inputs.copy())
        want = reference_program(interp.program, interp.scop)(
            inputs.copy(), interp.funcs
        )
    return got, want


EDGE_PROGRAMS = {
    "arith": "for(i=0; i<N; i++) S: A[i] = B[i] * C[i] - B[i] + C[i] * 31;",
    "divide": "for(i=0; i<N; i++) S: A[i] = B[i] / C[i];",
    "remainder": "for(i=0; i<N; i++) S: A[i] = B[i] % C[i];",
    "by-negatives": (
        "for(i=0; i<N; i++) S: A[i] = B[i] / (0 - 3) + B[i] % (0 - 7)"
        " + (0 - B[i]) % C[i];"
    ),
    "literal-zero": "for(i=0; i<N; i++) S: A[i] = B[i] / 0 + C[i] % 0;",
    "index-over-value": (
        "for(i=0; i<N; i++) S: A[i] = i / (B[i] - B[i]) + i % C[i];"
    ),
    "index-quotient": (
        "for(i=0; i<N; i++) S: A[i] = i / 3 - i % 4 + (0 - i) / 2;"
    ),
    "stored-index-divisor": (
        "for(i=0; i<N; i++) { S: A[i] = i - i; "
        "T: B[i] = A[i] / (i - i) + C[i] % A[i]; }"
    ),
    "chained": (
        "for(i=1; i<N; i++) S: A[i] = A[i-1] / B[i] + f(A[i-1], C[i]);"
    ),
    "minmax": (
        "for(i=0; i<N; i++) S: A[i] = min(B[i], C[i]) + max(C[i], i) "
        "- max(B[i], 0);"
    ),
    "compound": (
        "for(i=0; i<N; i++) { S: A[i] += B[i]; T: C[i] *= A[i] - 1; "
        "U: B[i] -= C[i] / A[i]; }"
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_PROGRAMS))
def test_edge_values_and_operators(name):
    assert_same_arrays(*run_both(EDGE_PROGRAMS[name]))


@pytest.mark.parametrize("op", ["/=", "%="])
def test_compound_division_by_zero_and_negatives(op):
    source = (
        "for(i=0; i<N; i++) { S: A[i] *= B[i]; T: C[i] *= 0 - 2; "
        "U: B[i] *= 0; }"
    )
    ops = {"S": op, "T": op, "U": op}
    got, want = run_both(source, ops=ops)
    assert_same_arrays(got, want)
    assert np.isnan(got.arrays["B"].data).any()  # x / 0 and x % 0 happened


@pytest.mark.parametrize("op", ["/=", "%="])
def test_a_parsed_compound_division_is_the_one_the_lowering_reads(op):
    """``B[i] %= x`` parses to the AST the oracle tests build by hand,
    lowers to its entry of the one operator table, and the oracle and
    both kernel forms compute the same bits from it."""
    from repro.interp import COMPOUND_OPS, execute_measured
    from repro.lang.tokens import ASSIGN_OPS

    body = "for(i=0; i<N; i++) S: B[i] {} A[i] * C[i];"
    parsed = parse(body.format(op))
    assert parsed.nests == with_ops(parse(body.format("=")), {"S": op}).nests
    assert COMPOUND_OPS[op] == {"/": "//", "%": "%"}[ASSIGN_OPS[op]]
    for fuse in ("auto", "off"):
        interp, info = compile_for_exec(body.format(op), fuse, {"N": 13})
        (spec,) = interp.fused_program.get("S").spec.statements
        assert spec.op == COMPOUND_OPS[op]
        inputs = edge_store(interp.scop)
        with np.errstate(all="ignore"):
            want = interp.run_sequential(inputs.copy())
            for backend in ("serial", "threads"):
                got, _ = execute_measured(
                    interp, info, backend=backend, workers=2,
                    store=inputs.copy(),
                )
                assert_same_arrays(got, want)
        assert np.isnan(want.arrays["B"].data).any()  # x / 0 and x % 0 happened


def test_a_zero_divisor_warns_like_numpy():
    interp = Interpreter.from_source(
        "for(i=0; i<4; i++) S: A[i] = B[i] / (B[i] - B[i]);", {}
    )
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = interp.run_sequential(interp.new_store())
    assert np.isinf(got.arrays["A"].data).all()


@pytest.mark.parametrize("value", ["i", "g(i)"])
def test_an_integer_zero_divisor_raises(value):
    """``i / 0`` is integer arithmetic in both oracles, and so is a
    function's ``int`` over one: it raises."""
    interp = Interpreter.from_source(
        f"for(i=0; i<4; i++) S: A[i] = {value} / (i - i);", {},
        funcs={"g": lambda i: i},
    )
    with pytest.raises(ZeroDivisionError):
        interp.run_sequential(interp.new_store())
    with pytest.raises(ZeroDivisionError):
        reference_run(interp)


def test_user_functions_receive_float64_and_may_return_floats():
    seen = set()

    def strict(*args):
        for a in args:
            seen.add(type(a))
            assert type(a) in (np.float64, int), type(a)
        return float(sum(args)) / 3.0

    source = (
        "for(i=0; i<N; i++) S: A[i] = f(B[i], i, C[i] / B[i]) + f(A[i]);"
    )
    got, want = run_both(source, funcs={"f": strict})
    assert_same_arrays(got, want)
    assert seen == {np.float64, int}


def test_default_functions_take_python_floats():
    """``_mix`` and the ufuncs compute the same bits on a Python float:
    they are bound as they are.  Any other callable is wrapped to
    receive ``np.float64``."""
    from repro.interp.compile import _float64_args
    from repro.interp.interp import _mix

    assert _float64_args(_mix, _mix) is _mix
    assert _float64_args(np.minimum, _mix) is np.minimum
    calls = []
    wrapped = _float64_args(lambda *a: calls.append(a) or 1.0, _mix)
    assert wrapped(2.5, 3, np.float64(1.0)) == 1.0
    assert [tuple(map(type, a)) for a in calls] == [
        (np.float64, int, np.float64)
    ]


def test_a_program_that_raises_leaves_the_store_untouched():
    """The arrays are written back when the program returns, so a raise
    part-way leaves the caller's store as it was."""
    calls = []

    def fail_late(x):
        calls.append(1)
        if len(calls) == 5:
            raise RuntimeError("stage failed")
        return x + 1.0

    interp = Interpreter.from_source(
        "for(i=0; i<8; i++) S: A[i] = f(A[i]);", {}, funcs={"f": fail_late}
    )
    store = interp.new_store()
    before = store.arrays["A"].data.copy()
    with pytest.raises(RuntimeError, match="stage failed"):
        interp.run_sequential(store)
    assert store.arrays["A"].data.tobytes() == before.tobytes()
    assert calls == [1] * 5
