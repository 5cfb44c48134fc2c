"""Fuzzing the frontend: arbitrary text never crashes, only diagnoses.

The lexer/parser must respond to any input with a :class:`FrontendError`
(or success) — never an unhandled exception.  Mutated valid kernels probe
the error paths near real syntax.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang import FrontendError, parse

VALID = (
    "for(i=0; i<8; i++)\n"
    "  for(j=0; j<8; j++)\n"
    "    S: A[i][j] = f(A[i][j], A[i][j+1]);"
)


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=80))
@example("for(i=0; i<\u00b2; i++) S: A[i] = f(A[i]);")  # int() refuses it
@example("for(i=0; i<4; i++) S: A[i] = " + "(" * 1200 + "-" * 3000 + "i;")
def test_arbitrary_text_never_crashes(text):
    try:
        parse(text)
    except FrontendError:
        pass


@settings(max_examples=120, deadline=None)
@given(
    st.integers(0, len(VALID) - 1),
    st.sampled_from(list("()[]{};:=+-*/<>N7 ")),
    st.integers(0, 2**31 - 1),
)
def test_mutated_kernels_never_crash(pos, char, seed):
    rng = random.Random(seed)
    mode = rng.choice(["replace", "insert", "delete"])
    if mode == "replace":
        text = VALID[:pos] + char + VALID[pos + 1 :]
    elif mode == "insert":
        text = VALID[:pos] + char + VALID[pos:]
    else:
        text = VALID[:pos] + VALID[pos + 1 :]
    try:
        parse(text)
    except FrontendError:
        pass


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="0123456789+-*/() ij", max_size=30))
def test_expression_fragments_never_crash(fragment):
    src = f"for(i=0; i<8; i++) S: A[{fragment}][0] = f(A[i][0]);"
    try:
        parse(src)
    except FrontendError:
        pass
