"""Ablation: vectorized explicit backend vs definition-level point loops.

DESIGN.md §5 calls out the choice of running the pipeline algebra on
explicit NumPy relations.  This benchmark prices that decision against the
brute-force per-point oracle the tests cross-check against
(``tests/conftest.py``) on growing problem sizes, and asserts the two
agree.
"""

from __future__ import annotations

import pytest

from repro.bench import build_scop
from repro.pipeline import compute_pipeline_map
from tests.conftest import pipeline_pairs_bruteforce, pipeline_relation_as_dict

KERNEL = """
for(i=0; i<{n}; i++)
  for(j=0; j<{n}; j++)
    S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
for(i=0; i<{m}; i++)
  for(j=0; j<{m}; j++)
    R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i][j]);
"""


def _scop(n: int):
    return build_scop(KERNEL.format(n=n, m=n // 2))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_backends_agree(n):
    scop = _scop(n)
    S, R = scop.statement("S"), scop.statement("R")
    fast = pipeline_relation_as_dict(compute_pipeline_map(scop, S, R).relation)
    slow = dict(pipeline_pairs_bruteforce(scop, S, R))
    assert fast == slow


@pytest.mark.parametrize("n", [16, 32, 64])
def test_explicit_backend(benchmark, n):
    scop = _scop(n)
    S, R = scop.statement("S"), scop.statement("R")
    S.points, R.points  # warm domain enumeration out of the timing

    pmap = benchmark(compute_pipeline_map, scop, S, R)
    assert pmap is not None
    benchmark.extra_info["anchors"] = len(pmap.relation)


@pytest.mark.parametrize("n", [16, 32])
def test_bruteforce_backend(benchmark, n):
    scop = _scop(n)
    S, R = scop.statement("S"), scop.statement("R")
    S.points, R.points

    pairs = benchmark(pipeline_pairs_bruteforce, scop, S, R)
    assert pairs
