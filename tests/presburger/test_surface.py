"""The package is the explicit relation layer and nothing beside it.

Adding or dropping a module or an export of ``repro.presburger`` is a
visible decision (``tools/traffic_trace.py`` sizes the next one).
"""

import pkgutil

import repro.presburger


def test_modules_are_exactly_these():
    names = {m.name for m in pkgutil.iter_modules(repro.presburger.__path__)}
    assert names == {
        "affine", "basic_set", "cache", "constraint", "convert",
        "enumeration", "explicit", "space",
    }


def test_exports_are_exactly_these():
    assert set(repro.presburger.__all__) == {
        # iteration domains: constraint systems and their one tabulation
        "AffineExpr", "BasicSet", "Constraint", "Kind", "Space",
        "UnboundedSetError", "enumerate_basic_set",
        "to_point_set",
        # the explicit layer
        "PointRelation", "PointSet", "joint_ranks", "lex_ranks",
        "lexsorted_rows", "rowwise_lex_lt", "unique_rows",
        # the per-op computation counters
        "cache",
    }


def test_the_benchmark_harness_reads_the_counters_as_before():
    """What ``ledger/`` does around every cold one-shot: clear, compile,
    read ``stats()``.  The harness pins this surface, so it stays until
    the harness is revised: ``calls`` counts the compile's computations,
    and nothing is cached to hit or evict."""
    from repro.driver import TransformOptions, transform
    from repro.presburger import cache
    from repro.workloads import TABLE9

    cache.cache_clear()
    assert cache.stats().calls == 0
    result = transform(TABLE9["P5"].source(10), {}, TransformOptions())
    assert result.verified is True
    stats = cache.stats()
    assert stats.calls == sum(cache.op_call_counts().values()) > 0
    assert (stats.hit_rate, stats.evictions) == (0.0, 0)
    cache.cache_clear()
    assert cache.stats().calls == 0 and cache.op_call_counts() == {}
