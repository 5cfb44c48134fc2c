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
        # the op cache
        "CacheStats", "cache", "cache_clear", "cache_configure",
        "cache_format_stats", "cache_overridden", "cache_reset_stats",
        "cache_stats",
    }
