"""Tests for spaces."""

import pytest

from repro.presburger import Space


class TestSpace:
    def test_basic(self):
        sp = Space(("i", "j"), "S")
        assert sp.ndim == 2
        assert sp.index("j") == 1
        assert str(sp) == "S[i, j]"

    def test_unnamed(self):
        sp = Space(("x",))
        assert str(sp) == "[x]"

    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Space(("i", "i"))
