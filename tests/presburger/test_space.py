"""Tests for spaces."""

import pytest

from repro.presburger import Space, anonymous


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

    def test_renamed_keeps_dims(self):
        sp = Space(("i", "j"), "S").renamed("T")
        assert sp.name == "T"
        assert sp.dims == ("i", "j")

    def test_with_dims(self):
        sp = Space(("i",), "S").with_dims(["a", "b"])
        assert sp.dims == ("a", "b")
        assert sp.name == "S"

    def test_compatible(self):
        assert Space(("i", "j")).compatible(Space(("a", "b"), "X"))
        assert not Space(("i",)).compatible(Space(("a", "b")))

    def test_anonymous(self):
        sp = anonymous(3, name="T")
        assert sp.dims == ("d0", "d1", "d2")
        assert sp.name == "T"
