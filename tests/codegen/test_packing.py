"""Tests for dependency-vector integer packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import PackerOverflowError, VectorPacker
from repro.codegen.packing import INT64_CAPACITY
from tests.conftest import unpack


class TestBasics:
    def test_pack_unpack(self):
        p = VectorPacker(mins=(0, 0), ranges=(10, 20))
        assert unpack(p, p.pack((3, 7))) == (3, 7)
        assert p.pack((0, 0)) == 0
        assert p.pack((9, 19)) == p.capacity - 1

    def test_negative_mins(self):
        p = VectorPacker(mins=(-5, -2), ranges=(11, 5))
        assert unpack(p, p.pack((-5, -2))) == (-5, -2)
        assert unpack(p, p.pack((5, 2))) == (5, 2)

    def test_out_of_range_rejected(self):
        p = VectorPacker(mins=(0,), ranges=(4,))
        with pytest.raises(ValueError):
            p.pack((4,))
        with pytest.raises(ValueError):
            unpack(p, 4)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            VectorPacker(mins=(0,), ranges=(2, 2))
        with pytest.raises(ValueError):
            VectorPacker(mins=(0,), ranges=(0,))
        p = VectorPacker(mins=(0, 0), ranges=(2, 2))
        with pytest.raises(ValueError):
            p.pack((1,))

    def test_for_points(self):
        pts = np.array([[2, -1], [5, 3], [2, 0]])
        p = VectorPacker.for_points(pts)
        assert p.mins == (2, -1)
        assert p.ranges == (4, 5)
        for row in pts:
            assert unpack(p, p.pack(tuple(row))) == tuple(row)

    def test_for_points_requires_rows(self):
        with pytest.raises(ValueError):
            VectorPacker.for_points(np.zeros((0, 2)))


class TestBijectivity:
    def test_all_codes_distinct(self):
        p = VectorPacker(mins=(0, 0), ranges=(7, 9))
        codes = {
            p.pack((a, b)) for a in range(7) for b in range(9)
        }
        assert len(codes) == 63
        assert codes == set(range(63))

    @settings(max_examples=50)
    @given(
        st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
        st.tuples(st.integers(1, 30), st.integers(1, 30)),
        st.data(),
    )
    def test_roundtrip_property(self, mins, ranges, data):
        p = VectorPacker(mins=mins, ranges=ranges)
        vec = tuple(
            data.draw(st.integers(lo, lo + r - 1))
            for lo, r in zip(mins, ranges)
        )
        assert unpack(p, p.pack(vec)) == vec


class TestOverflowGuard:
    def test_huge_ranges_raise_packer_overflow(self):
        with pytest.raises(PackerOverflowError, match=r"\[RPA041\]"):
            VectorPacker(mins=(0, 0), ranges=(2**32, 2**32))

    def test_overflow_error_is_a_value_error_with_code(self):
        with pytest.raises(ValueError) as exc:
            VectorPacker(mins=(0,), ranges=(INT64_CAPACITY,))
        assert exc.value.code == "RPA041"

    def test_overflow_diagnostic(self):
        try:
            VectorPacker(mins=(0, 0, 0), ranges=(2**21, 2**21, 2**21))
        except PackerOverflowError as err:
            diag = err.diagnostic()
        else:
            pytest.fail("expected PackerOverflowError")
        assert diag.code == "RPA041"
        assert diag.severity.name == "ERROR"
        assert "2**63" in diag.message or "slot" in diag.message

    def test_just_under_the_limit_is_fine(self):
        p = VectorPacker(mins=(0,), ranges=(INT64_CAPACITY - 1,))
        assert p.capacity == INT64_CAPACITY - 1
        assert p.pack((INT64_CAPACITY - 2,)) == INT64_CAPACITY - 2

    def test_capacity_product_checked_not_individual_ranges(self):
        # each range fits comfortably but the product does not
        with pytest.raises(PackerOverflowError):
            VectorPacker(mins=(0, 0), ranges=(2**40, 2**40))


def test_statement_packers_cover_all_block_ends(listing3_scop):
    from repro.codegen import statement_packers
    from repro.pipeline import detect_pipeline
    from repro.schedule import generate_task_ast

    info = detect_pipeline(listing3_scop)
    ast = generate_task_ast(info)
    packers = statement_packers(ast)
    for nest in ast.nests:
        packer = packers[nest.statement]
        codes = {packer.pack(b.end) for b in nest.blocks}
        assert len(codes) == len(nest.blocks)  # injective on real ends
