"""Tests for the Figure 11 matmul-chain kernels.

Includes the key fidelity check for the row-anchor encoding: declaring a
single read of the row's last cell induces the *same* pipeline map as
declaring the full row of reads.
"""

import pytest

from repro.bench import build_scop
from repro.pipeline import compute_pipeline_map, detect_pipeline
from repro.scop import parallel_levels, validate_scop
from repro.workloads import MatmulKernel, figure11_kernels
from tests.conftest import pipeline_relation_as_dict


class TestGenerators:
    def test_twelve_kernels(self):
        names = [k.name for k in figure11_kernels()]
        assert names == [
            "2mm", "2mmt", "2gmm", "2gmmt",
            "3mm", "3mmt", "3gmm", "3gmmt",
            "4mm", "4mmt", "4gmm", "4gmmt",
        ]

    @pytest.mark.parametrize("kernel", figure11_kernels())
    def test_parses_and_validates(self, kernel):
        scop = build_scop(kernel.source(8))
        assert validate_scop(scop).ok
        assert len(scop) == kernel.n

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            MatmulKernel(2, "xyz")
        with pytest.raises(ValueError):
            MatmulKernel(1, "mm")

    def test_cost_model(self):
        assert MatmulKernel(2, "mm").cost_model(16).cost_of("M1") == 16.0
        assert MatmulKernel(2, "gmm").cost_model(16).cost_of("M1") == 19.0

    def test_transposed_operand(self):
        src = MatmulKernel(2, "mmt").source(8)
        assert "B1[j][7]" in src
        plain = MatmulKernel(2, "mm").source(8)
        assert "B1[7][j]" in plain


class TestParallelismStructure:
    def test_plain_nests_fully_parallel(self):
        scop = build_scop(MatmulKernel(3, "mm").source(8))
        for nest in range(3):
            assert 0 in parallel_levels(scop, nest)

    def test_generalized_nests_sequential(self):
        scop = build_scop(MatmulKernel(3, "gmm").source(8))
        for nest in range(3):
            assert parallel_levels(scop, nest) == []

    def test_chain_pipeline_maps(self):
        scop = build_scop(MatmulKernel(3, "mm").source(8))
        info = detect_pipeline(scop)
        assert set(info.pipeline_maps) == {("M1", "M2"), ("M2", "M3")}

    def test_row_wise_anchors(self):
        scop = build_scop(MatmulKernel(2, "mm").source(6))
        pm = info = compute_pipeline_map(
            scop, scop.statement("M1"), scop.statement("M2")
        )
        rel = pipeline_relation_as_dict(pm.relation)
        # finishing row i of M1 enables all of row i of M2
        assert rel[(0, 5)] == (0, 5)
        assert rel[(3, 5)] == (3, 5)
        assert all(k[1] == 5 for k in rel)


class TestRowAnchorFidelity:
    """Anchor read A[i][last] ≡ full-row reads A[i][0..last] for analysis."""

    N = 5

    def full_row_source(self) -> str:
        last = self.N - 1
        row = ", ".join(f"C1[i][{k}]" for k in range(self.N))
        return (
            f"for(i=0; i<{self.N}; i++) for(j=0; j<{self.N}; j++) "
            f"M1: C1[i][j] = dot(A0[i][{last}], B1[{last}][j]);\n"
            f"for(i=0; i<{self.N}; i++) for(j=0; j<{self.N}; j++) "
            f"M2: C2[i][j] = dot({row}, B2[{last}][j]);"
        )

    def test_same_pipeline_map(self):
        anchor_scop = build_scop(MatmulKernel(2, "mm").source(self.N))
        full_scop = build_scop(self.full_row_source())

        pm_anchor = compute_pipeline_map(
            anchor_scop,
            anchor_scop.statement("M1"),
            anchor_scop.statement("M2"),
        )
        pm_full = compute_pipeline_map(
            full_scop, full_scop.statement("M1"), full_scop.statement("M2")
        )
        assert pipeline_relation_as_dict(
            pm_anchor.relation
        ) == pipeline_relation_as_dict(pm_full.relation)

    def test_same_blocking(self):
        anchor_scop = build_scop(MatmulKernel(2, "mm").source(self.N))
        full_scop = build_scop(self.full_row_source())
        b_anchor = detect_pipeline(anchor_scop).blockings
        b_full = detect_pipeline(full_scop).blockings
        for name in ("M1", "M2"):
            assert b_anchor[name].ends == b_full[name].ends
