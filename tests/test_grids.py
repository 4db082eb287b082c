import math

import numpy as np
import pytest

from fracwell import (
    GridError, GridField, build_grid, discrete_norm, inner,
    sample_field,
)


class TestBuildGrid:
    def test_cell_centers_four_nodes(self):
        g = build_grid(1.0, 4)
        assert np.allclose(g.coords.ravel(), [0.125, 0.375, 0.625, 0.875])
        assert g.h == pytest.approx(0.25)

    def test_cell_centers_two_nodes(self, grid2):
        assert np.allclose(grid2.coords.ravel(), [0.25, 0.75])
        assert grid2.h == pytest.approx(0.5)

    def test_two_dimensional(self):
        g = build_grid([1.0, 1.0], [3, 3])
        assert g.node_count == 9
        assert g.h == pytest.approx(1.0 / 3.0)
        assert g.cell_measure == pytest.approx(1.0 / 9.0)

    def test_exact_tiling(self):
        g = build_grid([2.0, 1.0], [10, 5])
        for ext, cnt in zip(g.extents, g.counts):
            assert cnt * g.h == pytest.approx(ext, abs=0.0)

    def test_nonuniform_spacing_rejected(self):
        with pytest.raises(GridError, match="non-uniform"):
            build_grid([1.0, 1.0], [4, 5])

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GridError):
            build_grid(1.0, 1)

    def test_bad_extent_rejected(self):
        with pytest.raises(GridError):
            build_grid(-1.0, 4)

    @pytest.mark.parametrize("extents, counts, key", [
        (math.nan, 8, "'extents'"), (math.inf, 8, "'extents'"),
        (1.0, 8.7, "'counts'"), (1.0, 8.0, "'counts'"), (1.0, True, "'counts'"),
    ])
    def test_extents_finite_and_counts_integers(self, extents, counts, key):
        # a NaN or inf extent gave NaN coordinates, and 8.7 ran as 8 nodes
        with pytest.raises(GridError, match=key):
            build_grid(extents, counts)
        counts = build_grid(1.0, np.int64(8)).counts
        assert counts == (8,) and type(counts[0]) is int


class TestSampleField:
    def test_constant_zero_amplitude(self, grid2):
        f = sample_field(grid2, "constant", 0.0)
        assert np.all(f.values == 0.0)

    def test_sine_values(self):
        g = build_grid(1.0, 8)
        f = sample_field(g, "sine", 1.0)
        assert np.allclose(f.values, np.sin(np.pi * g.coords.ravel()))

    def test_bump_amplitude_linearity(self):
        g = build_grid(1.0, 16)
        lam = 2.7
        assert np.allclose(sample_field(g, "bump", lam).values,
                           lam * sample_field(g, "bump", 1.0).values)

    def test_bump_vanishes_at_edges(self):
        g = build_grid(1.0, 64)
        vals = sample_field(g, "bump", 1.0).values
        assert vals[0] < 1e-6 and vals[-1] < 1e-6
        assert vals.max() == pytest.approx(1.0, rel=1e-2)

    def test_indicator_subbox(self):
        g = build_grid(1.0, 8)
        vals = sample_field(g, "indicator", 1.0).values
        x = g.coords.ravel()
        assert np.array_equal(vals, ((x >= 0.25) & (x < 0.75)).astype(float))

    def test_unknown_preset(self, grid2):
        with pytest.raises(GridError, match="unknown preset"):
            sample_field(grid2, "gaussian", 1.0)


class TestNorms:
    def test_zero_field(self, grid2):
        z = GridField(grid2, np.zeros(2))
        for r in (1.0, 2.0, 3.5, math.inf):
            assert discrete_norm(z, r) == 0.0

    def test_unit_constant_exact(self):
        g = build_grid(1.0, 7)
        one = sample_field(g, "constant", 1.0)
        assert discrete_norm(one, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_two_node_value(self, grid2):
        u = GridField(grid2, np.array([1.0, 0.0]))
        assert discrete_norm(u, 2.0) == pytest.approx(math.sqrt(0.5))

    def test_max_norm(self, grid2):
        u = GridField(grid2, np.array([-3.0, 2.0]))
        assert discrete_norm(u, math.inf) == 3.0

    def test_exponent_below_one_rejected(self, grid2):
        with pytest.raises(GridError, match="r >= 1"):
            discrete_norm(GridField(grid2, np.ones(2)), 0.5)

    def test_homogeneity(self, grid32):
        rng = np.random.default_rng(5)
        u = GridField(grid32, rng.normal(size=32))
        for r in (1.0, 2.0, 3.3):
            n = discrete_norm(u, r)
            assert discrete_norm(u.scaled(-2.5), r) == pytest.approx(2.5 * n, rel=1e-14)

    def test_interpolation_inequality(self, grid32):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = GridField(grid32, rng.normal(size=32))
            p0 = rng.uniform(1.1, 4.0)
            p1 = p0 + rng.uniform(0.5, 4.0)
            mu = rng.uniform(0.05, 0.95)
            pmu = 1.0 / ((1.0 - mu) / p0 + mu / p1)
            bound = discrete_norm(u, p0) ** (1 - mu) * discrete_norm(u, p1) ** mu
            assert discrete_norm(u, pmu) <= bound * (1 + 1e-12)


class TestInner:
    def test_with_zero(self, grid2):
        u = GridField(grid2, np.array([1.0, 2.0]))
        assert inner(u, GridField(grid2, np.zeros(2))) == 0.0

    def test_ones_exact(self):
        g = build_grid(1.0, 5)
        one = sample_field(g, "constant", 1.0)
        assert inner(one, one) == pytest.approx(1.0, abs=1e-15)

    def test_disjoint_supports(self, grid2):
        u = GridField(grid2, np.array([1.0, 0.0]))
        w = GridField(grid2, np.array([0.0, 1.0]))
        assert inner(u, w) == 0.0

    def test_symmetric_bilinear_positive(self, grid32):
        rng = np.random.default_rng(3)
        u = GridField(grid32, rng.normal(size=32))
        w = GridField(grid32, rng.normal(size=32))
        assert inner(u, w) == pytest.approx(inner(w, u), rel=1e-15)
        assert inner(u, u) == pytest.approx(discrete_norm(u, 2.0) ** 2, rel=1e-13)
        assert inner(u, u) > 0.0
        z = GridField(grid32, np.zeros(32))
        assert inner(z, z) == 0.0

    def test_domain_mismatch(self, grid2, grid32):
        u = GridField(grid2, np.ones(2))
        w = GridField(grid32, np.ones(32))
        with pytest.raises(GridError, match="shared domain"):
            inner(u, w)


def test_field_value_count_checked(grid2):
    with pytest.raises(GridError, match="node count"):
        GridField(grid2, np.ones(3))


def test_field_values_immutable(grid2):
    u = GridField(grid2, np.ones(2))
    with pytest.raises(ValueError):
        u.values[0] = 5.0
