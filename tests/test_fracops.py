import numpy as np
import pytest

from fracwell import (
    GridField, apply_operator, bilinear_form, bracket, build_grid,
    gagliardo_sum, inner, operator_and_bracket, sample_field,
)
from fracwell.fracops import apply_operator_naive, gagliardo_sum_naive, weight_table
from fracwell.grids import GridError

# 2-cell grid on (0,1): nodes {0.25, 0.75}, distance 0.5, h = 0.5.
# With p=2, s=0.5, N=1 the kernel exponent is N+sp = 2, so the pair weight is
# 1/0.25 = 4 and all values below are single-pair hand computations.


@pytest.fixture
def step(grid2):
    return GridField(grid2, np.array([1.0, 0.0]))


class TestHandValues:
    def test_gagliardo_two_nodes(self, step):
        assert gagliardo_sum(step, 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_bracket_two_nodes(self, step):
        assert bracket(step, 2.0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_bilinear_cross(self, grid2, step):
        w = GridField(grid2, np.array([0.0, 1.0]))
        assert bilinear_form(step, w, 2.0, 0.5) == pytest.approx(-2.0, rel=1e-15)

    def test_operator_values_and_duality(self, step):
        Lu = apply_operator(step, 2.0, 0.5)
        assert np.allclose(Lu.values, [4.0, -4.0])
        assert inner(Lu, step) == pytest.approx(gagliardo_sum(step, 2.0, 0.5), rel=1e-15)


class TestDegenerateInputs:
    def test_zero_field(self, grid2):
        z = GridField(grid2, np.zeros(2))
        assert gagliardo_sum(z, 3.0, 0.5) == 0.0
        assert np.all(apply_operator(z, 3.0, 0.5).values == 0.0)

    def test_constant_field(self):
        g = build_grid(1.0, 9)
        c = sample_field(g, "constant", 4.2)
        assert gagliardo_sum(c, 2.5, 0.4) == 0.0

    def test_bilinear_with_constant_direction(self, grid32):
        rng = np.random.default_rng(0)
        u = GridField(grid32, rng.normal(size=32))
        c = sample_field(grid32, "constant", 3.0)
        assert bilinear_form(u, c, 3.0, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_exponent_preconditions(self, step):
        with pytest.raises(ValueError, match="p > 1"):
            gagliardo_sum(step, 1.0, 0.5)
        with pytest.raises(ValueError, match="fractional order"):
            gagliardo_sum(step, 2.0, 1.5)

    def test_domain_mismatch(self, grid2, grid32):
        u = GridField(grid2, np.ones(2))
        w = GridField(grid32, np.ones(32))
        with pytest.raises(GridError):
            bilinear_form(u, w, 2.0, 0.5)


@pytest.mark.parametrize("p", [2.0, 3.0, 3.5])
@pytest.mark.parametrize("make_grid", [lambda: build_grid(1.0, 24),
                                       lambda: build_grid([1.0, 1.0], [6, 6])])
class TestIdentities:
    def test_duality(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 10))
        u = GridField(grid, rng.normal(size=grid.node_count))
        w = GridField(grid, rng.normal(size=grid.node_count))
        bf = bilinear_form(u, w, p, 0.5)
        assert abs(inner(apply_operator(u, p, 0.5), w) - bf) <= 1e-12 * (1 + abs(bf))

    def test_form_diagonal_is_seminorm_sum(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 7))
        u = GridField(grid, rng.normal(size=grid.node_count))
        gag = gagliardo_sum(u, p, 0.5)
        assert bilinear_form(u, u, p, 0.5) == pytest.approx(gag, rel=1e-13)

    def test_bracket_gradient_vs_finite_differences(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 3))
        u = GridField(grid, rng.normal(size=grid.node_count))
        Lu = apply_operator(u, p, 0.5)
        hN = grid.cell_measure
        for idx in rng.choice(grid.node_count, size=4, replace=False):
            d = 1e-6 * (1.0 + abs(u.values[idx]))
            up, um = u.values.copy(), u.values.copy()
            up[idx] += d
            um[idx] -= d
            fd = (bracket(GridField(grid, up), p, 0.5)
                  - bracket(GridField(grid, um), p, 0.5)) / (2 * d)
            assert fd == pytest.approx(hN * Lu.values[idx], rel=1e-5)

    def test_scaling(self, p, make_grid):
        grid = make_grid()
        rng = np.random.default_rng(int(p * 5))
        u = GridField(grid, rng.normal(size=grid.node_count))
        gag = gagliardo_sum(u, p, 0.5)
        eps = 0.731
        assert gagliardo_sum(u.scaled(eps), p, 0.5) == pytest.approx(
            eps ** p * gag, rel=1e-13)


def test_p2_linearity(grid32):
    rng = np.random.default_rng(8)
    u = GridField(grid32, rng.normal(size=32))
    w = GridField(grid32, rng.normal(size=32))
    a, b = 1.7, -0.4
    combo = GridField(grid32, a * u.values + b * w.values)
    expected = a * apply_operator(u, 2.0, 0.5).values + b * apply_operator(w, 2.0, 0.5).values
    assert np.allclose(apply_operator(combo, 2.0, 0.5).values, expected, rtol=1e-12)


def test_vectorized_matches_naive_loops():
    for grid in (build_grid(1.0, 16), build_grid([1.0, 1.0], [4, 4])):
        rng = np.random.default_rng(13)
        u = GridField(grid, rng.normal(size=grid.node_count))
        for p in (2.0, 3.0):
            fast = gagliardo_sum(u, p, 0.5)
            slow = gagliardo_sum_naive(u, p, 0.5)
            assert fast == pytest.approx(slow, rel=1e-12)
            assert np.allclose(apply_operator(u, p, 0.5).values,
                               apply_operator_naive(u, p, 0.5).values, rtol=1e-12)


def test_translation_invariance():
    # the kernel depends on node distances only; the shifted coordinates round
    # to doubles, so agreement holds to the cancellation level, not exactly
    base = build_grid(1.0, 20)
    shifted = build_grid(1.0, 20, origins=7.5)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=20)
    for p in (2.0, 3.5):
        assert gagliardo_sum(GridField(base, vals), p, 0.5) == pytest.approx(
            gagliardo_sum(GridField(shifted, vals), p, 0.5), rel=1e-12)
        assert np.allclose(apply_operator(GridField(base, vals), p, 0.5).values,
                           apply_operator(GridField(shifted, vals), p, 0.5).values,
                           rtol=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 3.5])
@pytest.mark.parametrize("grid", [build_grid(1.0, 20), build_grid([1.0, 1.0], [5, 5])],
                         ids=["1d", "2d"])
class TestFusedPass:
    @staticmethod
    def field(grid, p):
        # rounded values repeat, so the difference table holds d = 0 pairs
        # off the diagonal (the 1 < p < 2 power |d|^(p-1) is then 0^(p-1))
        rng = np.random.default_rng(int(p * 11))
        vals = np.round(rng.normal(size=grid.node_count), 1)
        assert len(np.unique(vals)) < grid.node_count
        return GridField(grid, vals)

    def test_equals_separate_passes_exactly(self, p, grid):
        u = self.field(grid, p)
        Lu, A = operator_and_bracket(u, p, 0.4)
        assert Lu.domain == grid
        assert np.array_equal(Lu.values, apply_operator(u, p, 0.4).values)
        assert A == bracket(u, p, 0.4) == gagliardo_sum(u, p, 0.4) / p

    def test_equals_out_of_place_expressions_exactly(self, p, grid):
        # the in-place buffers must reproduce the plain numpy expressions
        # bit for bit, or the integrator's step sequence changes
        u = self.field(grid, p)
        W = weight_table(grid, p, 0.4)
        du = u.values[:, None] - u.values[None, :]
        h = grid.cell_measure
        Lu, A = operator_and_bracket(u, p, 0.4)
        assert A == float(np.sum(np.abs(du) ** p * W) * h ** 2) / p
        assert np.array_equal(
            Lu.values, 2.0 * h * np.sum(np.sign(du) * np.abs(du) ** (p - 1.0) * W, axis=1))

    def test_matches_naive_loops(self, p, grid):
        u = self.field(grid, p)
        Lu, A = operator_and_bracket(u, p, 0.4)
        assert A * p == pytest.approx(gagliardo_sum_naive(u, p, 0.4), rel=1e-12)
        slow = apply_operator_naive(u, p, 0.4).values
        assert np.all(np.abs(Lu.values - slow) <= 1e-12 * (1.0 + np.abs(slow)))
