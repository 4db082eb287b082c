import math
from pathlib import Path

import numpy as np
import pytest

from fracwell import (
    BracketingError, ExperimentConfig, FiberingRay, GridField, KirchhoffFn,
    blowup_time_bound, build_grid, classify_initial_data,
    estimate_embedding_constant, estimate_well_depth, gagliardo_sum,
    log_coupling_bound_gap, sample_field, validate_params, well_lower_bound,
)
from fracwell import variational
from fracwell.fracops import bracket
from fracwell.grids import GridError
from fracwell.params import ParamError
from fracwell.variational import embedding_bound_constant

from conftest import random_pair

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def ops_params():
    return validate_params(N=1, s=0.5, p=2.0, q=2.0, sigma=4.0, beta=0.0,
                           mode="operations")


class TestCouplingIntegrals:
    # the coupling integrals of a pair are sums of its fibering ray
    @staticmethod
    def log_coupling(u, v, params):
        K = KirchhoffFn.constant(1.0)
        return FiberingRay.from_pair(u, v, params, K, K).log_coupling

    def test_zero_factor_kills_integral(self, grid2, ops_params):
        u = GridField(grid2, np.array([1.0, 2.0]))
        z = GridField(grid2, np.zeros(2))
        assert self.log_coupling(u, z, ops_params) == 0.0
        assert self.log_coupling(z, u, ops_params) == 0.0

    def test_constant_fields_exact(self, ops_params):
        g = build_grid(1.0, 6)
        ue = sample_field(g, "constant", math.e)
        v1 = sample_field(g, "constant", 1.0)
        assert self.log_coupling(ue, v1, ops_params) == pytest.approx(math.e ** 4, rel=1e-14)

    def test_log_one_vanishes(self, ops_params):
        g = build_grid(1.0, 6)
        one = sample_field(g, "constant", 1.0)
        assert self.log_coupling(one, one, ops_params) == 0.0


class TestEnergyReport:
    # the energy and Nehari values of a state are its fibering ray at eps = 1
    def test_zero_pair(self, grid2, ops_params, unit_kirchhoff):
        z = GridField(grid2, np.zeros(2))
        ray = FiberingRay.from_pair(z, z, ops_params, unit_kirchhoff, unit_kirchhoff)
        assert ray.phi(1.0) == 0.0
        assert ray.psi_consistent(1.0) == 0.0 and ray.psi_printed(1.0) == 0.0

    def test_two_node_worked_example(self, grid2, ops_params, unit_kirchhoff):
        u = GridField(grid2, np.array([1.0, 0.0]))
        ray = FiberingRay.from_pair(u, u, ops_params, unit_kirchhoff, unit_kirchhoff)
        assert ray.bracket_u == pytest.approx(1.0)
        assert ray.bracket_v == pytest.approx(1.0)
        assert ray.coupling_mass == pytest.approx(0.5)
        assert ray.log_coupling == 0.0
        assert ray.phi(1.0) == pytest.approx(1.03125)
        assert ray.psi_consistent(1.0) == pytest.approx(2.0)
        assert ray.psi_printed(1.0) == pytest.approx(4.0)

    def test_bracket_scaling_law(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 21)
        rep1 = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        eps = 1.37
        rep2 = FiberingRay.from_pair(u.scaled(eps), v.scaled(eps), flagship_params,
                                     unit_kirchhoff, unit_kirchhoff)
        assert rep2.bracket_u == pytest.approx(eps ** 3.0 * rep1.bracket_u, rel=1e-12)
        assert rep2.bracket_v == pytest.approx(eps ** 3.5 * rep1.bracket_v, rel=1e-12)
        assert rep2.coupling_mass == pytest.approx(eps ** 8 * rep1.coupling_mass, rel=1e-12)

    def test_psi_selector(self, grid2, ops_params, unit_kirchhoff):
        u = GridField(grid2, np.array([1.0, 0.0]))
        ray = FiberingRay.from_pair(u, u, ops_params, unit_kirchhoff, unit_kirchhoff)
        assert ray.psi(1.0, "consistent") == pytest.approx(2.0)
        assert ray.psi(1.0, "printed") == pytest.approx(4.0)
        with pytest.raises(ValueError, match="variant"):
            ray.psi(1.0, "both")


class TestBatchedRay:
    @pytest.mark.parametrize("K", [
        KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25),
        KirchhoffFn.log1p(beta=1.0),
        KirchhoffFn.from_table([0.1, 0.5, 2.0, 10.0], [1.0, 1.2, 2.0, 3.0], beta=0.5),
    ], ids=["affine_power", "log1p", "table"])
    def test_stack_at_ones_equals_energy_reports_bitwise(self, grid32, flagship_params, K):
        # a trace evaluates its rows as one stacked ray at eps = 1; each row
        # must be the pair's own ray at the scalar eps = 1 to the last bit
        pairs = [tuple(w.scaled(a) for w in random_pair(grid32, 60 + k))
                 for k, a in enumerate(np.geomspace(0.05, 15.0, 48))]
        lone = [FiberingRay.from_pair(u, v, flagship_params, K, K) for u, v in pairs]
        U, V = (np.array([w.values for w in side]) for side in zip(*pairs))
        rays = FiberingRay.of_rows([(U, V)], grid32, flagship_params, K, K)
        ones = np.ones(len(pairs))
        for name in ("phi", "psi_consistent", "psi_printed"):
            want = np.array([getattr(ray, name)(1.0) for ray in lone])
            assert getattr(rays, name)(ones).tobytes() == want.tobytes(), name


class TestFibering:
    def test_ray_matches_direct_evaluation(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 31)
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        for eps in (0.3, 1.0, 2.4):
            direct = FiberingRay.from_pair(u.scaled(eps), v.scaled(eps), flagship_params,
                                           unit_kirchhoff, unit_kirchhoff)
            assert ray.phi(eps) == pytest.approx(direct.phi(1.0), rel=1e-12, abs=1e-14)
            assert ray.psi_consistent(eps) == pytest.approx(direct.psi_consistent(1.0),
                                                            rel=1e-12)
            assert ray.psi_printed(eps) == pytest.approx(direct.psi_printed(1.0), rel=1e-12)

    def test_ray_sums_from_one_pair_pass_and_one_masked_log(
            self, grid32, flagship_params, unit_kirchhoff, monkeypatch):
        u, v = random_pair(grid32, 37)
        prm = flagship_params
        sig = prm.sigma
        au, av = np.abs(u.values), np.abs(v.values)
        mask = au * av > 0.0
        lg = np.log(au[mask] * av[mask])
        hN = grid32.cell_measure
        c = au ** sig * av ** sig
        expected = dict(
            bracket_u=bracket(u, prm.p, prm.s), bracket_v=bracket(v, prm.q, prm.s),
            coupling_mass=float(np.sum(c) * hN), log_coupling=float(np.sum(c[mask] * lg) * hN),
            coupling_high=float(np.sum((au * av) ** (sig + 1.0)) * hN),
            log_coupling_high=float(np.sum((au[mask] * av[mask]) ** (sig + 1.0) * lg) * hN))
        calls = []
        for module, name in ((variational, "_masked_log_product"), (variational, "_dense_pass")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        ray = FiberingRay.from_pair(u, v, prm, unit_kirchhoff, unit_kirchhoff)
        assert sorted(calls) == ["_dense_pass", "_dense_pass", "_masked_log_product"]
        for name, value in expected.items():
            assert np.float64(getattr(ray, name)).tobytes() == np.float64(value).tobytes(), name

    def test_ray_sums_need_a_shared_domain(self, grid32, flagship_params, unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        v = sample_field(build_grid(1.0, 16), "sine", 1.0)
        with pytest.raises(GridError, match="shared domain"):
            FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)

    def test_scan_limits_and_sign_pattern(self, grid32, flagship_params, unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        v = sample_field(grid32, "bump", 1.0)
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        # energy vanishes at the small end of the ray
        tiny = ray.scan([1e-6])
        assert abs(tiny["phi"][0]) < 1e-8
        # energy is negative and decreasing at the large end
        big = ray.scan([30.0, 60.0])
        assert big["phi"][0] < 0.0 and big["phi"][1] < big["phi"][0]
        # single sign change of psi along a dense scan
        eps = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 600))
        signs = np.sign(ray.psi_consistent(eps))
        assert np.sum(np.abs(np.diff(signs)) > 0) == 1

    @pytest.mark.parametrize("K", [
        KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25),
        KirchhoffFn.log1p(beta=1.0),
        KirchhoffFn.from_table([0.1, 0.5, 2.0, 10.0], [1.0, 1.2, 2.0, 3.0], beta=0.5),
    ], ids=["affine_power", "log1p", "table"])
    def test_scan_equals_scalar_evaluations_bitwise(self, grid32, flagship_params, K):
        # the scan evaluates each functional once on the whole eps array; every
        # entry must be the scalar evaluation at that eps to the last bit
        u, v = random_pair(grid32, 91)
        ray = FiberingRay.from_pair(u, v, flagship_params, K, K)
        eps = np.sort(np.append(np.geomspace(1e-4, 1e4, 120), 1.0))
        cols = ray.scan(eps)
        assert cols["eps"].tobytes() == eps.tobytes()
        for name in ("phi", "psi_consistent", "psi_printed"):
            want = np.array([getattr(ray, name)(float(e)) for e in eps])
            assert cols[name].tobytes() == want.tobytes(), name

    def test_scan_input_validation(self, grid32, flagship_params, unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        ray = FiberingRay.from_pair(u, u, flagship_params, unit_kirchhoff, unit_kirchhoff)
        with pytest.raises(ValueError, match="empty"):
            ray.scan([])
        with pytest.raises(ValueError, match="positive"):
            ray.scan([-1.0, 1.0])

    @pytest.mark.parametrize("eps", [
        [math.nan], [0.5, math.nan, 2.0], [1.0, math.inf], [math.inf], [-math.inf, 1.0],
        [0.0, 1.0], [2.0, 1.0], [1.0, 1.0],
    ], ids=["nan", "inner-nan", "inf", "only-inf", "minus-inf", "zero", "decreasing", "repeated"])
    def test_scan_grid_must_be_finite_positive_increasing(self, grid32, flagship_params,
                                                          unit_kirchhoff, eps):
        u = sample_field(grid32, "sine", 1.0)
        ray = FiberingRay.from_pair(u, u, flagship_params, unit_kirchhoff, unit_kirchhoff)
        with pytest.raises(ValueError, match="finite, positive and strictly increasing"):
            ray.scan(eps)

    def test_epsilon_star_contract(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 77)
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        star = ray.epsilon_star()
        assert abs(star.residual) <= 1e-8 * (star.residual_scale + 1e-300)
        assert ray.psi_consistent(star.value / 2) > 0
        assert ray.psi_consistent(star.value * 2) < 0

    def test_epsilon_star_matches_dense_scan_oracle(self, grid32, flagship_params,
                                                    unit_kirchhoff):
        # independent oracle: locate the sign crossing on a dense geometric scan
        u, v = random_pair(grid32, 55)
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        eps = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 10_000))
        psis = ray.psi_consistent(eps)
        crossings = np.flatnonzero(np.sign(psis[:-1]) > np.sign(psis[1:]))
        assert len(crossings) == 1
        star = ray.epsilon_star()
        assert eps[crossings[0]] <= star.value <= eps[crossings[0] + 1]

    def test_disjoint_supports_fail_bracketing(self, flagship_params, unit_kirchhoff):
        g = build_grid(1.0, 16)
        left = g.coords[:, 0] < 0.5
        u, v = GridField(g, left.astype(float)), GridField(g, (~left).astype(float))
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert ray.coupling_mass == 0.0
        with pytest.raises(BracketingError, match="not bracketed"):
            ray.epsilon_star()

    def test_zero_pair_fails(self, grid2, flagship_params, unit_kirchhoff):
        z = GridField(grid2, np.zeros(2))
        with pytest.raises(BracketingError):
            FiberingRay.from_pair(z, z, flagship_params, unit_kirchhoff,
                                  unit_kirchhoff).epsilon_star()

    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    def test_all_zero_ray_has_no_isolated_root(self, grid32, flagship_params,
                                               unit_kirchhoff, variant):
        # psi vanishes for every eps when all six sums do: no root is isolated
        zero = sample_field(grid32, "constant", 0.0)
        one = sample_field(grid32, "constant", 1.0)
        for u, v in ((zero, zero), (zero, one), (one, zero)):
            ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
            assert ray.psi(1.0, variant) == 0.0 and ray.psi(2.0, variant) == 0.0
            with pytest.raises(BracketingError, match="vanishes on the whole ray"):
                ray.epsilon_star(variant)
        # the constant pair has a nonzero coupling: psi_c(1) = 0 is its own root
        star = FiberingRay.from_pair(one, one, flagship_params, unit_kirchhoff,
                                     unit_kirchhoff).epsilon_star()
        assert star.value == 1.0 and star.iterations == 0

    def test_fibering_derivative_identity(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 5)
        for eps in (0.5, 1.0, 2.0):
            d = 1e-6 * eps
            lo, mid, hi = (FiberingRay.from_pair(u.scaled(e), v.scaled(e), flagship_params,
                                                 unit_kirchhoff, unit_kirchhoff)
                           for e in (eps - d, eps, eps + d))
            fd = (hi.phi(1.0) - lo.phi(1.0)) / (2 * d)
            psi = mid.psi(1.0, "consistent")
            assert fd == pytest.approx(psi / eps, rel=1e-5)


class TestWellDepth:
    def test_positive_and_monotone_in_samples(self, grid32, flagship_params, unit_kirchhoff):
        few = estimate_well_depth(grid32, flagship_params, unit_kirchhoff, unit_kirchhoff,
                                  directions=20, seed=4)
        many = estimate_well_depth(grid32, flagship_params, unit_kirchhoff, unit_kirchhoff,
                                   directions=60, seed=4)
        assert few.d > 0 and many.d > 0
        assert all(s.phi_at_star > 0 for s in few.samples)
        # running minimum: the first 20 sampled directions coincide
        assert many.d <= few.d

    def test_refinement_never_increases(self, grid32, flagship_params, unit_kirchhoff):
        base = estimate_well_depth(grid32, flagship_params, unit_kirchhoff, unit_kirchhoff,
                                   directions=15, seed=6)
        refined = estimate_well_depth(grid32, flagship_params, unit_kirchhoff,
                                      unit_kirchhoff, directions=15, seed=6,
                                      refine_iters=60)
        assert refined.d <= base.d

    def test_requires_admissible_params(self, grid32, ops_params, unit_kirchhoff):
        with pytest.raises(ParamError, match="well-regime"):
            estimate_well_depth(grid32, ops_params, unit_kirchhoff, unit_kirchhoff,
                                directions=5, seed=0)

    def test_constant_pair_on_nehari_set_below_sampled_depth(self):
        # the bracket sums over box x box, so a constant field has zero
        # seminorm: u = v = 1 lies on the Nehari set with phi = |U|/sigma^2,
        # about 15x below the depth sampled over edge-vanishing directions
        cfg = ExperimentConfig.load(CONFIGS / "decay.json")
        params, grid = cfg.build_params(), cfg.build_grid()
        Kp, Kq = cfg.build_kirchhoff()
        one = sample_field(grid, "constant", 1.0)
        ray = FiberingRay.from_pair(one, one, params, Kp, Kq)
        assert ray.psi_consistent(1.0) == 0.0
        star = ray.epsilon_star()
        assert star.value == 1.0 and star.iterations == 0
        phi = ray.phi(1.0)
        assert phi == grid.box_measure / params.sigma ** 2 == 0.0625
        wd = cfg.well_depth
        d = estimate_well_depth(grid, params, Kp, Kq, directions=wd["directions"],
                                seed=cfg.seed, modes=wd["modes"]).d
        assert d == pytest.approx(0.934, abs=5e-4)
        assert 14.0 < d / phi < 16.0


class TestThresholds:
    def test_d_star_exact_fraction(self, flagship_params, unit_kirchhoff):
        g = build_grid(1.0, 8)
        z = GridField(g, np.zeros(8))
        ray = FiberingRay.from_pair(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff)
        cls = classify_initial_data(z, z, ray, 1.0)
        assert cls.d_star == pytest.approx(3.0 / 7.0)

    def test_d_star_equals_zero_when_d_equals_coupling(self, grid32, flagship_params,
                                                        unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        K = unit_kirchhoff
        ray = FiberingRay.from_pair(u, u, flagship_params, K, K)
        C = ray.coupling_mass / 4.0
        cls = classify_initial_data(u, u, ray, C)
        assert cls.d_star == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("name", ["blowup", "decay", "kirchhoff_decay"])
    def test_d_star_from_the_pair_ray_bitwise(self, name):
        cfg = ExperimentConfig.load(CONFIGS / f"{name}.json")
        params, grid = cfg.build_params(), cfg.build_grid()
        Kp, Kq = cfg.build_kirchhoff()
        u0, v0 = cfg.build_initial_pair(grid)
        p, q, sig, beta = params.p, params.q, params.sigma, params.beta
        ratio = (1.0 / (q * (beta + 1.0)) - 1.0 / sig) / (1.0 / p - 1.0 / sig)
        ray = FiberingRay.from_pair(u0, v0, params, Kp, Kq)
        for d in (0.934, 2.5):
            cls = classify_initial_data(u0, v0, ray, d)
            want = (d - ray.coupling_mass / sig) * ratio
            assert np.float64(cls.d_star).tobytes() == np.float64(want).tobytes()
            assert cls.d == d

    def test_well_depth_must_be_positive(self, grid32, flagship_params, unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        for d in (0.0, -1.0):
            with pytest.raises(ValueError, match="must be positive"):
                classify_initial_data(u, u, FiberingRay.from_pair(
                    u, u, flagship_params, unit_kirchhoff, unit_kirchhoff), d)

    def test_bound_worked_example(self):
        g = build_grid(1.0, 4)
        u = GridField(g, np.full(4, math.sqrt(0.5)))
        # combined squared mass 1, sigma 4, gap 0.5
        assert blowup_time_bound(u, u, 0.0, 0.5, 4.0) == pytest.approx(1.5)

    def test_bound_inapplicable_when_gap_closed(self, grid2):
        u = GridField(grid2, np.ones(2))
        assert math.isinf(blowup_time_bound(u, u, 1.0, 0.5, 4.0))

    def test_bound_scales_linearly_in_mass(self, grid32):
        u = sample_field(grid32, "sine", 1.0)
        b1 = blowup_time_bound(u, u, 0.0, 0.5, 4.0)
        b2 = blowup_time_bound(u.scaled(2.0), u.scaled(2.0), 0.0, 0.5, 4.0)
        assert b2 == pytest.approx(4.0 * b1, rel=1e-12)

    def test_bound_requires_sigma_above_two(self, grid2):
        u = GridField(grid2, np.ones(2))
        with pytest.raises(ParamError, match="sigma > 2"):
            blowup_time_bound(u, u, 0.0, 0.5, 2.0)


@pytest.fixture(scope="module")
def well(grid48, flagship_params, unit_kirchhoff):
    return estimate_well_depth(grid48, flagship_params, unit_kirchhoff,
                               unit_kirchhoff, directions=60, seed=1)


class TestClassification:
    def _classify(self, amp, grid, params, K, d):
        u = sample_field(grid, "sine", amp)
        return classify_initial_data(u, u, FiberingRay.from_pair(u, u, params, K, K), d)

    def test_small_amplitude_decays(self, grid48, flagship_params, unit_kirchhoff, well):
        cls = self._classify(0.4, grid48, flagship_params, unit_kirchhoff, well.d)
        assert cls.verdict == "GlobalDecay"
        assert cls.psi0 > 0 and math.isinf(cls.t_max_bound)
        assert cls.predicted_decay == "polynomial"
        assert cls.decay_exponent == pytest.approx(7.0 / 3.0)

    def test_large_amplitude_blows_up(self, grid48, flagship_params, unit_kirchhoff, well):
        cls = self._classify(2.5, grid48, flagship_params, unit_kirchhoff, well.d)
        assert cls.verdict == "BlowUp"
        assert cls.psi0 < 0 and cls.phi0 < cls.d_star
        assert 0 < cls.t_max_bound < math.inf

    def test_intermediate_amplitude_indeterminate(self, grid48, flagship_params,
                                                  unit_kirchhoff, well):
        # psi0 < 0 but phi0 above the threshold: hypotheses not met
        cls = self._classify(1.5, grid48, flagship_params, unit_kirchhoff, well.d)
        assert cls.verdict == "Indeterminate"
        assert cls.phi0 >= cls.d_star

    def test_origin_excluded(self, grid48, flagship_params, unit_kirchhoff):
        z = GridField(grid48, np.zeros(48))
        ray = FiberingRay.from_pair(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff)
        cls = classify_initial_data(z, z, ray, d=0.4)
        assert cls.verdict == "Indeterminate"
        assert "origin" in cls.note

    def test_amplitude_sweep_single_sign_change(self, grid48, flagship_params,
                                                unit_kirchhoff):
        u = sample_field(grid48, "sine", 1.0)
        amps = np.geomspace(0.05, 20.0, 60)
        psis = np.array([
            FiberingRay.from_pair(u.scaled(a), u.scaled(a), flagship_params, unit_kirchhoff,
                                  unit_kirchhoff).psi_consistent(1.0)
            for a in amps
        ])
        signs = np.sign(psis)
        assert np.sum(np.abs(np.diff(signs)) > 0) == 1


@pytest.fixture(scope="module")
def params2d():
    return validate_params(N=2, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0,
                           mode="operations")


@pytest.fixture(scope="module")
def grid2d():
    return build_grid([1.0, 1.0], [8, 8])


class TestEmbeddingAndLogBound:
    def test_constant_positive_and_scale_invariant(self, grid2d):
        c = estimate_embedding_constant(grid2d, 3.0, 0.5, 4.0, samples=16, seed=0)
        assert c > 0
        # the defining ratio is invariant under field scaling
        u = sample_field(grid2d, "sine", 1.0)
        from fracwell import discrete_norm
        r1 = discrete_norm(u, 4.0) / gagliardo_sum(u, 3.0, 0.5) ** (1 / 3.0)
        u2 = u.scaled(17.0)
        r2 = discrete_norm(u2, 4.0) / gagliardo_sum(u2, 3.0, 0.5) ** (1 / 3.0)
        assert r1 == pytest.approx(r2, rel=1e-12)
        # a max over a candidate set dominates any single member
        assert c >= r1 * (1 - 1e-12)

    def test_log_bound_holds_on_smooth_pairs(self, grid2d, params2d):
        S = embedding_bound_constant(grid2d, params2d, seed=3, samples=16)
        for seed in range(8):
            u, v = random_pair(grid2d, 100 + seed, modes=3)
            gap = log_coupling_bound_gap(u, v, params2d, S)
            assert gap.note == ""
            assert gap.lhs <= gap.rhs + 1e-10 * (abs(gap.rhs) + 1.0)

    def test_symmetric_pair_reduces_to_single_field(self, grid2d, params2d):
        u, _ = random_pair(grid2d, 9, modes=3)
        gap = log_coupling_bound_gap(u, u, params2d, S=1.0)
        K = KirchhoffFn.constant(1.0)
        direct = FiberingRay.from_pair(u, u, params2d, K, K).log_coupling
        assert gap.lhs == pytest.approx(direct, rel=1e-12)

    def test_infinite_critical_exponent_noted(self, grid32, flagship_params):
        u, v = random_pair(grid32, 2)
        gap = log_coupling_bound_gap(u, v, flagship_params, S=1.0)
        assert "critical exponent infinite" in gap.note

    def test_pair_needs_a_shared_domain(self, grid2d, params2d):
        u = sample_field(grid2d, "sine", 1.0)
        v = sample_field(build_grid([1.0, 1.0], [6, 6]), "sine", 1.0)
        with pytest.raises(GridError, match="shared domain"):
            log_coupling_bound_gap(u, v, params2d, S=1.0)

    def test_zero_seminorm_rejected(self, grid2d, params2d):
        c = sample_field(grid2d, "constant", 1.0)
        with pytest.raises(ValueError, match="seminorm"):
            log_coupling_bound_gap(c, c, params2d, S=1.0)


class TestWellLowerBound:
    def test_holds_on_random_pairs(self, grid32, flagship_params, unit_kirchhoff):
        exhibits = 0
        for seed in range(30):
            u, v = random_pair(grid32, 200 + seed)
            wb = well_lower_bound(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
            assert wb.holds
            exhibits += wb.printed_exhibit
        # the raw-sum variant overshoots for these exponents: exhibits occur
        assert exhibits > 0
