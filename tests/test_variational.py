import math

import numpy as np
import pytest

from fracwell import (
    BracketingError, FiberingRay, GridField, blowup_time_bound,
    build_grid, classify_initial_data, compute_d_star, coupling_mass,
    energy_phi, energy_report, estimate_embedding_constant,
    estimate_well_depth, fibering_scan, find_epsilon_star, gagliardo_sum,
    log_coupling, log_coupling_bound_gap, nehari_psi, sample_field,
    validate_params, well_lower_bound,
)
from fracwell import variational
from fracwell.fracops import bracket
from fracwell.params import ParamError
from fracwell.variational import embedding_bound_constant

from conftest import random_pair


@pytest.fixture(scope="module")
def ops_params():
    return validate_params(N=1, s=0.5, p=2.0, q=2.0, sigma=4.0, beta=0.0,
                           mode="operations")


class TestCouplingIntegrals:
    def test_zero_factor_kills_integral(self, grid2):
        u = GridField(grid2, np.array([1.0, 2.0]))
        z = GridField(grid2, np.zeros(2))
        assert log_coupling(u, z, 4.0) == 0.0
        assert log_coupling(z, u, 4.0) == 0.0

    def test_constant_fields_exact(self):
        g = build_grid(1.0, 6)
        ue = sample_field(g, "constant", math.e)
        v1 = sample_field(g, "constant", 1.0)
        assert log_coupling(ue, v1, 4.0) == pytest.approx(math.e ** 4, rel=1e-14)

    def test_log_one_vanishes(self):
        g = build_grid(1.0, 6)
        one = sample_field(g, "constant", 1.0)
        assert log_coupling(one, one, 4.0) == 0.0

    def test_sigma_precondition(self, grid2):
        u = GridField(grid2, np.ones(2))
        with pytest.raises(ParamError):
            log_coupling(u, u, 0.5)


class TestEnergyReport:
    def test_zero_pair(self, grid2, ops_params, unit_kirchhoff):
        z = GridField(grid2, np.zeros(2))
        rep = energy_report(z, z, ops_params, unit_kirchhoff, unit_kirchhoff)
        assert rep.phi == 0.0
        assert rep.psi_consistent == 0.0 and rep.psi_printed == 0.0

    def test_two_node_worked_example(self, grid2, ops_params, unit_kirchhoff):
        u = GridField(grid2, np.array([1.0, 0.0]))
        rep = energy_report(u, u, ops_params, unit_kirchhoff, unit_kirchhoff)
        assert rep.bracket_u == pytest.approx(1.0)
        assert rep.bracket_v == pytest.approx(1.0)
        assert rep.coupling_mass == pytest.approx(0.5)
        assert rep.log_coupling == 0.0
        assert rep.phi == pytest.approx(1.03125)
        assert rep.psi_consistent == pytest.approx(2.0)
        assert rep.psi_printed == pytest.approx(4.0)

    def test_bracket_scaling_law(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 21)
        rep1 = energy_report(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        eps = 1.37
        rep2 = energy_report(u.scaled(eps), v.scaled(eps), flagship_params,
                             unit_kirchhoff, unit_kirchhoff)
        assert rep2.bracket_u == pytest.approx(eps ** 3.0 * rep1.bracket_u, rel=1e-12)
        assert rep2.bracket_v == pytest.approx(eps ** 3.5 * rep1.bracket_v, rel=1e-12)
        assert rep2.coupling_mass == pytest.approx(eps ** 8 * rep1.coupling_mass, rel=1e-12)

    def test_psi_selector(self, grid2, ops_params, unit_kirchhoff):
        u = GridField(grid2, np.array([1.0, 0.0]))
        assert nehari_psi(u, u, ops_params, unit_kirchhoff, unit_kirchhoff,
                          "consistent") == pytest.approx(2.0)
        assert nehari_psi(u, u, ops_params, unit_kirchhoff, unit_kirchhoff,
                          "printed") == pytest.approx(4.0)
        with pytest.raises(ValueError, match="variant"):
            nehari_psi(u, u, ops_params, unit_kirchhoff, unit_kirchhoff, "both")


class TestFibering:
    def test_ray_matches_direct_evaluation(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 31)
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        for eps in (0.3, 1.0, 2.4):
            rep = energy_report(u.scaled(eps), v.scaled(eps), flagship_params,
                                unit_kirchhoff, unit_kirchhoff)
            assert ray.phi(eps) == pytest.approx(rep.phi, rel=1e-12, abs=1e-14)
            assert ray.psi_consistent(eps) == pytest.approx(rep.psi_consistent, rel=1e-12)
            assert ray.psi_printed(eps) == pytest.approx(rep.psi_printed, rel=1e-12)

    def test_ray_sums_from_one_pair_pass_and_one_masked_log(
            self, grid32, flagship_params, unit_kirchhoff, monkeypatch):
        u, v = random_pair(grid32, 37)
        prm = flagship_params
        sig = prm.sigma
        au, av = np.abs(u.values), np.abs(v.values)
        mask = au * av > 0.0
        lg = np.log(au[mask] * av[mask])
        hN = grid32.cell_measure
        expected = dict(
            bracket_u=bracket(u, prm.p, prm.s), bracket_v=bracket(v, prm.q, prm.s),
            coupling_mass=coupling_mass(u, v, sig), log_coupling=log_coupling(u, v, sig),
            coupling_high=float(np.sum((au * av) ** (sig + 1.0)) * hN),
            log_coupling_high=float(np.sum((au[mask] * av[mask]) ** (sig + 1.0) * lg) * hN))
        calls = []
        for name in ("_masked_log_product", "pair_pass"):
            real = getattr(variational, name)
            monkeypatch.setattr(variational, name,
                                lambda *a, _real=real, _name=name, **k:
                                calls.append(_name) or _real(*a, **k))
        ray = FiberingRay.from_pair(u, v, prm, unit_kirchhoff, unit_kirchhoff)
        assert sorted(calls) == ["_masked_log_product", "pair_pass"]
        for name, value in expected.items():
            assert np.float64(getattr(ray, name)).tobytes() == np.float64(value).tobytes(), name
        rep = energy_report(u, v, prm, unit_kirchhoff, unit_kirchhoff)
        assert all(getattr(rep, name) == value for name, value in expected.items())

    def test_scan_limits_and_sign_pattern(self, grid32, flagship_params, unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        v = sample_field(grid32, "bump", 1.0)
        # energy vanishes at the small end of the ray
        tiny = fibering_scan(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff, [1e-6])
        assert abs(tiny[0]["phi"]) < 1e-8
        # energy is negative and decreasing at the large end
        big = fibering_scan(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff,
                            [30.0, 60.0])
        assert big[0]["phi"] < 0.0 and big[1]["phi"] < big[0]["phi"]
        # single sign change of psi along a dense scan
        eps = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 600))
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        signs = np.sign(ray.psi_consistent(eps))
        assert np.sum(np.abs(np.diff(signs)) > 0) == 1

    def test_scan_input_validation(self, grid32, flagship_params, unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.0)
        with pytest.raises(ValueError, match="empty"):
            fibering_scan(u, u, flagship_params, unit_kirchhoff, unit_kirchhoff, [])
        with pytest.raises(ValueError, match="positive"):
            fibering_scan(u, u, flagship_params, unit_kirchhoff, unit_kirchhoff, [-1.0, 1.0])

    def test_epsilon_star_contract(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 77)
        star = find_epsilon_star(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert abs(star.residual) <= 1e-8 * (star.residual_scale + 1e-300)
        ray = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
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
        star = find_epsilon_star(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert eps[crossings[0]] <= star.value <= eps[crossings[0] + 1]

    def test_disjoint_supports_fail_bracketing(self, flagship_params, unit_kirchhoff):
        g = build_grid(1.0, 16)
        u = sample_field(g, "indicator", 1.0, subbox_lo=0.0, subbox_hi=0.5)
        v = sample_field(g, "indicator", 1.0, subbox_lo=0.5, subbox_hi=1.0)
        assert coupling_mass(u, v, 4.0) == 0.0
        with pytest.raises(BracketingError, match="not bracketed"):
            find_epsilon_star(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)

    def test_zero_pair_fails(self, grid2, flagship_params, unit_kirchhoff):
        z = GridField(grid2, np.zeros(2))
        with pytest.raises(BracketingError):
            find_epsilon_star(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff)

    def test_fibering_derivative_identity(self, grid32, flagship_params, unit_kirchhoff):
        u, v = random_pair(grid32, 5)
        for eps in (0.5, 1.0, 2.0):
            d = 1e-6 * eps
            hi = energy_phi(u.scaled(eps + d), v.scaled(eps + d), flagship_params,
                            unit_kirchhoff, unit_kirchhoff)
            lo = energy_phi(u.scaled(eps - d), v.scaled(eps - d), flagship_params,
                            unit_kirchhoff, unit_kirchhoff)
            fd = (hi - lo) / (2 * d)
            psi = nehari_psi(u.scaled(eps), v.scaled(eps), flagship_params,
                             unit_kirchhoff, unit_kirchhoff, "consistent")
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


class TestThresholds:
    def test_d_star_exact_fraction(self, flagship_params):
        g = build_grid(1.0, 8)
        z = GridField(g, np.zeros(8))
        assert compute_d_star(1.0, z, z, flagship_params) == pytest.approx(3.0 / 7.0)

    def test_d_star_equals_zero_when_d_equals_coupling(self, grid32, flagship_params):
        u = sample_field(grid32, "sine", 1.0)
        C = coupling_mass(u, u, 4.0) / 4.0
        assert compute_d_star(C, u, u, flagship_params) == pytest.approx(0.0, abs=1e-15)

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
        d_star = compute_d_star(d, u, u, params)
        return classify_initial_data(u, u, params, K, K, d_star, d=d)

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
        cls = classify_initial_data(z, z, flagship_params, unit_kirchhoff,
                                    unit_kirchhoff, d_star=0.4)
        assert cls.verdict == "Indeterminate"
        assert "origin" in cls.note

    def test_amplitude_sweep_single_sign_change(self, grid48, flagship_params,
                                                unit_kirchhoff):
        u = sample_field(grid48, "sine", 1.0)
        amps = np.geomspace(0.05, 20.0, 60)
        psis = np.array([
            nehari_psi(u.scaled(a), u.scaled(a), flagship_params, unit_kirchhoff,
                       unit_kirchhoff, "consistent")
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
        direct = log_coupling(u, u, params2d.sigma)
        assert gap.lhs == pytest.approx(direct, rel=1e-12)

    def test_infinite_critical_exponent_noted(self, grid32, flagship_params):
        u, v = random_pair(grid32, 2)
        gap = log_coupling_bound_gap(u, v, flagship_params, S=1.0)
        assert "critical exponent infinite" in gap.note

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
