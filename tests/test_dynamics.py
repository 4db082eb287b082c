import math

import numpy as np
import pytest

from fracwell import (
    GridField, IntegratorControls, apply_operator, build_grid,
    concavity_diagnostic, decay_fit, energy_identity_residual, fit_decay,
    inner, integrate, k_eval, nehari_psi, rhs, sample_field, tail_decay_check,
)
from fracwell.fracops import bracket
from fracwell.params import ParamError

from conftest import random_pair


class TestRightHandSide:
    def test_zero_state_is_equilibrium(self, grid32, flagship_params, unit_kirchhoff):
        z = GridField(grid32, np.zeros(32))
        du, dv = rhs(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert np.all(du.values == 0.0) and np.all(dv.values == 0.0)

    def test_vanishing_partner_leaves_pure_diffusion(self, grid32, flagship_params,
                                                     unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.3)
        z = GridField(grid32, np.zeros(32))
        du, dv = rhs(u, z, flagship_params, unit_kirchhoff, unit_kirchhoff)
        p, s = flagship_params.p, flagship_params.s
        coeff = k_eval(unit_kirchhoff, bracket(u, p, s)) / p
        expected = -coeff * apply_operator(u, p, s).values
        assert np.allclose(du.values, expected, rtol=1e-14)
        assert np.all(dv.values == 0.0)

    def test_bitwise_equal_to_separate_kernel_calls(self, grid32, flagship_params):
        # the fused pass must not move a single bit: the step controller
        # amplifies ulp changes of K(A) into the step size
        from fracwell import KirchhoffFn
        from fracwell.variational import _masked_log_product
        Kp = KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25)
        Kq = KirchhoffFn.log1p(beta=1.0)
        prm = flagship_params
        u, v = random_pair(grid32, 77)
        du, dv = rhs(u, v, prm, Kp, Kq)
        uu, vv = u.values, v.values
        lg, _ = _masked_log_product(uu, vv)
        f1 = np.abs(vv) ** prm.sigma * np.sign(uu) * np.abs(uu) ** (prm.sigma - 1.0) * lg
        f2 = np.abs(uu) ** prm.sigma * np.sign(vv) * np.abs(vv) ** (prm.sigma - 1.0) * lg
        want_u = (-(k_eval(Kp, bracket(u, prm.p, prm.s)) / prm.p)
                  * apply_operator(u, prm.p, prm.s).values + f1)
        want_v = (-(k_eval(Kq, bracket(v, prm.q, prm.s)) / prm.q)
                  * apply_operator(v, prm.q, prm.s).values + f2)
        assert np.array_equal(du.values, want_u)
        assert np.array_equal(dv.values, want_v)

    def test_energy_chain(self, grid32, flagship_params, unit_kirchhoff):
        for seed in range(5):
            u, v = random_pair(grid32, 300 + seed)
            du, dv = rhs(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
            chain = inner(du, u) + inner(dv, v)
            psi = nehari_psi(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff,
                             "consistent")
            assert abs(chain + psi) <= 1e-10 * (1.0 + abs(psi))

    def test_energy_chain_nonconstant_coefficients(self, grid32, flagship_params):
        # the chain identity is structural: it holds for any coefficient pair
        from fracwell import KirchhoffFn
        Kp = KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25)
        Kq = KirchhoffFn.log1p(beta=1.0)
        u, v = random_pair(grid32, 404)
        du, dv = rhs(u, v, flagship_params, Kp, Kq)
        chain = inner(du, u) + inner(dv, v)
        psi = nehari_psi(u, v, flagship_params, Kp, Kq, "consistent")
        assert abs(chain + psi) <= 1e-10 * (1.0 + abs(psi))

    def test_gradient_of_energy(self, flagship_params, unit_kirchhoff):
        # the flow is the L2 gradient flow: d(phi)/dt = -(|u_t|^2 + |v_t|^2)
        from fracwell import energy_phi
        g = build_grid(1.0, 16)
        u, v = random_pair(g, 17)
        du, dv = rhs(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        gsq = inner(du, du) + inner(dv, dv)
        d = 1e-7
        hi = energy_phi(GridField(g, u.values + d * du.values),
                        GridField(g, v.values + d * dv.values),
                        flagship_params, unit_kirchhoff, unit_kirchhoff)
        lo = energy_phi(GridField(g, u.values - d * du.values),
                        GridField(g, v.values - d * dv.values),
                        flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert (hi - lo) / (2 * d) == pytest.approx(-gsq, rel=1e-5)


class TestIntegrate:
    def test_zero_data_stays_zero(self, grid32, flagship_params, unit_kirchhoff):
        z = GridField(grid32, np.zeros(32))
        trace = integrate(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0, rtol=1e-8))
        assert trace.outcome.kind == "CompletedHorizon"
        assert all(r.maxabs_u == 0.0 and r.maxabs_v == 0.0 for r in trace.records)

    def test_decay_run_monotone_energy(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 0.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=3.0, rtol=1e-8))
        assert trace.outcome.kind == "CompletedHorizon"
        phis = trace.phis
        assert np.all(np.diff(phis) <= 1e-7 * (1.0 + abs(phis[0])))
        assert phis[-1] < phis[0]
        assert np.all(np.diff(trace.D) >= 0.0)
        assert np.all(np.diff(trace.times) > 0.0)

    def test_blowup_detected_with_growth(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 2.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=5.0, rtol=1e-7))
        assert trace.outcome.kind == "BlowUp"
        assert trace.outcome.trigger in ("norm_threshold", "dt_floor")
        assert trace.records[-1].maxabs_u > 10 * trace.records[0].maxabs_u

    def test_step_underflow_without_growth(self, grid32, flagship_params, unit_kirchhoff):
        # a dt floor far above anything acceptable stalls the run immediately
        u0 = sample_field(grid32, "sine", 0.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0, rtol=1e-12, dt_init=1e-4,
                                             dt_min=0.5))
        assert trace.outcome.kind == "StepUnderflow"

    def test_determinism(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 0.7)
        controls = IntegratorControls(t_end=1.0, rtol=1e-7)
        t1 = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff, controls)
        t2 = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff, controls)
        assert len(t1.records) == len(t2.records)
        assert t1.times.tolist() == t2.times.tolist()
        assert t1.phis.tolist() == t2.phis.tolist()

    def test_control_validation(self):
        with pytest.raises(ParamError):
            IntegratorControls(t_end=-1.0)
        with pytest.raises(ParamError):
            IntegratorControls(t_end=1.0, rtol=0.0)


class TestEnergyIdentity:
    def test_zero_data_residual_is_zero(self, grid32, flagship_params, unit_kirchhoff):
        z = GridField(grid32, np.zeros(32))
        trace = integrate(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0))
        assert energy_identity_residual(trace).max_abs == 0.0

    def test_residual_within_budget(self, grid48, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid48, "sine", 0.8)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=5.0, rtol=1e-8))
        summary = energy_identity_residual(trace)
        assert summary.max_abs <= 1e-5 * (1.0 + abs(trace.phis[0]))
        assert summary.max_positive <= summary.max_abs

    def test_residual_improves_under_refinement(self, grid32, flagship_params,
                                                unit_kirchhoff):
        # the residual tracks integrator accuracy: a 16x tolerance refinement
        # must pay off by well over an order of magnitude
        u0 = sample_field(grid32, "sine", 0.8)
        res = []
        for rtol in (1e-6, 1e-6 / 16.0):
            trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                              IntegratorControls(t_end=3.0, rtol=rtol))
            res.append(energy_identity_residual(trace).max_abs)
        assert res[1] < res[0] / 10.0


class TestDecayFit:
    def test_recovers_exponential(self):
        ts = np.linspace(0.0, 10.0, 400)
        fit = fit_decay(ts, np.exp(1.0 - 3.0 * ts), tail_fraction=0.6)
        assert fit.kind == "exponential"
        assert fit.rate == pytest.approx(3.0, rel=0.01)

    def test_recovers_polynomial(self):
        ts = np.linspace(0.0, 50.0, 600)
        fit = fit_decay(ts, (1.0 + ts) ** (-2.0), tail_fraction=0.6)
        assert fit.kind == "polynomial"
        assert fit.rate == pytest.approx(2.0, rel=0.01)

    def test_constant_is_inconclusive(self):
        ts = np.linspace(0.0, 10.0, 100)
        fit = fit_decay(ts, np.full_like(ts, 2.5))
        assert fit.kind == "inconclusive"
        assert "flat" in fit.note

    def test_nonpositive_tail_is_inconclusive(self):
        ts = np.linspace(0.0, 10.0, 100)
        fit = fit_decay(ts, 1.0 - 0.2 * ts)
        assert fit.kind == "inconclusive"

    def test_trace_fit_reports_envelope(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 0.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=400.0, rtol=1e-8, dt_max=4.0))
        fit = decay_fit(trace)
        assert fit.predicted_kind == "polynomial"
        assert fit.predicted_exponent == pytest.approx(7.0 / 3.0)

    def test_fit_requires_completed_run(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 2.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=5.0, rtol=1e-7))
        with pytest.raises(ValueError, match="completed"):
            decay_fit(trace)


class TestTailDecay:
    def test_exponential_equality_family(self):
        ts = np.linspace(0.0, 30.0, 2_000_000)
        rep = tail_decay_check(ts, 2.0 * np.exp(1.0 - ts), eta=0.0, C=1.0)
        assert rep.hypothesis_ok and rep.conclusion_ok
        assert rep.max_conclusion_residual <= 1e-10

    def test_polynomial_equality_family(self):
        ts = np.linspace(0.0, 200.0, 500_000)
        eta, C = 1.0, 1.0
        R = 2.0 * ((1 + eta) / (1 + eta * C * ts)) ** (1 / eta)
        rep = tail_decay_check(ts, R, eta=eta, C=C)
        assert rep.conclusion_ok and rep.implication_ok
        assert rep.max_conclusion_residual <= 1e-10

    def test_constant_series_flagged(self):
        ts = np.linspace(0.0, 10.0, 500)
        rep = tail_decay_check(ts, np.full(500, 3.0), eta=0.0, C=1.0)
        assert not rep.hypothesis_ok
        assert rep.implication_ok  # vacuous: nothing asserted about the conclusion

    def test_increasing_series_rejected(self):
        ts = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError, match="non-increasing"):
            tail_decay_check(ts, ts, eta=0.0, C=1.0)


@pytest.fixture(scope="module")
def blowup_trace(grid32, flagship_params, unit_kirchhoff):
    u0 = sample_field(grid32, "sine", 2.5)
    return integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                     IntegratorControls(t_end=5.0, rtol=1e-8))


class TestConcavity:
    def test_nonnegative_along_blowup(self, blowup_trace, grid32, flagship_params,
                                      unit_kirchhoff):
        from fracwell import compute_d_star, estimate_well_depth
        est = estimate_well_depth(grid32, flagship_params, unit_kirchhoff,
                                  unit_kirchhoff, directions=40, seed=2)
        u0 = sample_field(grid32, "sine", 2.5)
        d_star = compute_d_star(est.d, u0, u0, flagship_params)
        phi0 = blowup_trace.phis[0]
        assert d_star > phi0
        a = math.sqrt(d_star - phi0)
        sig = flagship_params.sigma
        mass0 = blowup_trace.mass[0]
        b = 2.0 * mass0 / (a * (sig / 2.0 - 1.0))
        T = blowup_trace.outcome.t * 1.05
        rep = concavity_diagnostic(blowup_trace, a, b, T)
        assert not rep.informational
        scale = np.abs(rep.L_second * rep.L) + 0.5 * rep.L_prime ** 2
        assert np.all(rep.G >= -1e-9 * scale)
        # closed forms at t = 0
        assert rep.L[0] == pytest.approx(T * mass0 + b ** 2)
        assert rep.L_prime[0] == pytest.approx(2 * a * b)
        # the concavity horizon estimate covers the detected time
        assert rep.horizon_estimate >= blowup_trace.outcome.t

    def test_b_threshold_enforced(self, blowup_trace):
        with pytest.raises(ValueError, match="threshold"):
            concavity_diagnostic(blowup_trace, a=0.5, b=1e-9, T=blowup_trace.outcome.t + 1)

    def test_informational_on_decay_trace(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 0.4)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0, rtol=1e-7))
        rep = concavity_diagnostic(trace, a=0.5, b=10.0, T=2.0)
        assert rep.informational
