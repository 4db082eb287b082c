import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fracwell import (
    ExperimentConfig, FiberingRay, Flow, GridField, IntegratorControls, KirchhoffFn,
    apply_operator, build_grid, concavity_diagnostic, decay_fit, discrete_norm, dynamics,
    fit_decay, fracops, inner, integrate, k_eval, rhs,
    sample_field, tail_decay_check, validate_params,
)
from fracwell.dynamics import RunOutcome
from fracwell.fracops import bracket
from fracwell.params import ParamError

from conftest import random_pair

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def field_rhs(u, v, params, K_p, K_q):
    """``rhs`` at the pair (u, v), as the pair (u_t, v_t) of fields."""
    k = rhs(np.concatenate([u.values, v.values]), Flow.on(u.domain, params, K_p, K_q))
    n = u.domain.node_count
    return GridField(u.domain, k[:n]), GridField(u.domain, k[n:])


class TestRightHandSide:
    def test_zero_state_is_equilibrium(self, grid32, flagship_params, unit_kirchhoff):
        z = GridField(grid32, np.zeros(32))
        du, dv = field_rhs(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert np.all(du.values == 0.0) and np.all(dv.values == 0.0)

    def test_vanishing_partner_leaves_pure_diffusion(self, grid32, flagship_params,
                                                     unit_kirchhoff):
        u = sample_field(grid32, "sine", 1.3)
        z = GridField(grid32, np.zeros(32))
        du, dv = field_rhs(u, z, flagship_params, unit_kirchhoff, unit_kirchhoff)
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
        du, dv = field_rhs(u, v, prm, Kp, Kq)
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
            du, dv = field_rhs(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
            chain = inner(du, u) + inner(dv, v)
            psi = FiberingRay.from_pair(u, v, flagship_params, unit_kirchhoff,
                                        unit_kirchhoff).psi_consistent(1.0)
            assert abs(chain + psi) <= 1e-10 * (1.0 + abs(psi))

    def test_energy_chain_nonconstant_coefficients(self, grid32, flagship_params):
        # the chain identity is structural: it holds for any coefficient pair
        from fracwell import KirchhoffFn
        Kp = KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25)
        Kq = KirchhoffFn.log1p(beta=1.0)
        u, v = random_pair(grid32, 404)
        du, dv = field_rhs(u, v, flagship_params, Kp, Kq)
        chain = inner(du, u) + inner(dv, v)
        psi = FiberingRay.from_pair(u, v, flagship_params, Kp, Kq).psi_consistent(1.0)
        assert abs(chain + psi) <= 1e-10 * (1.0 + abs(psi))

    def test_gradient_of_energy(self, flagship_params, unit_kirchhoff):
        # the flow is the L2 gradient flow: d(phi)/dt = -(|u_t|^2 + |v_t|^2)
        g = build_grid(1.0, 16)
        u, v = random_pair(g, 17)
        du, dv = field_rhs(u, v, flagship_params, unit_kirchhoff, unit_kirchhoff)
        gsq = inner(du, du) + inner(dv, dv)
        d = 1e-7
        hi = FiberingRay.from_pair(GridField(g, u.values + d * du.values),
                                   GridField(g, v.values + d * dv.values),
                                   flagship_params, unit_kirchhoff, unit_kirchhoff)
        lo = FiberingRay.from_pair(GridField(g, u.values - d * du.values),
                                   GridField(g, v.values - d * dv.values),
                                   flagship_params, unit_kirchhoff, unit_kirchhoff)
        assert (hi.phi(1.0) - lo.phi(1.0)) / (2 * d) == pytest.approx(-gsq, rel=1e-5)


class TestIntegrate:
    def test_zero_data_stays_zero(self, grid32, flagship_params, unit_kirchhoff):
        z = GridField(grid32, np.zeros(32))
        trace = integrate(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0, rtol=1e-8))
        assert trace.outcome.kind == "CompletedHorizon"
        assert np.all(trace["maxabs_u"] == 0.0)
        assert np.all(trace["maxabs_v"] == 0.0)

    def test_decay_run_monotone_energy(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 0.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=3.0, rtol=1e-8))
        assert trace.outcome.kind == "CompletedHorizon"
        phis = trace["phi"]
        assert np.all(np.diff(phis) <= 1e-7 * (1.0 + abs(phis[0])))
        assert phis[-1] < phis[0]
        assert np.all(np.diff(trace["D"]) >= 0.0)
        assert np.all(np.diff(trace["t"]) > 0.0)

    @pytest.mark.parametrize("nodes", [48, 130])
    def test_overflow_inside_a_step_is_a_quiet_blowup(self, nodes):
        # a first step of 0.1 on configs/blowup.json overflows in the stages:
        # the documented outcome, without a RuntimeWarning
        raw = json.loads((CONFIGS / "blowup.json").read_text())
        raw["integrator"]["dt_init"] = 0.1
        raw["grid"]["counts"] = [nodes]
        cfg = ExperimentConfig.from_dict(raw)
        params, grid = cfg.build_params(), cfg.build_grid()
        Kp, Kq = cfg.build_kirchhoff()
        u0, v0 = cfg.build_initial_pair(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = integrate(u0, v0, params, Kp, Kq, IntegratorControls(**cfg.integrator))
        assert trace.outcome == RunOutcome("BlowUp", 0.0, "norm_threshold")
        assert len(trace) == 1 and np.isfinite(trace["phi"][0])

    @pytest.mark.parametrize("K_p, K_q, inner", [
        (KirchhoffFn.constant(2.5), KirchhoffFn.constant(), False),
        (KirchhoffFn.constant(2.5), KirchhoffFn.log1p(beta=1.0), True),
    ], ids=["both-constant", "q-log1p"])
    def test_seminorm_is_taken_where_its_brackets_are_read(self, monkeypatch, grid32,
                                                          flagship_params, K_p, K_q, inner):
        # a stage takes the Gagliardo sums only where a coefficient reads its
        # bracket; every row's ray sums come from one stacked call per run
        flags, stacks = [], []
        real, real_rows = dynamics.pair_values, dynamics._ray_rows
        monkeypatch.setattr(dynamics, "pair_values", lambda *a: flags.append(a[5]) or real(*a))
        monkeypatch.setattr(dynamics, "_ray_rows",
                            lambda U, *a: stacks.append((len(U), len(a[0]))) or real_rows(U, *a))
        u0 = sample_field(grid32, "sine", 0.5)
        trace = integrate(u0, u0, flagship_params, K_p, K_q, IntegratorControls(t_end=0.5))
        steps = (len(flags) - 1) // 6
        assert steps >= len(trace) - 1 > 10
        assert flags == [inner] * (1 + 6 * steps)
        assert stacks == [(len(trace), len(trace))]

    @pytest.mark.parametrize("z", [1.25, 1.5], ids=["inner-stage", "seventh-stage"])
    def test_bracket_overflow_in_a_stage(self, monkeypatch, z):
        """A stage state whose |d|^p overflows while |d|^(p-1) does not.

        On two nodes with v = 0 the flow is the ODE d' = -c d|d| for
        d = u_1 - u_2, with c = 4 h W_12 / p (p = 3; sigma = 2 keeps the
        reaction's powers finite).  d starts at 0.6 of where |d|^p W_12
        overflows, and the first step is dt = z / (c d).  At z = 1.25 the
        sixth stage overshoots to 1.9 d, past the overflow, while the
        fifth-order solution y5 falls to 0.37 d; at z = 1.5, y5 overshoots to
        2.6 d as well, so the seventh stage's bracket is inf too.  The
        blow-up threshold is far above 1e8.

        A constant coefficient is a at every bracket, inf included, so the
        stages that skip their brackets and a run that takes every stage's
        bracket give the same trace bit for bit: the overshooting
        trial step is rejected for its error and retried, the run completes,
        and phi stays finite on every row (a + 0 * inf and a z + 0 * z^2 made
        both runs NaN before).
        """
        params = validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=2.0, mode="operations")
        grid = build_grid(1.0, 2)
        W = float(fracops.weight_table(grid, 3.0, 0.5)[0, 1])
        c = 4.0 * grid.cell_measure * W / 3.0
        d = 0.6 * (np.finfo(float).max / W) ** (1.0 / 3.0)
        dt = z / (c * d)
        u0, v0 = GridField(grid, np.array([d / 2, -d / 2])), GridField(grid, np.zeros(2))
        K = KirchhoffFn.constant()
        controls = IntegratorControls(t_end=100.0 * dt, dt_init=dt, dt_min=1e-300,
                                      blowup_threshold=1e300)
        stages = []
        real = dynamics.rhs
        monkeypatch.setattr(dynamics, "rhs",
                            lambda y, *a: stages.append(abs(y[0] - y[1])) or real(y, *a))

        def run():
            stages.clear()
            with np.errstate(over="ignore", invalid="ignore"):  # the overflowing stages
                return integrate(u0, v0, params, K, K, controls)

        skip = run()
        first_step = stages[1:7]
        with np.errstate(over="ignore"):
            overflows = [bool(x ** 3.0 * W == math.inf) for x in first_step]
            assert all(math.isfinite(x ** 2.0 * W) for x in first_step)
        assert overflows[5] is (z == 1.5) and any(overflows[:5])
        assert skip.outcome.kind == "CompletedHorizon"
        assert skip.outcome.t == pytest.approx(controls.t_end)
        assert len(skip) > 10 and np.all(np.isfinite(skip["phi"]))
        # |u_t|^2 overflows: D is +inf, not NaN, and never decreases
        D = skip["D"]
        assert not np.any(np.isnan(D)) and np.all(D[1:] >= D[:-1])
        assert np.isinf(skip["ut_sq"][0]) and D[-1] == math.inf
        monkeypatch.setattr(KirchhoffFn, "is_constant", False)
        every = run()
        assert every.outcome == skip.outcome
        assert all(every[name].tobytes() == skip[name].tobytes() for name in skip.columns)

    def test_blowup_detected_with_growth(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 2.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=5.0, rtol=1e-7))
        assert trace.outcome.kind == "BlowUp"
        assert trace.outcome.trigger in ("norm_threshold", "dt_floor")
        maxabs_u = trace["maxabs_u"]
        assert maxabs_u[-1] > 10 * maxabs_u[0]

    def test_step_underflow_without_growth(self, grid32, flagship_params, unit_kirchhoff):
        # a first step at a dt floor far above anything acceptable is rejected
        # and stalls the run immediately
        u0 = sample_field(grid32, "sine", 0.5)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0, rtol=1e-12, dt_init=0.1,
                                             dt_min=0.1))
        assert trace.outcome.kind == "StepUnderflow"

    def test_first_row_is_the_energy_report_bitwise(self, grid32, flagship_params):
        # the trace evaluates phi and both psi variants on stacked rays
        Kp = KirchhoffFn.affine_power(1.0, 1.0, 0.25, beta=0.25)
        Kq = KirchhoffFn.log1p(beta=1.0)
        u0, v0 = random_pair(grid32, 71)
        trace = integrate(u0, v0, flagship_params, Kp, Kq,
                          IntegratorControls(t_end=1e-3, rtol=1e-7))
        ray = FiberingRay.from_pair(u0, v0, flagship_params, Kp, Kq)
        want = {name: getattr(ray, name)(1.0)
                for name in ("phi", "psi_consistent", "psi_printed")}
        want.update({name: getattr(ray, name)
                     for name in ("bracket_u", "bracket_v", "coupling_mass", "log_coupling")})
        want.update(l2_u=discrete_norm(u0, 2.0), l2_v=discrete_norm(v0, 2.0))
        for name, value in want.items():
            assert trace[name][0].tobytes() == np.float64(value).tobytes(), name
        assert len(trace) > 1

    def test_determinism(self, grid32, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid32, "sine", 0.7)
        controls = IntegratorControls(t_end=1.0, rtol=1e-7)
        t1 = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff, controls)
        t2 = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff, controls)
        assert len(t1) == len(t2)
        assert t1["t"].tolist() == t2["t"].tolist()
        assert t1["phi"].tolist() == t2["phi"].tolist()

    def test_control_validation(self):
        with pytest.raises(ParamError):
            IntegratorControls(t_end=-1.0)
        with pytest.raises(ParamError):
            IntegratorControls(t_end=1.0, rtol=0.0)

    @pytest.mark.parametrize("dt_max", [-1.0, 0.0, math.nan])
    def test_dt_max_must_be_positive(self, dt_max):
        # a negative cap would step backwards in time, a zero one never move
        with pytest.raises(ParamError, match="dt_max"):
            IntegratorControls(t_end=1.0, dt_max=dt_max)
        assert IntegratorControls(t_end=1.0, dt_max=None).dt_max is None

    @pytest.mark.parametrize("key", ["t_end", "dt_init", "dt_min", "rtol",
                                     "blowup_threshold", "dt_max"])
    def test_controls_must_be_finite(self, key):
        # an infinite t_end or rtol ran the decay config into a BlowUp
        with pytest.raises(ParamError, match=f"'{key}' must be a positive number, not inf"):
            IntegratorControls(**{"t_end": 1.0, key: math.inf})

    def test_controls_are_stored_as_floats(self):
        controls = IntegratorControls(t_end=2, rtol=1, dt_max=3)
        assert [type(v) for v in dataclasses.astuple(controls)] == [float] * 6
        for bad in (True, "1e-8"):
            with pytest.raises(ParamError, match="'rtol' must be a positive number"):
                IntegratorControls(t_end=1.0, rtol=bad)


class TestEnergyIdentity:
    def test_zero_data_residual_is_zero(self, grid32, flagship_params, unit_kirchhoff):
        z = GridField(grid32, np.zeros(32))
        trace = integrate(z, z, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=1.0))
        assert np.max(np.abs(trace["residual"])) == 0.0

    def test_residual_within_budget(self, grid48, flagship_params, unit_kirchhoff):
        u0 = sample_field(grid48, "sine", 0.8)
        trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                          IntegratorControls(t_end=5.0, rtol=1e-8))
        assert np.max(np.abs(trace["residual"])) <= 1e-5 * (1.0 + abs(trace["phi"][0]))

    def test_residual_improves_under_refinement(self, grid32, flagship_params,
                                                unit_kirchhoff):
        # the residual tracks integrator accuracy: a 16x tolerance refinement
        # must pay off by well over an order of magnitude
        u0 = sample_field(grid32, "sine", 0.8)
        res = []
        for rtol in (1e-6, 1e-6 / 16.0):
            trace = integrate(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff,
                              IntegratorControls(t_end=3.0, rtol=rtol))
            res.append(np.max(np.abs(trace["residual"])))
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
        from fracwell import classify_initial_data, estimate_well_depth
        est = estimate_well_depth(grid32, flagship_params, unit_kirchhoff,
                                  unit_kirchhoff, directions=40, seed=2)
        u0 = sample_field(grid32, "sine", 2.5)
        ray = FiberingRay.from_pair(u0, u0, flagship_params, unit_kirchhoff, unit_kirchhoff)
        d_star = classify_initial_data(u0, u0, ray, est.d).d_star
        phi0 = blowup_trace["phi"][0]
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
