"""Runnable validation suites: every structural inequality and identity the
package relies on, checked with fixed seeds and reported as a tally.

Each suite is a named callable returning a SuiteResult; the runner filters by
substring, so e.g. scope "kirchhoff" runs only the coefficient-algebra
suites.  The fibering-derivative suite evaluates the configured Nehari
variant, which makes it a built-in negative control: running it with the
"printed" variant demonstrates that the suite detects the variant's failure
of the derivative identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import dynamics, fracops, variational
from .grids import GridField, build_grid, discrete_norm, inner, random_smooth_field, sample_field
from .kirchhoff import KirchhoffFn, check_hypotheses, k_antideriv, k_eval, scaling_suite
from .params import validate_params
from .variational import FiberingRay, well_lower_bound


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    def fail(self, msg: str) -> None:
        self.passed = False
        self.failures.append(msg)


def _result(name):
    return SuiteResult(name=name, passed=True, checks=0)


def _flagship_params():
    return validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)


def _unit_kirchhoff():
    return KirchhoffFn.constant(1.0)


def _random_pair(grid, rng, modes=5):
    u = random_smooth_field(grid, rng, modes)
    v = random_smooth_field(grid, rng, modes)
    return u, v


# ---------------------------------------------------------------------------

def suite_interpolation(seed=101, count=1000) -> SuiteResult:
    res = _result("norm-interpolation")
    grid = build_grid(1.0, 24)
    rng = np.random.default_rng(seed)
    for k in range(count):
        u = GridField(grid, rng.normal(size=grid.node_count))
        p0 = rng.uniform(1.1, 4.0)
        p1 = p0 + rng.uniform(0.5, 4.0)
        mu = rng.uniform(0.05, 0.95)
        pmu = 1.0 / ((1.0 - mu) / p0 + mu / p1)
        lhs = discrete_norm(u, pmu)
        rhs = discrete_norm(u, p0) ** (1.0 - mu) * discrete_norm(u, p1) ** mu
        res.checks += 1
        if lhs > rhs * (1.0 + 1e-12):
            res.fail(f"interpolation violated at sample {k}: {lhs} > {rhs}")
    return res


def suite_scalar_log_bounds(seed=102, count=100_000) -> SuiteResult:
    res = _result("scalar-log-bounds")
    rng = np.random.default_rng(seed)
    eta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), count))
    t_hi = np.exp(rng.uniform(0.0, np.log(1e6), count))
    t_lo = np.exp(rng.uniform(np.log(1e-9), 0.0, count))
    ub = t_hi ** eta / (eta * math.e)
    res.checks += count
    bad = np.log(t_hi) > ub * (1.0 + 1e-12) + 1e-300
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        res.fail(f"log bound above 1 violated at t={t_hi[i]}, eta={eta[i]}")
    lb = t_lo ** eta * np.abs(np.log(t_lo))
    res.checks += count
    bad = lb > 1.0 / (eta * math.e) * (1.0 + 1e-12)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        res.fail(f"log bound below 1 violated at t={t_lo[i]}, eta={eta[i]}")
    # equality cases t = exp(+-1/eta)
    for e in (0.3, 1.0, 4.0):
        t_star = math.exp(1.0 / e)
        res.checks += 1
        if abs(math.log(t_star) - t_star ** e / (e * math.e)) > 1e-12 / e:
            res.fail(f"upper equality case missed at eta={e}")
        t_star = math.exp(-1.0 / e)
        res.checks += 1
        if abs(t_star ** e * abs(math.log(t_star)) - 1.0 / (e * math.e)) > 1e-12 / e:
            res.fail(f"lower equality case missed at eta={e}")
    return res


def _kirchhoff_cases(rng):
    c = rng.uniform(0.2, 3.0)
    yield KirchhoffFn.affine_power(
        a=rng.uniform(0.1, 5.0), b=rng.uniform(0.1, 5.0), c=c,
        beta=c * rng.uniform(1.0, 1.5),
    )
    yield KirchhoffFn.log1p(beta=rng.uniform(1.0, 3.0))


def suite_kirchhoff_scaling(seed=103, pairs=1000) -> SuiteResult:
    res = _result("kirchhoff-scaling")
    rng = np.random.default_rng(seed)
    for k in range(pairs):
        mu = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        z = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
        for K in _kirchhoff_cases(rng):
            for check in scaling_suite(K, K.beta, mu, z):
                res.checks += 1
                if check.applicable and not check.ok:
                    res.fail(
                        f"{check.name} violated for {K.kind} at mu={mu}, z={z}: "
                        f"residual {check.residual:.3e}"
                    )
                    if len(res.failures) > 5:
                        return res
    return res


def suite_kirchhoff_hypotheses(seed=104) -> SuiteResult:
    res = _result("kirchhoff-hypotheses")
    ok_cases = [
        KirchhoffFn.affine_power(1.0, 1.0, 2.0, beta=2.0),
        KirchhoffFn.log1p(beta=1.0),
        KirchhoffFn.constant(1.0),
    ]
    for K in ok_cases:
        rep = check_hypotheses(K)
        res.checks += 1
        if not rep.both_ok:
            res.fail(f"{K.kind} unexpectedly fails hypotheses: {rep}")
    # beta too small for the power growth: homogeneity must fail
    rep = check_hypotheses(KirchhoffFn.affine_power(1.0, 1.0, 2.0, beta=2.0), beta=1.0)
    res.checks += 1
    if rep.homogeneity_ok:
        res.fail("homogeneity check failed to flag beta=1 against growth c=2")
    # antiderivative consistency: central difference of Khat matches K
    rng = np.random.default_rng(seed)
    for K in ok_cases:
        for _ in range(50):
            z = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            d = 1e-6 * (1.0 + z)
            fd = (k_antideriv(K, z + d) - k_antideriv(K, max(z - d, 0.0))) / (d + min(z, d))
            res.checks += 1
            if abs(fd - k_eval(K, z)) > 1e-6 * (1.0 + abs(k_eval(K, z))):
                res.fail(f"antiderivative inconsistent for {K.kind} at z={z}")
    return res


def suite_operator(seed=105) -> SuiteResult:
    res = _result("operator-kernels")
    rng = np.random.default_rng(seed)
    grids = [build_grid(1.0, 16), build_grid([1.0, 1.0], [5, 5])]
    for grid in grids:
        for p in (2.0, 3.0, 3.5):
            s = 0.5
            u = GridField(grid, rng.normal(size=grid.node_count))
            w = GridField(grid, rng.normal(size=grid.node_count))
            Lu = fracops.apply_operator(u, p, s)
            bf = fracops.bilinear_form(u, w, p, s)
            res.checks += 1
            if abs(inner(Lu, w) - bf) > 1e-12 * (1.0 + abs(bf)):
                res.fail(f"duality violated p={p} grid={grid.counts}")
            gag = fracops.gagliardo_sum(u, p, s)
            res.checks += 1
            if abs(fracops.bilinear_form(u, u, p, s) - gag) > 1e-12 * (1.0 + gag):
                res.fail(f"form diagonal != seminorm sum p={p}")
            res.checks += 1
            naive = fracops.gagliardo_sum_naive(u, p, s)
            if abs(gag - naive) > 1e-12 * (1.0 + abs(naive)):
                res.fail(f"vectorized vs naive sum mismatch p={p}")
            eps = 0.37
            res.checks += 1
            if abs(fracops.gagliardo_sum(u.scaled(eps), p, s) - eps ** p * gag) > 1e-13 * (1.0 + gag):
                res.fail(f"homogeneity violated p={p}")
            # gradient of the bracket vs central differences
            hN = grid.cell_measure
            for idx in rng.choice(grid.node_count, size=3, replace=False):
                d = 1e-6 * (1.0 + abs(u.values[idx]))
                up, um = u.values.copy(), u.values.copy()
                up[idx] += d
                um[idx] -= d
                fd = (fracops.bracket(GridField(grid, up), p, s)
                      - fracops.bracket(GridField(grid, um), p, s)) / (2 * d)
                grad = hN * Lu.values[idx]
                res.checks += 1
                if abs(fd - grad) > 1e-5 * (1.0 + abs(grad)):
                    res.fail(f"bracket gradient mismatch p={p} node={idx}")
    return res


def suite_fibering(seed=106, pairs=8, psi_variant="consistent") -> SuiteResult:
    res = _result("fibering-map")
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 32)
    rng = np.random.default_rng(seed)
    for k in range(pairs):
        u, v = _random_pair(grid, rng)
        ray = FiberingRay.from_pair(u, v, params, Kp, Kq)
        try:
            star = ray.epsilon_star(psi_variant)
        except variational.BracketingError as exc:
            res.fail(f"pair {k}: {exc}")
            continue
        res.checks += 1
        if abs(star.residual) > 1e-8 * (star.residual_scale + 1e-300):
            res.fail(f"pair {k}: root residual too large: {star.residual}")
        res.checks += 1
        if not (ray.psi(star.value / 2, psi_variant) > 0 > ray.psi(star.value * 2, psi_variant)):
            res.fail(f"pair {k}: sign pattern broken around eps*={star.value}")
        # derivative identity against the configured variant, by central
        # differences of direct scaled-field evaluations: the ray of each
        # scaled pair, read at eps = 1
        for eps in (0.5, 1.0, 2.0):
            d = 1e-6 * eps
            lo, mid, hi = (FiberingRay.from_pair(u.scaled(e), v.scaled(e), params, Kp, Kq)
                           for e in (eps - d, eps, eps + d))
            fd = (hi.phi(1.0) - lo.phi(1.0)) / (2 * d)
            psi_over_eps = mid.psi(1.0, psi_variant) / eps
            res.checks += 1
            if abs(fd - psi_over_eps) > 1e-5 * (1.0 + abs(fd)):
                res.fail(
                    f"pair {k}: fibering derivative identity fails at eps={eps} "
                    f"({psi_variant} variant): d(phi)/d(eps)={fd:.8g} vs psi/eps={psi_over_eps:.8g}"
                )
        # the ray maximum sits at eps*
        scan = np.exp(np.linspace(np.log(star.value / 8), np.log(star.value * 8), 400))
        vals = ray.phi(scan)
        res.checks += 1
        imax = int(np.argmax(vals))
        cell = scan[min(imax + 1, len(scan) - 1)] / scan[max(imax - 1, 0)]
        if not (scan[imax] / cell <= star.value <= scan[imax] * cell):
            res.fail(f"pair {k}: phi max at {scan[imax]} not within one cell of eps*")
    return res


@lru_cache(maxsize=1)
def _sampled_well(grid, seed):
    """The 40-direction well estimate that two suites read, computed once."""
    return variational.estimate_well_depth(grid, _flagship_params(), _unit_kirchhoff(),
                                           _unit_kirchhoff(), directions=40, seed=seed)


def suite_well_depth(seed=107) -> SuiteResult:
    res = _result("well-depth-positive")
    est = _sampled_well(build_grid(1.0, 32), seed)
    res.checks += est.sample_count
    if est.d <= 0:
        res.fail(f"well depth estimate not positive: {est.d}")
    bad = [s for s in est.samples if not s.phi_at_star > 0]
    if bad:
        res.fail(f"{len(bad)} sampled Nehari values non-positive")
    return res


def suite_constant_pair(seed=107) -> SuiteResult:
    # a constant has zero seminorm: u = v = 1 is a Nehari point with phi = |U|/sigma^2
    res = _result("constant-pair-nehari")
    params = _flagship_params()
    K = _unit_kirchhoff()
    grid = build_grid(1.0, 32)
    one = sample_field(grid, "constant", 1.0)
    ray = FiberingRay.from_pair(one, one, params, K, K)
    star = ray.epsilon_star()
    phi = ray.phi(1.0)
    d = _sampled_well(grid, seed).d
    res.checks += 4
    if ray.psi_consistent(1.0) != 0.0:
        res.fail(f"psi_consistent = {ray.psi_consistent(1.0)!r} != 0")
    if not (star.value == 1.0 and star.iterations == 0):
        res.fail(f"eps* = {star.value!r} after {star.iterations} iterations, not 1 after 0")
    if phi != grid.box_measure / params.sigma ** 2:
        res.fail(f"phi = {phi!r} != |U|/sigma^2")
    if not phi < d:
        res.fail(f"phi = {phi!r} not below the sampled d = {d!r}")
    res.notes.append(f"sampled d / constant-pair phi = {d / phi:.4g}")
    return res


def suite_well_bound(seed=108, pairs=50) -> SuiteResult:
    res = _result("well-lower-bound")
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 24)
    rng = np.random.default_rng(seed)
    exhibits = 0
    for k in range(pairs):
        u, v = _random_pair(grid, rng)
        wb = well_lower_bound(u, v, params, Kp, Kq)
        res.checks += 1
        if not wb.holds:
            res.fail(f"pair {k}: coercivity chain violated: {wb}")
        exhibits += wb.printed_exhibit
    res.notes.append(f"printed-prefactor exhibits: {exhibits}/{pairs}")
    return res


def suite_log_bound(seed=109, pairs=20) -> SuiteResult:
    res = _result("log-coupling-bound")
    params = validate_params(N=2, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0,
                             mode="operations")
    grid = build_grid([1.0, 1.0], [8, 8])
    S = variational.embedding_bound_constant(grid, params, seed=seed)
    rng = np.random.default_rng(seed)
    for k in range(pairs):
        u, v = _random_pair(grid, rng, modes=3)
        gap = variational.log_coupling_bound_gap(u, v, params, S)
        res.checks += 1
        if gap.slack < -1e-10 * (abs(gap.rhs) + 1.0):
            res.fail(f"pair {k}: bound violated: lhs={gap.lhs} rhs={gap.rhs}")
    res.notes.append(f"non-certified: S={S:.4g} from sampled embedding constants")
    return res


def suite_tail_decay(seed=110) -> SuiteResult:
    res = _result("tail-decay-criterion")
    # dense enough that the trapezoid excess (C dt)^2/12 sits below the slack
    ts = np.linspace(0.0, 30.0, 2_000_000)
    C = 1.0
    R0 = 2.0
    # eta = 0 equality family
    rep = dynamics.tail_decay_check(ts, R0 * np.exp(1.0 - C * ts), 0.0, C)
    res.checks += 2
    if not rep.hypothesis_ok:
        res.fail("exponential family: hypothesis flagged")
    if not rep.conclusion_ok or rep.max_conclusion_residual > 1e-10:
        res.fail(f"exponential family: conclusion residual {rep.max_conclusion_residual}")
    # eta = 1 conclusion-equality family
    eta = 1.0
    rep = dynamics.tail_decay_check(
        ts, R0 * ((1 + eta) / (1 + eta * C * ts)) ** (1 / eta), eta, C)
    res.checks += 2
    if not rep.conclusion_ok or rep.max_conclusion_residual > 1e-10:
        res.fail(f"polynomial family: conclusion residual {rep.max_conclusion_residual}")
    if not rep.implication_ok:
        res.fail("polynomial family: implication flagged")
    # constant series: hypothesis must fail, nothing else asserted
    rep = dynamics.tail_decay_check(np.linspace(0, 10, 1000), np.full(1000, 3.0), 0.0, 1.0)
    res.checks += 1
    if rep.hypothesis_ok:
        res.fail("constant series: divergent tail not flagged")
    return res


def suite_concavity(seed=111) -> SuiteResult:
    res = _result("concavity-criterion")
    rng = np.random.default_rng(seed)
    for _ in range(25):
        gamma = rng.uniform(0.3, 4.0)
        T0 = rng.uniform(0.5, 5.0)
        alpha = 1.0 + 1.0 / gamma
        ts = np.linspace(0.0, 0.9 * T0, 200)
        Kv = (T0 - ts) ** (-gamma)
        Kp = gamma * (T0 - ts) ** (-gamma - 1.0)
        Ks = gamma * (gamma + 1.0) * (T0 - ts) ** (-gamma - 2.0)
        expr = Ks * Kv - alpha * Kp ** 2
        res.checks += 1
        if np.any(expr < -1e-10 * np.abs(Ks * Kv)):
            res.fail(f"concavity expression negative for gamma={gamma}")
        bound = Kv[0] / ((alpha - 1.0) * Kp[0])
        res.checks += 1
        if abs(bound - T0) > 1e-10 * T0:
            res.fail(f"horizon bound {bound} != {T0} for the equality family")
    return res


def suite_dissipation(seed=112) -> SuiteResult:
    res = _result("energy-dissipation")
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 24)
    u0 = sample_field(grid, "sine", 0.6)
    v0 = sample_field(grid, "sine", 0.6)
    trace = dynamics.integrate(u0, v0, params, Kp, Kq,
                               dynamics.IntegratorControls(t_end=2.0, rtol=1e-7))
    res.checks += 1
    if trace.outcome.kind != "CompletedHorizon":
        res.fail(f"decay run ended {trace.outcome}")
    phis = trace["phi"]
    slack = 1e-7 * (1.0 + abs(phis[0]))
    res.checks += 1
    if np.any(np.diff(phis) > slack):
        res.fail(f"energy increased beyond slack: max step {np.max(np.diff(phis))}")
    summary = dynamics.energy_identity_residual(trace)
    res.checks += 1
    if summary.max_abs > 1e-5 * (1.0 + abs(phis[0])):
        res.fail(f"identity residual too large: {summary.max_abs}")
    # energy chain at the initial state
    n = grid.node_count
    k, _, _ = dynamics.rhs(np.concatenate([u0.values, v0.values]),
                           dynamics.Flow.on(grid, params, Kp, Kq))
    chain = inner(GridField(grid, k[:n]), u0) + inner(GridField(grid, k[n:]), v0)
    psi0 = FiberingRay.from_pair(u0, v0, params, Kp, Kq).psi_consistent(1.0)
    res.checks += 1
    if abs(chain + psi0) > 1e-10 * (1.0 + abs(psi0)):
        res.fail(f"energy chain mismatch: {chain} vs -psi={-psi0}")
    return res


def suite_norm_growth(seed=113) -> SuiteResult:
    res = _result("norm-growth-under-negative-psi")
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 24)
    u0 = sample_field(grid, "sine", 2.0)
    v0 = sample_field(grid, "sine", 2.0)
    trace = dynamics.integrate(u0, v0, params, Kp, Kq,
                               dynamics.IntegratorControls(t_end=5.0, rtol=1e-8))
    res.checks += 1
    if trace.outcome.kind != "BlowUp":
        res.fail(f"expected a blow-up outcome, got {trace.outcome}")
    mass = trace.mass
    psis = trace["psi_consistent"]
    res.checks += 1
    neg = psis[:-1] < 0
    if np.any(np.diff(mass)[neg] < -1e-10 * (1.0 + mass[:-1][neg])):
        res.fail("squared-norm sum decreased while psi < 0")
    return res


SUITES = {
    "norm-interpolation": suite_interpolation,
    "scalar-log-bounds": suite_scalar_log_bounds,
    "kirchhoff-scaling": suite_kirchhoff_scaling,
    "kirchhoff-hypotheses": suite_kirchhoff_hypotheses,
    "operator-kernels": suite_operator,
    "fibering-map": suite_fibering,
    "well-depth-positive": suite_well_depth,
    "constant-pair-nehari": suite_constant_pair,
    "well-lower-bound": suite_well_bound,
    "log-coupling-bound": suite_log_bound,
    "tail-decay-criterion": suite_tail_decay,
    "concavity-criterion": suite_concavity,
    "energy-dissipation": suite_dissipation,
    "norm-growth-under-negative-psi": suite_norm_growth,
}


def run_suites(scope: str = "all", psi_variant: str = "consistent") -> list[SuiteResult]:
    """Run the suites whose name contains ``scope`` ("all" runs everything)."""
    results = []
    for name, fn in SUITES.items():
        if scope != "all" and scope not in name:
            continue
        if name == "fibering-map":
            results.append(fn(psi_variant=psi_variant))
        else:
            results.append(fn())
    return results
