"""Runnable validation suites: every structural inequality and identity the
package relies on, checked with fixed seeds and reported as a tally.

Each suite is a function registered in ``SUITES`` under its name by the
``_suite`` decorator; calling it returns a SuiteResult.  Every check is
written as its pass condition (``err <= tol``), so a check whose measured
quantity is NaN fails.  The runner filters suites by substring, so e.g.
scope "kirchhoff" runs only the coefficient-algebra suites.  The
fibering-derivative suite evaluates the configured Nehari variant, which
makes it a built-in negative control: running it with the "printed" variant
demonstrates that the suite detects the variant's failure of the derivative
identity.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import dynamics, fracops, variational
from .grids import GridField, build_grid, discrete_norm, inner, random_smooth_field, sample_field
from .kirchhoff import KirchhoffFn, check_hypotheses, k_antideriv, k_eval, scaling_suite
from .params import validate_params
from .variational import FiberingRay, well_lower_bound


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok, message) -> None:
        """Count one check; record ``message`` unless ``ok``.  ``message`` may
        be a function returning the text, called only on failure."""
        self.checks += 1
        if not ok:
            self.failures.append(message() if callable(message) else message)


SUITES = {}


def _suite(name):
    """Register the decorated body as suite ``name`` in ``SUITES``.  The
    registered function takes the body's arguments after the first, runs the
    body on a fresh SuiteResult and returns that result."""
    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> SuiteResult:
            res = SuiteResult(name)
            body(res, *args, **kwargs)
            return res
        SUITES[name] = run
        return run
    return register


def _flagship_params():
    return validate_params(N=1, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0)


def _unit_kirchhoff():
    return KirchhoffFn.constant(1.0)


def _random_pair(grid, rng, modes=5):
    u = random_smooth_field(grid, rng, modes)
    v = random_smooth_field(grid, rng, modes)
    return u, v


# ---------------------------------------------------------------------------

@_suite("norm-interpolation")
def suite_interpolation(res):
    grid = build_grid(1.0, 24)
    rng = np.random.default_rng(101)
    for k in range(1000):
        u = GridField(grid, rng.normal(size=grid.node_count))
        p0 = rng.uniform(1.1, 4.0)
        p1 = p0 + rng.uniform(0.5, 4.0)
        mu = rng.uniform(0.05, 0.95)
        pmu = 1.0 / ((1.0 - mu) / p0 + mu / p1)
        lhs = discrete_norm(u, pmu)
        rhs = discrete_norm(u, p0) ** (1.0 - mu) * discrete_norm(u, p1) ** mu
        res.check(lhs <= rhs * (1.0 + 1e-12),
                  lambda: f"interpolation violated at sample {k}: {lhs} > {rhs}")


@_suite("scalar-log-bounds")
def suite_scalar_log_bounds(res):
    count = 100_000
    rng = np.random.default_rng(102)
    eta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), count))
    t_hi = np.exp(rng.uniform(0.0, np.log(1e6), count))
    t_lo = np.exp(rng.uniform(np.log(1e-9), 0.0, count))
    ub = t_hi ** eta / (eta * math.e)
    res.checks += count
    ok = np.log(t_hi) <= ub * (1.0 + 1e-12) + 1e-300
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        res.failures.append(f"log bound above 1 violated at t={t_hi[i]}, eta={eta[i]}")
    lb = t_lo ** eta * np.abs(np.log(t_lo))
    res.checks += count
    ok = lb <= 1.0 / (eta * math.e) * (1.0 + 1e-12)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        res.failures.append(f"log bound below 1 violated at t={t_lo[i]}, eta={eta[i]}")
    # equality cases t = exp(+-1/eta)
    for e in (0.3, 1.0, 4.0):
        t_star = math.exp(1.0 / e)
        res.check(abs(math.log(t_star) - t_star ** e / (e * math.e)) <= 1e-12 / e,
                  f"upper equality case missed at eta={e}")
        t_star = math.exp(-1.0 / e)
        res.check(abs(t_star ** e * abs(math.log(t_star)) - 1.0 / (e * math.e)) <= 1e-12 / e,
                  f"lower equality case missed at eta={e}")


def _kirchhoff_cases(rng):
    c = rng.uniform(0.2, 3.0)
    yield KirchhoffFn.affine_power(
        a=rng.uniform(0.1, 5.0), b=rng.uniform(0.1, 5.0), c=c,
        beta=c * rng.uniform(1.0, 1.5),
    )
    yield KirchhoffFn.log1p(beta=rng.uniform(1.0, 3.0))


@_suite("kirchhoff-scaling")
def suite_kirchhoff_scaling(res):
    rng = np.random.default_rng(103)
    for k in range(1000):
        mu = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        z = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e6))))
        for K in _kirchhoff_cases(rng):
            for check in scaling_suite(K, K.beta, mu, z):
                res.check(check.ok or not check.applicable, lambda: (
                    f"{check.name} violated for {K.kind} at mu={mu}, z={z}: "
                    f"residual {check.residual:.3e}"
                ))
                if len(res.failures) > 5:
                    return


@_suite("kirchhoff-hypotheses")
def suite_kirchhoff_hypotheses(res):
    ok_cases = [
        KirchhoffFn.affine_power(1.0, 1.0, 2.0, beta=2.0),
        KirchhoffFn.log1p(beta=1.0),
        KirchhoffFn.constant(1.0),
    ]
    for K in ok_cases:
        rep = check_hypotheses(K)
        res.check(rep.both_ok, f"{K.kind} unexpectedly fails hypotheses: {rep}")
    # beta too small for the power growth: homogeneity must fail
    rep = check_hypotheses(KirchhoffFn.affine_power(1.0, 1.0, 2.0, beta=2.0), beta=1.0)
    res.check(not rep.homogeneity_ok, "homogeneity check failed to flag beta=1 against growth c=2")
    # antiderivative consistency: central difference of Khat matches K
    rng = np.random.default_rng(104)
    for K in ok_cases:
        for _ in range(50):
            z = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
            d = 1e-6 * (1.0 + z)
            fd = (k_antideriv(K, z + d) - k_antideriv(K, max(z - d, 0.0))) / (d + min(z, d))
            res.check(abs(fd - k_eval(K, z)) <= 1e-6 * (1.0 + abs(k_eval(K, z))),
                      f"antiderivative inconsistent for {K.kind} at z={z}")


@_suite("operator-kernels")
def suite_operator(res):
    rng = np.random.default_rng(105)
    grids = [build_grid(1.0, 16), build_grid([1.0, 1.0], [5, 5])]
    for grid in grids:
        for p in (2.0, 3.0, 3.5):
            s = 0.5
            u = GridField(grid, rng.normal(size=grid.node_count))
            w = GridField(grid, rng.normal(size=grid.node_count))
            Lu = fracops.apply_operator(u, p, s)
            bf = fracops.bilinear_form(u, w, p, s)
            res.check(abs(inner(Lu, w) - bf) <= 1e-12 * (1.0 + abs(bf)),
                      f"duality violated p={p} grid={grid.counts}")
            gag = fracops.gagliardo_sum(u, p, s)
            res.check(abs(fracops.bilinear_form(u, u, p, s) - gag) <= 1e-12 * (1.0 + gag),
                      f"form diagonal != seminorm sum p={p}")
            naive = fracops.gagliardo_sum_naive(u, p, s)
            res.check(abs(gag - naive) <= 1e-12 * (1.0 + abs(naive)),
                      f"vectorized vs naive sum mismatch p={p}")
            eps = 0.37
            res.check(abs(fracops.gagliardo_sum(u.scaled(eps), p, s) - eps ** p * gag)
                      <= 1e-13 * (1.0 + gag), f"homogeneity violated p={p}")
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
                res.check(abs(fd - grad) <= 1e-5 * (1.0 + abs(grad)),
                          f"bracket gradient mismatch p={p} node={idx}")


@_suite("fibering-map")
def suite_fibering(res, psi_variant="consistent"):
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 32)
    rng = np.random.default_rng(106)
    for k in range(8):
        u, v = _random_pair(grid, rng)
        ray = FiberingRay.from_pair(u, v, params, Kp, Kq)
        try:
            star = ray.epsilon_star(psi_variant)
        except variational.BracketingError as exc:
            res.failures.append(f"pair {k}: {exc}")
            continue
        res.check(abs(star.residual) <= 1e-8 * (star.residual_scale + 1e-300),
                  f"pair {k}: root residual too large: {star.residual}")
        res.check(ray.psi(star.value / 2, psi_variant) > 0 > ray.psi(star.value * 2, psi_variant),
                  f"pair {k}: sign pattern broken around eps*={star.value}")
        # derivative identity against the configured variant, by central
        # differences of direct scaled-field evaluations: the ray of each
        # scaled pair, read at eps = 1
        for eps in (0.5, 1.0, 2.0):
            d = 1e-6 * eps
            lo, mid, hi = (FiberingRay.from_pair(u.scaled(e), v.scaled(e), params, Kp, Kq)
                           for e in (eps - d, eps, eps + d))
            fd = (hi.phi(1.0) - lo.phi(1.0)) / (2 * d)
            psi_over_eps = mid.psi(1.0, psi_variant) / eps
            res.check(
                abs(fd - psi_over_eps) <= 1e-5 * (1.0 + abs(fd)),
                f"pair {k}: fibering derivative identity fails at eps={eps} "
                f"({psi_variant} variant): d(phi)/d(eps)={fd:.8g} vs psi/eps={psi_over_eps:.8g}"
            )
        # the ray maximum sits at eps*
        scan = np.exp(np.linspace(np.log(star.value / 8), np.log(star.value * 8), 400))
        vals = ray.phi(scan)
        imax = int(np.argmax(vals))
        cell = scan[min(imax + 1, len(scan) - 1)] / scan[max(imax - 1, 0)]
        res.check(scan[imax] / cell <= star.value <= scan[imax] * cell,
                  f"pair {k}: phi max at {scan[imax]} not within one cell of eps*")


def _sampled_well(grid):
    """The 40-direction well estimate that two suites read; the second reads
    it from ``estimate_well_depth``'s memo."""
    return variational.estimate_well_depth(grid, _flagship_params(), _unit_kirchhoff(),
                                           _unit_kirchhoff(), directions=40, seed=107)


@_suite("well-depth-positive")
def suite_well_depth(res):
    est = _sampled_well(build_grid(1.0, 32))
    res.checks += est.sample_count
    if not est.d > 0:
        res.failures.append(f"well depth estimate not positive: {est.d}")
    bad = [s for s in est.samples if not s.phi_at_star > 0]
    if bad:
        res.failures.append(f"{len(bad)} sampled Nehari values non-positive")


@_suite("constant-pair-nehari")
def suite_constant_pair(res):
    # a constant has zero seminorm: u = v = 1 is a Nehari point with phi = |U|/sigma^2
    params = _flagship_params()
    K = _unit_kirchhoff()
    grid = build_grid(1.0, 32)
    one = sample_field(grid, "constant", 1.0)
    ray = FiberingRay.from_pair(one, one, params, K, K)
    star = ray.epsilon_star()
    phi = ray.phi(1.0)
    psi = ray.psi_consistent(1.0)
    d = _sampled_well(grid).d
    res.check(psi == 0.0, f"psi_consistent = {psi!r} != 0")
    res.check(star.value == 1.0 and star.iterations == 0,
              f"eps* = {star.value!r} after {star.iterations} iterations, not 1 after 0")
    res.check(phi == grid.box_measure / params.sigma ** 2, f"phi = {phi!r} != |U|/sigma^2")
    res.check(phi < d, f"phi = {phi!r} not below the sampled d = {d!r}")
    res.notes.append(f"sampled d / constant-pair phi = {d / phi:.4g}")


@_suite("well-lower-bound")
def suite_well_bound(res):
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 24)
    rng = np.random.default_rng(108)
    exhibits = 0
    pairs = 50
    for k in range(pairs):
        u, v = _random_pair(grid, rng)
        wb = well_lower_bound(u, v, params, Kp, Kq)
        res.check(wb.holds, f"pair {k}: coercivity chain violated: {wb}")
        exhibits += wb.printed_exhibit
    res.notes.append(f"printed-prefactor exhibits: {exhibits}/{pairs}")


@_suite("log-coupling-bound")
def suite_log_bound(res):
    params = validate_params(N=2, s=0.5, p=3.0, q=3.5, sigma=4.0, beta=0.0,
                             mode="operations")
    grid = build_grid([1.0, 1.0], [8, 8])
    S = variational.embedding_bound_constant(grid, params, seed=109)
    rng = np.random.default_rng(109)
    for k in range(20):
        u, v = _random_pair(grid, rng, modes=3)
        gap = variational.log_coupling_bound_gap(u, v, params, S)
        res.check(gap.slack >= -1e-10 * (abs(gap.rhs) + 1.0),
                  f"pair {k}: bound violated: lhs={gap.lhs} rhs={gap.rhs}")
    res.notes.append(f"non-certified: S={S:.4g} from sampled embedding constants")


@_suite("tail-decay-criterion")
def suite_tail_decay(res):
    # dense enough that the trapezoid excess (C dt)^2/12 sits below the slack
    ts = np.linspace(0.0, 30.0, 2_000_000)
    C = 1.0
    R0 = 2.0
    # eta = 0 equality family
    rep = dynamics.tail_decay_check(ts, R0 * np.exp(1.0 - C * ts), 0.0, C)
    res.check(rep.hypothesis_ok, "exponential family: hypothesis flagged")
    res.check(rep.conclusion_ok and rep.max_conclusion_residual <= 1e-10,
              f"exponential family: conclusion residual {rep.max_conclusion_residual}")
    # eta = 1 conclusion-equality family
    eta = 1.0
    rep = dynamics.tail_decay_check(
        ts, R0 * ((1 + eta) / (1 + eta * C * ts)) ** (1 / eta), eta, C)
    res.check(rep.conclusion_ok and rep.max_conclusion_residual <= 1e-10,
              f"polynomial family: conclusion residual {rep.max_conclusion_residual}")
    res.check(rep.implication_ok, "polynomial family: implication flagged")
    # constant series: hypothesis must fail, nothing else asserted
    rep = dynamics.tail_decay_check(np.linspace(0, 10, 1000), np.full(1000, 3.0), 0.0, 1.0)
    res.check(not rep.hypothesis_ok, "constant series: divergent tail not flagged")


@_suite("concavity-criterion")
def suite_concavity(res):
    rng = np.random.default_rng(111)
    for _ in range(25):
        gamma = rng.uniform(0.3, 4.0)
        T0 = rng.uniform(0.5, 5.0)
        alpha = 1.0 + 1.0 / gamma
        ts = np.linspace(0.0, 0.9 * T0, 200)
        Kv = (T0 - ts) ** (-gamma)
        Kp = gamma * (T0 - ts) ** (-gamma - 1.0)
        Ks = gamma * (gamma + 1.0) * (T0 - ts) ** (-gamma - 2.0)
        expr = Ks * Kv - alpha * Kp ** 2
        res.check(np.all(expr >= -1e-10 * np.abs(Ks * Kv)),
                  f"concavity expression negative for gamma={gamma}")
        bound = Kv[0] / ((alpha - 1.0) * Kp[0])
        res.check(abs(bound - T0) <= 1e-10 * T0,
                  f"horizon bound {bound} != {T0} for the equality family")


@_suite("energy-dissipation")
def suite_dissipation(res):
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 24)
    u0 = sample_field(grid, "sine", 0.6)
    v0 = sample_field(grid, "sine", 0.6)
    trace = dynamics.integrate(u0, v0, params, Kp, Kq,
                               dynamics.IntegratorControls(t_end=2.0, rtol=1e-7))
    res.check(trace.outcome.kind == "CompletedHorizon", f"decay run ended {trace.outcome}")
    phis = trace["phi"]
    slack = 1e-7 * (1.0 + abs(phis[0]))
    res.check(np.all(np.diff(phis) <= slack),
              f"energy increased beyond slack: max step {np.max(np.diff(phis))}")
    max_abs = float(np.max(np.abs(trace["residual"])))
    res.check(max_abs <= 1e-5 * (1.0 + abs(phis[0])),
              f"identity residual too large: {max_abs}")
    # energy chain at the initial state
    n = grid.node_count
    k = dynamics.rhs(np.concatenate([u0.values, v0.values]),
                     dynamics.Flow.on(grid, params, Kp, Kq))
    chain = inner(GridField(grid, k[:n]), u0) + inner(GridField(grid, k[n:]), v0)
    psi0 = FiberingRay.from_pair(u0, v0, params, Kp, Kq).psi_consistent(1.0)
    res.check(abs(chain + psi0) <= 1e-10 * (1.0 + abs(psi0)),
              f"energy chain mismatch: {chain} vs -psi={-psi0}")


@_suite("norm-growth-under-negative-psi")
def suite_norm_growth(res):
    params = _flagship_params()
    Kp = Kq = _unit_kirchhoff()
    grid = build_grid(1.0, 24)
    u0 = sample_field(grid, "sine", 2.0)
    v0 = sample_field(grid, "sine", 2.0)
    trace = dynamics.integrate(u0, v0, params, Kp, Kq,
                               dynamics.IntegratorControls(t_end=5.0, rtol=1e-8))
    res.check(trace.outcome.kind == "BlowUp", f"expected a blow-up outcome, got {trace.outcome}")
    mass = trace.mass
    psis = trace["psi_consistent"]
    neg = psis[:-1] < 0
    res.check(np.all(np.diff(mass)[neg] >= -1e-10 * (1.0 + mass[:-1][neg])),
              "squared-norm sum decreased while psi < 0")


def run_suites(scope: str = "all", psi_variant: str = "consistent") -> list[SuiteResult]:
    """Run the suites whose name contains ``scope`` ("all" runs everything);
    a suite that takes a ``psi_variant`` is given this one."""
    results = []
    for name, fn in SUITES.items():
        if scope != "all" and scope not in name:
            continue
        if "psi_variant" in inspect.signature(fn).parameters:
            results.append(fn(psi_variant=psi_variant))
        else:
            results.append(fn())
    return results
