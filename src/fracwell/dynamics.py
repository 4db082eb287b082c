"""Method-of-lines time integration of the semi-discrete coupled flow,
dissipation monitoring, blow-up detection, decay-rate fitting, and the
integral/concavity diagnostics.

The semi-discrete system evolved here is the L^2 gradient flow of the energy
functional on the nodal grid:

    u_t = -(1/p) K_p(A) L_p u + |v|^sigma |u|^(sigma-2) u log|uv|
    v_t = -(1/q) K_q(B) L_q v + |u|^sigma |v|^(sigma-2) v log|uv|

with A, B the seminorm brackets of u, v.  With this scaling the discrete
energy chain is exact: inner(u_t, u) + inner(v_t, v) = -psi_consistent(u, v),
the energy is non-increasing along exact trajectories, and the cumulative
dissipation D(t) satisfies D + phi(t) = phi(0) identically, so every residual
reported below measures integrator error and nothing else.

Stepping is an explicit embedded Dormand-Prince 5(4) pair with acceptance on
the mixed local error test err <= rtol * (1 + max-abs).  Blow-up is detected,
never asserted: the triggers are the max-abs threshold (non-finite values
count as exceeding it) and the step-size floor with norm growth.  The
cumulative dissipation is accumulated with the pair's own fifth-order stage
weights, which costs nothing (the stage derivatives are already available):
D is the fifth-order solution of the augmented dissipation equation
z' = |u_t|^2 + |v_t|^2, so the identity residual is the pair's global error
on the invariant phi + z and converges like it, O(rtol) or better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fracops import pair_pass
from .grids import GridField, inner
from .kirchhoff import KirchhoffFn, k_eval
from .params import ModelParams, ParamError
from .variational import EnergyReport, _masked_log_product, energy_report


def rhs(
    u: GridField, v: GridField, params: ModelParams, K_p: KirchhoffFn, K_q: KirchhoffFn
) -> tuple[GridField, GridField]:
    """Right-hand side of the semi-discrete gradient flow.

    The reaction at a node vanishes whenever u_i v_i = 0 (continuous extension
    of t^sigma log t).  The diffusion carries the 1/p (resp. 1/q) gradient
    scaling that makes the energy chain with the consistent Nehari functional
    exact; see the module docstring.
    """
    p, q, sig, s = params.p, params.q, params.sigma, params.s
    (Lu, gag_u), (Lv, gag_v) = pair_pass(u, p, v, q, s, operator=True)
    A, B = gag_u / p, gag_v / q
    uu, vv = u.values, v.values
    lg, _ = _masked_log_product(uu, vv)
    f1 = np.abs(vv) ** sig * np.sign(uu) * np.abs(uu) ** (sig - 1.0) * lg
    f2 = np.abs(uu) ** sig * np.sign(vv) * np.abs(vv) ** (sig - 1.0) * lg
    du = -(k_eval(K_p, A) / p) * Lu + f1
    dv = -(k_eval(K_q, B) / q) * Lv + f2
    return GridField(u.domain, du), GridField(v.domain, dv)


# Dormand-Prince 5(4) tableau (FSAL: last stage is the derivative at the new state)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


@dataclass(frozen=True)
class IntegratorControls:
    t_end: float
    dt_init: float = 1e-6
    dt_min: float = 1e-13
    rtol: float = 1e-8
    blowup_threshold: float = 1e8
    dt_max: float | None = None
    growth_factor: float = 10.0   # dt-floor counts as blow-up past this much max-abs growth

    def __post_init__(self):
        for name in ("t_end", "dt_init", "dt_min", "rtol", "blowup_threshold"):
            if getattr(self, name) <= 0:
                raise ParamError(f"integrator control {name} must be positive")


@dataclass(frozen=True)
class RunOutcome:
    kind: str                    # CompletedHorizon | BlowUp | StepUnderflow
    t: float
    trigger: str = ""            # for BlowUp: norm_threshold | dt_floor

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "t": self.t}
        if self.kind == "BlowUp":
            out["t_detect"] = self.t
            out["trigger"] = self.trigger
        return out


@dataclass(frozen=True)
class StepRecord:
    t: float
    dt: float
    report: EnergyReport
    ut_sq: float                 # |u_t|_2^2 from the evaluated right-hand side
    vt_sq: float
    maxabs_u: float
    maxabs_v: float
    dissipation: float           # cumulative D(t)


@dataclass(frozen=True)
class SimTrace:
    """Time series of accepted steps plus run metadata.

    ``D(t)`` is the cumulative dissipation integral of |u_t|^2 + |v_t|^2,
    accumulated per step with the integrator's fifth-order stage weights; it
    is non-decreasing and enters the energy-identity residual.
    """

    records: tuple[StepRecord, ...]
    outcome: RunOutcome
    params: ModelParams
    psi_variant: str = "consistent"

    def column(self, name: str) -> np.ndarray:
        if name in StepRecord.__dataclass_fields__:
            return np.array([getattr(r, name) for r in self.records])
        return np.array([getattr(r.report, name) for r in self.records])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    @property
    def phis(self) -> np.ndarray:
        return self.column("phi")

    @property
    def D(self) -> np.ndarray:
        return self.column("dissipation")

    @property
    def mass(self) -> np.ndarray:
        """|u|_2^2 + |v|_2^2 per record."""
        return self.column("l2_u") ** 2 + self.column("l2_v") ** 2


def integrate(
    u0: GridField,
    v0: GridField,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    controls: IntegratorControls,
) -> SimTrace:
    """Adaptive Dormand-Prince 5(4) integration of the semi-discrete flow.

    A StepRecord is emitted at t = 0 and at every accepted step.  Termination:
    the horizon t_end (CompletedHorizon); max-abs beyond the blow-up threshold
    or non-finite values (BlowUp, norm_threshold); step size under dt_min
    (BlowUp with trigger dt_floor when max-abs grew by the configured factor,
    StepUnderflow otherwise).
    """
    n = u0.domain.node_count
    domain = u0.domain

    def f(y: np.ndarray) -> np.ndarray:
        du, dv = rhs(GridField(domain, y[:n]), GridField(domain, y[n:]),
                     params, K_p, K_q)
        return np.concatenate([du.values, dv.values])

    def gval(fy: np.ndarray) -> float:
        hN = domain.cell_measure
        return float(np.sum(fy[:n] ** 2) * hN + np.sum(fy[n:] ** 2) * hN)

    y = np.concatenate([u0.values, v0.values])
    initial_maxabs = float(np.max(np.abs(y)))
    t = 0.0
    D = 0.0
    records: list[StepRecord] = []

    def snapshot(t, dt, y, fy, D):
        uf = GridField(domain, y[:n])
        vf = GridField(domain, y[n:])
        rep = energy_report(uf, vf, params, K_p, K_q)
        hN = domain.cell_measure
        records.append(StepRecord(
            t=t, dt=dt, report=rep,
            ut_sq=float(np.sum(fy[:n] ** 2) * hN),
            vt_sq=float(np.sum(fy[n:] ** 2) * hN),
            maxabs_u=uf.max_abs(), maxabs_v=vf.max_abs(),
            dissipation=D,
        ))

    k1 = f(y)
    snapshot(t, 0.0, y, k1, D)
    dt = min(controls.dt_init, controls.t_end)
    if controls.dt_max is not None:
        dt = min(dt, controls.dt_max)

    def finish(kind, t, trigger=""):
        return SimTrace(tuple(records), RunOutcome(kind, t, trigger), params)

    while t < controls.t_end:
        dt = min(dt, controls.t_end - t)
        ks = [k1]
        for i in range(1, 7):
            yi = y + dt * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(f(yi))
        y5 = y + dt * sum(b * k for b, k in zip(_DP_B5, ks) if b)
        y4 = y + dt * sum(b * k for b, k in zip(_DP_B4, ks) if b)
        err = float(np.max(np.abs(y5 - y4)))
        tol = controls.rtol * (1.0 + float(np.max(np.abs(y))))

        if not math.isfinite(err) or not np.all(np.isfinite(y5)):
            # overflow inside the step: counts as exceeding the norm threshold
            return finish("BlowUp", t, "norm_threshold")

        if err <= tol:
            t += dt
            # same-tableau stage quadrature of the dissipation integrand
            incr = dt * sum(b * gval(k) for b, k in zip(_DP_B5, ks) if b)
            D += max(incr, 0.0)
            y = y5
            k1 = ks[6]
            snapshot(t, dt, y, k1, D)
            maxabs = float(np.max(np.abs(y)))
            if maxabs > controls.blowup_threshold:
                return finish("BlowUp", t, "norm_threshold")

        fac = 0.9 * (tol / max(err, 1e-300)) ** 0.2
        dt *= min(5.0, max(0.2, fac))
        if controls.dt_max is not None:
            dt = min(dt, controls.dt_max)
        if dt < controls.dt_min:
            maxabs = float(np.max(np.abs(y)))
            if maxabs > controls.growth_factor * max(initial_maxabs, 1e-300):
                return finish("BlowUp", t, "dt_floor")
            return finish("StepUnderflow", t)

    return finish("CompletedHorizon", t)


# ---------------------------------------------------------------------------
# dissipation identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualSummary:
    series: np.ndarray
    max_abs: float
    max_positive: float


def energy_identity_residual(trace: SimTrace) -> ResidualSummary:
    """Residual series r(t) = D(t) + phi(t) - phi(0) along a trace."""
    if len(trace.records) < 2:
        raise ValueError("residual needs at least two records")
    phis = trace.phis
    r = trace.D + phis - phis[0]
    return ResidualSummary(series=r, max_abs=float(np.max(np.abs(r))),
                           max_positive=float(max(np.max(r), 0.0)))


# ---------------------------------------------------------------------------
# decay-rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    kind: str                    # exponential | polynomial | inconclusive
    rate: float | None           # decay rate mu (exponential) or exponent (polynomial)
    ss_exponential: float
    ss_polynomial: float
    goodness_ratio: float        # rejected SS / selected SS (>= 1)
    tail_points: int
    predicted_exponent: float | None = None
    predicted_kind: str | None = None
    note: str = ""


def fit_decay(ts: np.ndarray, phis: np.ndarray, tail_fraction: float = 0.5) -> DecayFit:
    """Least-squares comparison of exponential vs. polynomial decay on a tail.

    Fits log(phi) against t (exponential) and against log(1+t) (polynomial)
    over the final ``tail_fraction`` of the time span and keeps the smaller
    residual.  Non-positive phi in the tail, too few points, or a flat series
    make the fit inconclusive.
    """
    ts = np.asarray(ts, float)
    phis = np.asarray(phis, float)
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail fraction must lie in (0, 1]")
    cut = ts[-1] - tail_fraction * (ts[-1] - ts[0])
    sel = ts >= cut
    tt, pp = ts[sel], phis[sel]
    if len(tt) < 4:
        return DecayFit("inconclusive", None, math.nan, math.nan, math.nan,
                        len(tt), note="too few tail points")
    if np.any(pp <= 0.0):
        return DecayFit("inconclusive", None, math.nan, math.nan, math.nan,
                        len(tt), note="non-positive energy in tail")
    logp = np.log(pp)
    if np.ptp(logp) < 1e-12:
        return DecayFit("inconclusive", 0.0, 0.0, 0.0, 1.0, len(tt),
                        note="flat tail: zero slope in both fits")

    def lsq(design: np.ndarray) -> tuple[float, float]:
        coef, *_ = np.linalg.lstsq(design, logp, rcond=None)
        resid = logp - design @ coef
        return float(coef[1]), float(np.sum(resid ** 2))

    mu, ss_exp = lsq(np.column_stack([np.ones_like(tt), -tt]))
    k, ss_poly = lsq(np.column_stack([np.ones_like(tt), -np.log1p(tt)]))
    if ss_exp <= ss_poly:
        kind, rate, ratio = "exponential", mu, ss_poly / max(ss_exp, 1e-300)
    else:
        kind, rate, ratio = "polynomial", k, ss_exp / max(ss_poly, 1e-300)
    return DecayFit(kind, rate, ss_exp, ss_poly, ratio, len(tt))


def decay_fit(trace: SimTrace, tail_fraction: float = 0.5) -> DecayFit:
    """Decay fit of a completed run's energy, annotated with the predicted envelope."""
    if trace.outcome.kind != "CompletedHorizon":
        raise ValueError("decay fit needs a completed-horizon run")
    base = fit_decay(trace.times, trace.phis, tail_fraction)
    p = trace.params
    predicted_kind = "exponential" if p.exponential_regime else "polynomial"
    predicted_exp = None if p.exponential_regime else p.poly_decay_exponent
    return DecayFit(
        kind=base.kind, rate=base.rate, ss_exponential=base.ss_exponential,
        ss_polynomial=base.ss_polynomial, goodness_ratio=base.goodness_ratio,
        tail_points=base.tail_points, predicted_exponent=predicted_exp,
        predicted_kind=predicted_kind, note=base.note,
    )


# ---------------------------------------------------------------------------
# tail-integral decay criterion (Komornik-type inequality)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailDecayReport:
    hypothesis_ok: bool
    conclusion_ok: bool
    implication_ok: bool         # no sample where the hypothesis holds but the conclusion fails
    hypothesis_violations: np.ndarray
    conclusion_violations: np.ndarray
    max_conclusion_residual: float


def tail_decay_check(
    ts: Sequence[float], R: Sequence[float], eta: float, C: float, slack: float = 1e-10
) -> TailDecayReport:
    """Check the integral decay criterion on a sampled non-increasing series.

    Hypothesis at each sample t: the tail integral of R^(1+eta) is at most
    (1/C) R(0)^eta R(t) (trapezoidal tails; the truncated remainder beyond the
    last sample makes the check conservative).  Conclusion per eta: for
    eta = 0, R(t) <= R(0) e^(1-Ct); for eta > 0,
    R(t) <= R(0) ((1+eta)/(1+eta C t))^(1/eta).  The report lists violations
    of each and whether the implication survived (a conclusion violation only
    counts against the criterion when the hypothesis held at every sample).
    """
    ts = np.asarray(ts, float)
    R = np.asarray(R, float)
    if ts.ndim != 1 or ts.shape != R.shape or len(ts) < 3:
        raise ValueError("need matching 1-D samples, at least three")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample times must increase")
    if np.any(R < 0):
        raise ValueError("series must be nonnegative")
    if np.any(np.diff(R) > slack * (1.0 + np.abs(R[:-1]))):
        raise ValueError("series must be non-increasing")
    if eta < 0 or C <= 0:
        raise ValueError("need eta >= 0 and C > 0")

    g = R ** (1.0 + eta)
    seg = 0.5 * np.diff(ts) * (g[1:] + g[:-1])
    tails = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    scale_h = (1.0 / C) * R[0] ** eta * R + 1e-300
    hyp_viol = tails - (1.0 / C) * R[0] ** eta * R > slack * scale_h

    if eta == 0.0:
        envelope = R[0] * np.exp(1.0 - C * ts)
    else:
        envelope = R[0] * ((1.0 + eta) / (1.0 + eta * C * ts)) ** (1.0 / eta)
    scale_c = envelope + 1e-300
    concl_resid = (R - envelope) / scale_c
    concl_viol = concl_resid > slack

    hypothesis_ok = not bool(np.any(hyp_viol))
    conclusion_ok = not bool(np.any(concl_viol))
    return TailDecayReport(
        hypothesis_ok=hypothesis_ok,
        conclusion_ok=conclusion_ok,
        implication_ok=conclusion_ok or not hypothesis_ok,
        hypothesis_violations=np.flatnonzero(hyp_viol),
        conclusion_violations=np.flatnonzero(concl_viol),
        max_conclusion_residual=float(np.max(concl_resid)),
    )


# ---------------------------------------------------------------------------
# concavity diagnostic for blow-up traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    """Series G(t) = L''(t) L(t) - (sigma/2) L'(t)^2 along a trace.

    L combines the running time integral of the squared solution norms, the
    horizon-weighted initial mass, and the affine shift (a t + b)^2.  L' uses
    the closed form from differentiating under the integral; L'' uses the
    energy chain, L'' = -2 psi_consistent + 2 a^2.  Nonnegative G on a
    blow-up trace is the concavity certificate behind the finite-horizon
    bound; on other traces the series is informational.
    """

    ts: np.ndarray
    G: np.ndarray
    L: np.ndarray
    L_prime: np.ndarray
    L_second: np.ndarray
    horizon_estimate: float
    informational: bool

    @property
    def min_relative(self) -> float:
        scale = np.abs(self.L_second * self.L) + 0.5 * self.L_prime ** 2 + 1e-300
        return float(np.min(self.G / scale))


def concavity_diagnostic(trace: SimTrace, a: float, b: float, T: float) -> ConcavityReport:
    """Evaluate the concavity functional along a trace.

    Callers pick a in (0, sqrt(d_star - phi0)] and
    b > initial_mass / (a (sigma/2 - 1)); both are validated for positivity
    and the b threshold.  T is the reference horizon (at least the last trace
    time).
    """
    sig = trace.params.sigma
    if sig <= 2.0:
        raise ParamError("concavity diagnostic needs sigma > 2")
    if a <= 0 or b <= 0:
        raise ValueError("need a, b > 0")
    ts = trace.times
    mass = trace.mass
    mass0 = mass[0]
    if b * (a * (sig / 2.0 - 1.0)) <= mass0:
        raise ValueError("b below admissible threshold for the chosen a")
    if T < ts[-1]:
        raise ValueError("reference horizon T must cover the trace")
    psis = np.array([r.report.psi_consistent for r in trace.records])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(ts) * (mass[1:] + mass[:-1]))])
    L = cum + (T - ts) * mass0 + (a * ts + b) ** 2
    Lp = mass - mass0 + 2.0 * a * (a * ts + b)
    Lpp = -2.0 * psis + 2.0 * a ** 2
    G = Lpp * L - (sig / 2.0) * Lp ** 2
    horizon = L[0] / ((sig / 2.0 - 1.0) * Lp[0])
    return ConcavityReport(
        ts=ts, G=G, L=L, L_prime=Lp, L_second=Lpp,
        horizon_estimate=float(horizon),
        informational=trace.outcome.kind != "BlowUp",
    )
