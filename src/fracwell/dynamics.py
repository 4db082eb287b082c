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
count as exceeding it) and the step-size floor with norm growth.  The stage
evaluations and the error estimate run with numpy's overflow and invalid
warnings off, since a non-finite step is a blow-up outcome; a recorded row
keeps them, so a non-finite value there still shows.  The
cumulative dissipation is accumulated with the pair's own fifth-order stage
weights, which costs nothing (the stage derivatives are already available):
D is the fifth-order solution of the augmented dissipation equation
z' = |u_t|^2 + |v_t|^2, so the identity residual is the pair's global error
on the invariant phi + z and converges like it, O(rtol) or better.  The
integrand is non-negative, so a negative increment is recorded as 0 and one
that is not finite as +inf: once a stage's |u_t|^2 overflows, the weights'
two signs would make the increment inf - inf, and D stays +inf from that row
on instead of turning NaN.

The loop works on the stacked state y = [u, v] in reused buffers.  A run's
``Flow`` resolves the kernels of u and v once, and each stage is one
``rhs`` call: one pair pass, whose u_t and v_t go into one row of the stage
array.  The stage sums y + dt * sum(a_j k_j) are formed in place, term by
term in the tableau's order, so every value is bit-identical to the plain
expression.  The pair is FSAL ("first same as last"): the seventh stage is
evaluated at the fifth-order solution itself and becomes the next step's
first.  A stage reads its brackets only through K(A), so when both
coefficients are constant (``KirchhoffFn.is_constant``) no stage takes the
Gagliardo sums and each uses the constant a, which is K(A) bit for bit at
every A.  Every trace row is the fibering ray of its accepted state: the
loop keeps a copy of each, and the run's six ray sums come from one stacked
``variational._ray_rows`` call, the route of ``FiberingRay.from_pair``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .fracops import Kernel, kernel, pair_values
from .grids import GridDomain, GridField
from .kirchhoff import KirchhoffFn, k_eval
from .params import ModelParams, ParamError, finite_number
from .variational import _RAY_SUMS, FiberingRay, _masked_log_product, _ray_rows


class Flow(NamedTuple):
    """The semi-discrete flow on one grid, with the kernels of u and v and
    whether both coefficients are constant resolved once."""

    params: ModelParams
    K_p: KirchhoffFn
    K_q: KirchhoffFn
    k_p: Kernel
    k_q: Kernel
    constant: bool

    @classmethod
    def on(cls, domain: GridDomain, params: ModelParams, K_p: KirchhoffFn,
           K_q: KirchhoffFn) -> "Flow":
        p, q, s = params.p, params.q, params.s
        return cls(params, K_p, K_q, kernel(domain, p, s), kernel(domain, q, s),
                   K_p.is_constant and K_q.is_constant)


def rhs(y: np.ndarray, flow: Flow, out: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of the semi-discrete gradient flow at the stacked
    state y = [u, v].

    Writes [u_t, v_t] into ``out`` (a new array when None) and returns it.
    The pass takes the Gagliardo sums only where a coefficient reads its
    bracket: on a flow whose coefficients are both constant, each
    coefficient is its constant a, which is K(A) bit for bit at any A.  The
    reaction at a node vanishes whenever u_i v_i = 0 (continuous extension
    of t^sigma log t).  The diffusion carries the 1/p (resp. 1/q) gradient
    scaling that makes the energy chain with the consistent Nehari
    functional exact; see the module docstring.
    """
    params, K_p, K_q, k_p, k_q, constant = flow
    p, q, sig = params.p, params.q, params.sigma
    n = len(y) // 2
    uu, vv = y[:n], y[n:]
    (Lu, gag_u), (Lv, gag_v) = pair_values(uu, k_p, vv, k_q, True, not constant)
    if constant:
        cp, cq = K_p.a, K_q.a
    else:
        cp, cq = k_eval(K_p, gag_u / p), k_eval(K_q, gag_v / q)
    lg, _ = _masked_log_product(uu, vv)
    ay = np.abs(y)
    partner = np.concatenate((ay[n:], ay[:n]))
    # [|v|^s sign(u)|u|^(s-1) lg, |u|^s sign(v)|v|^(s-1) lg], factor by factor
    reaction = partner ** sig * np.sign(y) * ay ** (sig - 1.0) * np.concatenate((lg, lg))
    if out is None:
        out = np.empty_like(y)
    np.multiply(Lu, -(cp / p), out=out[:n])
    np.multiply(Lv, -(cq / q), out=out[n:])
    out += reaction
    return out


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
# (stage, coefficient) terms of each stage state and of the two solutions
_STAGES = tuple(tuple(enumerate(a)) for a in _DP_A)
_FIFTH = tuple((j, b) for j, b in enumerate(_DP_B5) if b)
_FOURTH = tuple((j, b) for j, b in enumerate(_DP_B4) if b)

_GROWTH_FACTOR = 10.0   # dt-floor counts as blow-up past this much max-abs growth

# the values integrate records per accepted step, in order
_ROW = ("t", "dt", "l2_u", "l2_v", "maxabs_u", "maxabs_v", "D", "ut_sq", "vt_sq")


@dataclass(frozen=True)
class IntegratorControls:
    """Stepping controls: each a positive finite number (not a bool), stored
    as a float; ``dt_max`` may also be None, for no cap on the step.  The
    step floor ``dt_min`` may not exceed ``dt_init`` or a set ``dt_max``."""

    t_end: float
    dt_init: float = 1e-6
    dt_min: float = 1e-13
    rtol: float = 1e-8
    blowup_threshold: float = 1e8
    dt_max: float | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "dt_max":
                continue
            if not finite_number(value) or value <= 0:
                raise ParamError(f"integrator {f.name!r} must be a positive number, "
                                 f"not inf or NaN, got {value!r}")
            object.__setattr__(self, f.name, float(value))
        if self.dt_min > self.dt_init:
            raise ParamError(f"integrator 'dt_min' ({self.dt_min!r}) must not exceed "
                             f"integrator 'dt_init' ({self.dt_init!r})")
        if self.dt_max is not None and self.dt_max < self.dt_min:
            raise ParamError(f"integrator 'dt_max' ({self.dt_max!r}) must not be below "
                             f"integrator 'dt_min' ({self.dt_min!r})")


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


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Time series of accepted steps plus run metadata.

    ``trace[name]`` is the column of one name of ``COLUMNS``: one value per
    accepted step, the first at t = 0.  ``ut_sq`` and ``vt_sq`` are
    |u_t|_2^2 and |v_t|_2^2 from the evaluated right-hand side; ``D`` is the
    cumulative dissipation integral of their sum, accumulated per step with
    the integrator's fifth-order stage weights.  It is non-decreasing and
    +inf from the first step whose increment is not finite (never NaN).
    ``residual`` is the energy-identity residual D + phi - phi[0], with the
    first row 0.0 exactly, even where phi[0] is not finite.
    """

    COLUMNS = ("t", "dt", "phi", "psi_consistent", "psi_printed", "bracket_u",
               "bracket_v", "coupling_mass", "log_coupling", "l2_u", "l2_v",
               "maxabs_u", "maxabs_v", "D", "ut_sq", "vt_sq", "residual")

    columns: dict[str, np.ndarray]
    outcome: RunOutcome
    params: ModelParams

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["t"])

    @property
    def mass(self) -> np.ndarray:
        """|u|_2^2 + |v|_2^2 per record."""
        return self["l2_u"] ** 2 + self["l2_v"] ** 2


def integrate(
    u0: GridField,
    v0: GridField,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    controls: IntegratorControls,
) -> SimTrace:
    """Adaptive Dormand-Prince 5(4) integration of the semi-discrete flow.

    A trace row is recorded at t = 0 and at every accepted step.  The six ray
    sums of all rows come from one stacked ``_ray_rows`` call on the kept
    states, and phi and both Nehari variants are evaluated for all rows at
    once, on those rays at eps = 1.  Termination:
    the horizon t_end (CompletedHorizon); max-abs beyond the blow-up threshold
    or non-finite values (BlowUp, norm_threshold); step size under dt_min
    (BlowUp with trigger dt_floor when max-abs grew by ``_GROWTH_FACTOR``,
    StepUnderflow otherwise).
    """
    flow = Flow.on(u0.domain, params, K_p, K_q)
    n, hN = u0.domain.node_count, u0.domain.cell_measure
    y = np.concatenate([u0.values, v0.values])
    ks = np.empty((7, 2 * n))       # stage derivatives; ks[6] is the next step's ks[0]
    ys, y5, y4, acc, term = (np.empty(2 * n) for _ in range(5))
    rows: list[tuple] = []
    states: list[np.ndarray] = []     # each row's y

    def combine(terms, dt, out):
        """out = y + dt * sum(c * ks[j] for j, c in terms), operation for
        operation, into reused buffers."""
        (j, c), *rest = terms
        np.multiply(ks[j], c, out=acc)
        np.add(acc, 0.0, out=acc)       # sum() starts from 0, and 0 + (-0.0) is +0.0
        for j, c in rest:
            np.add(acc, np.multiply(ks[j], c, out=term), out=acc)
        np.multiply(acc, dt, out=acc)
        return np.add(y, acc, out=out)

    def sq_norms(k):
        """[|u_t|_2^2, |v_t|_2^2] of each stage row of k."""
        return (np.add.reduce((k ** 2).reshape(len(k), 2, n), axis=2) * hN).tolist()

    def snapshot(t, dt, D, sq):
        """Record the row of the current y, keeping a copy of y for its ray;
        sq holds the squared norms of its derivative.  Returns max |y|."""
        ay = np.abs(y)
        l2 = (np.add.reduce((ay ** 2.0).reshape(2, n), axis=1) * hN).tolist()
        top = np.max(ay.reshape(2, n), axis=1).tolist()
        states.append(y.copy())
        rows.append((t, dt, l2[0] ** 0.5, l2[1] ** 0.5, *top, D, *sq))
        return float(np.max(ay))

    def finish(kind, t, trigger=""):
        cols = dict(zip(_ROW, map(np.array, zip(*rows))))
        stack = np.array(states)
        cols.update(_ray_rows(stack[:, :n], stack[:, n:], u0.domain, params))
        ray = FiberingRay(params, K_p, K_q, **{name: cols[name] for name in _RAY_SUMS})
        ones = np.ones(len(rows))
        phi = ray.phi(ones)
        residual = cols["D"] + phi - phi[0]
        residual[0] = 0.0
        cols.update(phi=phi, psi_consistent=ray.psi_consistent(ones),
                    psi_printed=ray.psi_printed(ones), residual=residual)
        return SimTrace({name: cols[name] for name in SimTrace.COLUMNS},
                        RunOutcome(kind, t, trigger), params)

    rhs(y, flow, ks[0])
    t = D = 0.0
    ymax = initial_maxabs = snapshot(t, 0.0, D, sq_norms(ks[:1])[0])
    dt = min(controls.dt_init, controls.t_end)
    if controls.dt_max is not None:
        dt = min(dt, controls.dt_max)

    while t < controls.t_end:
        dt = min(dt, controls.t_end - t)
        # an overflow inside the step is caught below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 7):
                rhs(combine(_STAGES[i], dt, ys), flow, ks[i])
            combine(_FIFTH, dt, y5)
            combine(_FOURTH, dt, y4)
            err = float(np.max(np.abs(y5 - y4)))
        tol = controls.rtol * (1.0 + ymax)

        if not math.isfinite(err) or not np.all(np.isfinite(y5)):
            # overflow inside the step: counts as exceeding the norm threshold
            return finish("BlowUp", t, "norm_threshold")

        if err <= tol:
            t += dt
            # same-tableau stage quadrature of the dissipation integrand
            sq = sq_norms(ks)
            incr = dt * sum(b * (sq[j][0] + sq[j][1]) for j, b in _FIFTH)
            D += max(incr, 0.0) if math.isfinite(incr) else math.inf
            y, y5 = y5, y
            ks[0] = ks[6]
            ymax = snapshot(t, dt, D, sq[6])
            if ymax > controls.blowup_threshold:
                return finish("BlowUp", t, "norm_threshold")

        fac = 0.9 * (tol / max(err, 1e-300)) ** 0.2
        dt *= min(5.0, max(0.2, fac))
        if controls.dt_max is not None:
            dt = min(dt, controls.dt_max)
        if dt < controls.dt_min:
            if ymax > _GROWTH_FACTOR * max(initial_maxabs, 1e-300):
                return finish("BlowUp", t, "dt_floor")
            return finish("StepUnderflow", t)

    return finish("CompletedHorizon", t)


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
    base = fit_decay(trace["t"], trace["phi"], tail_fraction)
    p = trace.params
    return dataclasses.replace(
        base, predicted_kind="exponential" if p.exponential_regime else "polynomial",
        predicted_exponent=None if p.exponential_regime else p.poly_decay_exponent)


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
    ts = trace["t"]
    mass = trace.mass
    mass0 = mass[0]
    if b * (a * (sig / 2.0 - 1.0)) <= mass0:
        raise ValueError("b below admissible threshold for the chosen a")
    if T < ts[-1]:
        raise ValueError("reference horizon T must cover the trace")
    psis = trace["psi_consistent"]
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
