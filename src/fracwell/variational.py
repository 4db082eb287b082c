"""Potential-well machinery: energy and Nehari functionals, fibering maps,
well depth, thresholds, initial-data classification, and the blow-up horizon
bound.

Two Nehari variants coexist.  The "consistent" variant is the exact derivative
of the energy along the fibering ray,

    psi_c(u, v) = K_p(A) A + K_q(B) B - 2 * log_coupling(u, v),

with A, B the seminorm brackets; it is the variant every identity in this
package (fibering derivative, energy chain of the flow, norm growth under
negative psi) satisfies exactly at the discrete level.  The "printed" variant
uses the raw Gagliardo sums and sigma+1 coupling exponents,

    psi_printed(u, v) = K_p(A) G_u + K_q(B) G_v
                        - 2 * integral |u v|^(sigma+1) log|uv|,

and is retained for side-by-side comparison; it does not satisfy the fibering
identity.  Classification defaults to the consistent variant.

The well depth d is the infimum of the energy over the Nehari set and is
estimated from above by sampling direction pairs, projecting each onto the
Nehari set along its ray, and taking the running minimum; it is an upper
estimate and is labeled as such wherever it is consumed.

The projection runs on arrays: all sampled rays are stacked into one batch
``FiberingRay`` and expanded and bisected together, each ray under the same
rules as a lone ray (a single ``find_epsilon_star`` is a batch of one).  The
results are bit-identical to a scalar bisection per ray.  That needs the
powers of eps to go through libm ``pow``, element by element, as Python's
float ``**`` does for a lone ray: numpy's vectorised power differs from libm
by an ulp on about 5 % of arguments, and a flipped sign test near the root
would move eps* and the iteration count.  Everything else (numpy's ``log``,
the Kirchhoff coefficients' numpy power, the four basic operations) is
elementwise and agrees bit for bit between arrays and scalars.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fracops import gagliardo_sum, pair_pass
from .grids import FieldPair, GridDomain, GridField, GridError, discrete_norm, sample_field
from .kirchhoff import KirchhoffFn, k_antideriv, k_eval
from .params import ModelParams, ParamError


class BracketingError(RuntimeError):
    """Raised when no sign change of the fibering derivative can be bracketed."""


# ---------------------------------------------------------------------------
# coupling integrals (0 * log 0 := 0 at nodes where u v vanishes)
# ---------------------------------------------------------------------------

def _masked_log_product(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    prod = np.abs(u) * np.abs(v)
    mask = prod > 0.0
    out = np.zeros_like(prod)
    out[mask] = np.log(prod[mask])
    return out, mask


def coupling_mass(u: GridField, v: GridField, sigma: float) -> float:
    """integral over the box of |u|^sigma |v|^sigma."""
    if u.domain != v.domain:
        raise GridError("coupling integrals need a shared domain")
    hN = u.domain.cell_measure
    return float(np.sum(np.abs(u.values) ** sigma * np.abs(v.values) ** sigma) * hN)


def log_coupling(u: GridField, v: GridField, sigma: float) -> float:
    """integral of |u|^sigma |v|^sigma log|uv|, with 0 where u v = 0."""
    return _log_couplings(u, v, sigma)[0]


def _log_couplings(u: GridField, v: GridField, sigma: float) -> tuple[float, float, float]:
    """(integral |u|^sigma |v|^sigma log|uv|, integral |uv|^(sigma+1),
    integral |uv|^(sigma+1) log|uv|), from one masked log."""
    if u.domain != v.domain:
        raise GridError("coupling integrals need a shared domain")
    if sigma <= 1.0:
        raise ParamError(f"coupling exponent must exceed 1, got {sigma}")
    lg, mask = _masked_log_product(u.values, v.values)
    hN = u.domain.cell_measure
    vals = np.abs(u.values[mask]) ** sigma * np.abs(v.values[mask]) ** sigma * lg[mask]
    pw = (np.abs(u.values[mask]) * np.abs(v.values[mask])) ** (sigma + 1.0)
    return (float(np.sum(vals) * hN),
            float(np.sum((np.abs(u.values) * np.abs(v.values)) ** (sigma + 1.0)) * hN),
            float(np.sum(pw * lg[mask]) * hN))


def _ray_sums(u: GridField, v: GridField, params: ModelParams) -> dict[str, float]:
    """The six sums a ``FiberingRay`` holds, by field name.

    Both brackets come from one pair pass, the three log couplings from one
    masked log; each value is bit-identical to its public function.
    """
    p, q, sig = params.p, params.q, params.sigma
    (_, gag_u), (_, gag_v) = pair_pass(u, p, v, q, params.s, operator=False)
    c0 = coupling_mass(u, v, sig)
    l0, chi, lchi = _log_couplings(u, v, sig)
    return dict(bracket_u=gag_u / p, bracket_v=gag_v / q, coupling_mass=c0,
                log_coupling=l0, coupling_high=chi, log_coupling_high=lchi)


# ---------------------------------------------------------------------------
# energy / Nehari reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """All variational quantities of one state (u, v)."""

    bracket_u: float
    bracket_v: float
    gagliardo_u: float
    gagliardo_v: float
    khat_u: float
    khat_v: float
    coupling_mass: float
    log_coupling: float
    coupling_high: float
    log_coupling_high: float
    phi: float
    psi_consistent: float
    psi_printed: float
    l2_u: float
    l2_v: float

    def psi(self, variant: str = "consistent") -> float:
        if variant == "consistent":
            return self.psi_consistent
        if variant == "printed":
            return self.psi_printed
        raise ValueError(f"unknown psi variant {variant!r}")


def energy_report(
    u: GridField, v: GridField, params: ModelParams, K_p: KirchhoffFn, K_q: KirchhoffFn
) -> EnergyReport:
    """Evaluate the energy, both Nehari variants, and all their ingredients."""
    p, q, sig = params.p, params.q, params.sigma
    sums = _ray_sums(u, v, params)
    A, B, l0 = sums["bracket_u"], sums["bracket_v"], sums["log_coupling"]
    gag_u, gag_v = p * A, q * B
    khat_u = k_antideriv(K_p, A)
    khat_v = k_antideriv(K_q, B)
    phi = khat_u / p + khat_v / q + sums["coupling_mass"] / sig ** 2 - l0 / sig
    psi_c = k_eval(K_p, A) * A + k_eval(K_q, B) * B - 2.0 * l0
    psi_pr = (k_eval(K_p, A) * gag_u + k_eval(K_q, B) * gag_v
              - 2.0 * sums["log_coupling_high"])
    return EnergyReport(
        **sums, gagliardo_u=gag_u, gagliardo_v=gag_v, khat_u=khat_u, khat_v=khat_v,
        phi=phi, psi_consistent=psi_c, psi_printed=psi_pr,
        l2_u=discrete_norm(u, 2.0), l2_v=discrete_norm(v, 2.0),
    )


def energy_phi(u, v, params, K_p, K_q) -> float:
    return energy_report(u, v, params, K_p, K_q).phi


def nehari_psi(u, v, params, K_p, K_q, variant: str = "consistent") -> float:
    return energy_report(u, v, params, K_p, K_q).psi(variant)


# ---------------------------------------------------------------------------
# fibering ray
# ---------------------------------------------------------------------------

def _libm_pow(eps, e: float):
    """eps ** e, through libm ``pow`` element by element when eps is an array."""
    if np.ndim(eps) == 0:
        return eps ** e
    return np.array([x ** e for x in eps.tolist()])


_RAY_SUMS = ("bracket_u", "bracket_v", "coupling_mass", "log_coupling",
             "coupling_high", "log_coupling_high")


@dataclass(frozen=True)
class FiberingRay:
    """Scalar reduction of (u, v) enabling O(1) evaluation along eps -> (eps u, eps v).

    All functionals are homogeneous along the ray, so the pairwise sums are
    computed once and rescaled analytically; values agree with direct
    evaluation at the scaled fields to floating-point homogeneity accuracy.

    The sums may also be equal-length arrays (see ``stack``): the object is
    then a batch of rays sharing params and coefficients, and each method
    takes an eps array of that length and evaluates ray i at eps[i].
    """

    params: ModelParams
    K_p: KirchhoffFn
    K_q: KirchhoffFn
    bracket_u: float
    bracket_v: float
    coupling_mass: float
    log_coupling: float
    coupling_high: float
    log_coupling_high: float

    @classmethod
    def from_pair(cls, u, v, params, K_p, K_q) -> "FiberingRay":
        return cls(params=params, K_p=K_p, K_q=K_q, **_ray_sums(u, v, params))

    @classmethod
    def stack(cls, rays: Sequence["FiberingRay"]) -> "FiberingRay":
        """One batch of the given rays, which share params and coefficients."""
        return dataclasses.replace(
            rays[0], **{f: np.array([getattr(r, f) for r in rays]) for f in _RAY_SUMS})

    def take(self, idx) -> "FiberingRay":
        """The sub-batch of the rays at the given indices."""
        return dataclasses.replace(self, **{f: getattr(self, f)[idx] for f in _RAY_SUMS})

    def scaled_brackets(self, eps):
        """Brackets of the scaled pair; eps may be a scalar or an array."""
        p, q = self.params.p, self.params.q
        return _libm_pow(eps, p) * self.bracket_u, _libm_pow(eps, q) * self.bracket_v

    def log_coupling_at(self, eps):
        sig = self.params.sigma
        return _libm_pow(eps, 2 * sig) * (
            self.log_coupling + 2.0 * np.log(eps) * self.coupling_mass)

    def phi(self, eps):
        p, q, sig = self.params.p, self.params.q, self.params.sigma
        A, B = self.scaled_brackets(eps)
        c = _libm_pow(eps, 2 * sig) * self.coupling_mass
        return (
            k_antideriv(self.K_p, A) / p
            + k_antideriv(self.K_q, B) / q
            + c / sig ** 2
            - self.log_coupling_at(eps) / sig
        )

    def psi_consistent(self, eps):
        A, B = self.scaled_brackets(eps)
        return k_eval(self.K_p, A) * A + k_eval(self.K_q, B) * B - 2.0 * self.log_coupling_at(eps)

    def psi_printed(self, eps):
        p, q, sig = self.params.p, self.params.q, self.params.sigma
        A, B = self.scaled_brackets(eps)
        high = _libm_pow(eps, 2 * sig + 2) * (
            self.log_coupling_high + 2.0 * np.log(eps) * self.coupling_high
        )
        return k_eval(self.K_p, A) * p * A + k_eval(self.K_q, B) * q * B - 2.0 * high

    def psi(self, eps: float, variant: str = "consistent") -> float:
        if variant == "consistent":
            return self.psi_consistent(eps)
        if variant == "printed":
            return self.psi_printed(eps)
        raise ValueError(f"unknown psi variant {variant!r}")

    def psi_scale(self, eps: float) -> float:
        """Magnitude of the two coefficient terms; reference scale for residuals."""
        A, B = self.scaled_brackets(eps)
        return abs(k_eval(self.K_p, A) * A) + abs(k_eval(self.K_q, B) * B)


def fibering_scan(
    u: GridField,
    v: GridField,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    eps_grid: Sequence[float],
) -> list[dict]:
    """Functional evaluations at the scaled pairs (eps u, eps v).

    Each row holds eps, phi, and both Nehari variants, evaluated on the
    fibering ray of (u, v): the pairwise sums are computed once and each eps
    costs O(1).  Homogeneity makes this exact up to rounding; the values agree
    with direct evaluation at the scaled fields to about 1e-14 relative.  No
    interpolation is performed.  The grid must be positive and sorted
    ascending.
    """
    return _scan_pair(u, v, params, K_p, K_q, eps_grid)[1]


def _scan_pair(u, v, params, K_p, K_q, eps_grid) -> tuple[FiberingRay, list[dict]]:
    """``fibering_scan``, which also returns the ray it evaluated."""
    eps_arr = np.asarray(list(eps_grid), dtype=float)
    if eps_arr.size == 0:
        raise ValueError("empty eps grid")
    if np.any(eps_arr <= 0) or np.any(np.diff(eps_arr) <= 0):
        raise ValueError("eps grid must be positive and strictly increasing")
    if u.max_abs() == 0.0 and v.max_abs() == 0.0:
        raise ValueError("fibering scan needs a nonzero pair")
    ray = FiberingRay.from_pair(u, v, params, K_p, K_q)
    return ray, [
        dict(eps=float(eps), phi=float(ray.phi(eps)),
             psi_consistent=float(ray.psi_consistent(eps)),
             psi_printed=float(ray.psi_printed(eps)))
        for eps in eps_arr
    ]


@dataclass(frozen=True)
class EpsilonStar:
    value: float
    residual: float
    residual_scale: float
    iterations: int


def find_epsilon_star(
    u: GridField,
    v: GridField,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    variant: str = "consistent",
    eps_min: float = 1e-8,
    eps_max: float = 1e8,
    rel_tol: float = 1e-10,
) -> EpsilonStar:
    """Locate the critical fibering scale where psi(eps u, eps v) crosses zero.

    Bisection in log-eps on the sign change of the chosen Nehari variant,
    after geometric expansion of the bracket from eps = 1.  Raises
    ``BracketingError`` when no sign change exists inside [eps_min, eps_max]
    (possible e.g. when u and v have disjoint supports, so the coupling never
    turns the derivative negative).
    """
    if u.max_abs() == 0.0 and v.max_abs() == 0.0:
        raise BracketingError("fibering root not bracketed: zero pair")
    ray = FiberingRay.from_pair(u, v, params, K_p, K_q)
    return _epsilon_star(ray, variant, eps_min, eps_max, rel_tol)


def _epsilon_star(ray, variant, eps_min=1e-8, eps_max=1e8, rel_tol=1e-10) -> EpsilonStar:
    """``_project_rays`` on a batch of one, with the residual at eps*."""
    star, iters, side = _project_rays(FiberingRay.stack([ray]), variant,
                                      eps_min, eps_max, rel_tol)
    if side[0]:
        raise BracketingError(
            f"fibering root not bracketed {'above' if side[0] > 0 else 'below'}")
    value = float(star[0])
    return EpsilonStar(value, ray.psi(value, variant), ray.psi_scale(value), int(iters[0]))


def _project_rays(ray: FiberingRay, variant: str, eps_min: float = 1e-8,
                  eps_max: float = 1e8, rel_tol: float = 1e-10):
    """Critical scales of a batch of rays: arrays (eps*, iterations, side).

    Every ray follows the rules of a lone bisection.  A ray with psi(1) = 0
    has eps* = 1 after 0 iterations.  Otherwise the bracket [lo, hi] starts
    at [1, 2] when psi(1) > 0 and doubles while psi(hi) > 0, or starts at
    [1/2, 1] and halves while psi(lo) <= 0; once hi > eps_max (lo < eps_min)
    the ray stops with ``side`` +1 (-1), meaning no root was bracketed above
    (below), and its eps* is meaningless.  A bracketed ray is then bisected
    in log eps, keeping psi(lo) > 0 >= psi(hi), until hi/lo - 1 <= rel_tol
    or its iteration count passes 400, and eps* = sqrt(lo hi).  Each
    expansion and bisection step counts one iteration.  The rays still
    moving are kept as an index array; each step evaluates psi once on all
    of them.
    """
    n = len(ray.bracket_u)
    f1 = ray.psi(np.ones(n), variant)
    up = f1 > 0.0
    lo = np.where(up, 1.0, 0.5)     # hi = 2 lo, exactly, until the bisection
    iters = np.zeros(n, dtype=int)
    side = np.zeros(n, dtype=int)
    act = np.flatnonzero(f1 != 0.0)
    while act.size:
        f = ray.take(act).psi(np.where(up[act], 2.0 * lo[act], lo[act]), variant)
        act = act[np.where(up[act], f > 0.0, f <= 0.0)]
        lo[act] *= np.where(up[act], 2.0, 0.5)
        iters[act] += 1
        out = np.where(up[act], 2.0 * lo[act] > eps_max, lo[act] < eps_min)
        side[act[out]] = np.where(up[act[out]], 1, -1)
        act = act[~out]
    hi = 2.0 * lo
    act = np.flatnonzero((f1 != 0.0) & (side == 0))
    act = act[hi[act] / lo[act] - 1.0 > rel_tol]
    while act.size:
        mid = np.sqrt(lo[act] * hi[act])
        pos = ray.take(act).psi(mid, variant) > 0.0
        lo[act] = np.where(pos, mid, lo[act])
        hi[act] = np.where(pos, hi[act], mid)
        iters[act] += 1
        act = act[(iters[act] <= 400) & (hi[act] / lo[act] - 1.0 > rel_tol)]
    star = np.where(f1 == 0.0, 1.0, np.sqrt(lo * hi))
    return star, iters, side


# ---------------------------------------------------------------------------
# well depth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellSample:
    label: str
    eps_star: float
    phi_at_star: float


@dataclass(frozen=True)
class WellEstimate:
    """Upper estimate of the well depth from sampled Nehari points.

    ``d`` is the minimum of phi over the sampled, ray-projected direction
    pairs; the true well depth is an infimum over an infinite-dimensional
    manifold, so this is an upper bound and any classification derived from it
    is relative to the estimate.
    """

    d: float
    samples: tuple[WellSample, ...]
    attempted: int
    bracketing_failures: int
    best_pair: FieldPair
    seed: int
    refine_iterations: int = 0

    @property
    def sample_count(self) -> int:
        return len(self.samples)


@lru_cache(maxsize=16)
def _sine_modes(grid: GridDomain, modes: int) -> tuple[np.ndarray, ...]:
    """Per axis a, the rows sin(k pi x_a / extent_a) for k = 1..modes (read-only)."""
    x = grid.coords
    tables = tuple(
        np.array([np.sin(k * np.pi * x[:, a] / ext) for k in range(1, modes + 1)])
        for a, ext in enumerate(grid.extents)
    )
    for t in tables:
        t.setflags(write=False)
    return tables


def _random_smooth_field(grid: GridDomain, rng: np.random.Generator, modes: int) -> GridField:
    """Random superposition of homogeneous-boundary modes with decaying weights."""
    vals = np.zeros(grid.node_count)
    if grid.ndim == 1:
        (sx,) = _sine_modes(grid, modes)
        for k in range(1, modes + 1):
            vals += rng.normal() / k ** 2 * sx[k - 1]
    else:
        sx, sy = _sine_modes(grid, modes)
        for k in range(1, modes + 1):
            for l in range(1, modes + 1):
                vals += rng.normal() / (k ** 2 + l ** 2) * sx[k - 1] * sy[l - 1]
    return GridField(grid, vals)


def _normalized(u: GridField) -> GridField | None:
    n = discrete_norm(u, 2.0)
    if n < 1e-14:
        return None
    return u.scaled(1.0 / n)


def direction_pairs(grid: GridDomain, count: int, seed: int, modes: int = 6,
                    include_presets: bool = True):
    """Deterministic stream of normalized direction pairs for well sampling."""
    if include_presets:
        sine = _normalized(sample_field(grid, "sine"))
        bump = _normalized(sample_field(grid, "bump"))
        yield "preset:sine-sine", FieldPair(sine, sine)
        yield "preset:bump-bump", FieldPair(bump, bump)
        yield "preset:sine-bump", FieldPair(sine, bump)
    root = np.random.SeedSequence(seed)
    for k, child in enumerate(root.spawn(count)):
        rng = np.random.default_rng(child)
        u = _normalized(_random_smooth_field(grid, rng, modes))
        v = _normalized(_random_smooth_field(grid, rng, modes))
        if u is None or v is None:
            continue
        yield f"random:{k}", FieldPair(u, v)


def estimate_well_depth(
    grid: GridDomain,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    directions: int = 200,
    seed: int = 0,
    modes: int = 6,
    include_presets: bool = True,
    refine_iters: int = 0,
    variant: str = "consistent",
) -> WellEstimate:
    """Sample direction pairs, project each onto the Nehari set, minimize phi.

    Optionally refines the best pair by coordinate descent on nodal values
    with re-projection through the critical fibering scale after each move;
    refinement can only lower the estimate.
    """
    if not params.well_regime:
        raise ParamError("well depth needs admissible (well-regime) parameters")
    drawn = list(direction_pairs(grid, directions, seed, modes, include_presets))
    found = np.zeros(0, dtype=int)
    if drawn:
        rays = FiberingRay.stack([FiberingRay.from_pair(pair.u, pair.v, params, K_p, K_q)
                                  for _, pair in drawn])
        star, _, side = _project_rays(rays, variant)
        found = np.flatnonzero(side == 0)
    if not found.size:
        raise BracketingError("no Nehari point found in any sampled direction")
    samples: list[WellSample] = []
    best_pair = None
    best_val = math.inf
    for i, val in zip(found.tolist(), rays.take(found).phi(star[found])):
        label, pair = drawn[i]
        samples.append(WellSample(label, float(star[i]), val))
        if val < best_val:
            best_val, best_pair = val, pair

    refine_done = 0
    if refine_iters > 0 and best_pair is not None:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD)))
        uvals = best_pair.u.values.copy()
        vvals = best_pair.v.values.copy()
        step = 0.05
        for it in range(refine_iters):
            which = rng.integers(2)
            idx = rng.integers(grid.node_count)
            delta = step * rng.choice((-1.0, 1.0))
            cand_u, cand_v = uvals.copy(), vvals.copy()
            (cand_u if which == 0 else cand_v)[idx] += delta
            pair_c = FieldPair(GridField(grid, cand_u), GridField(grid, cand_v))
            ray_c = FiberingRay.from_pair(pair_c.u, pair_c.v, params, K_p, K_q)
            try:
                star_c = _epsilon_star(ray_c, variant)
            except BracketingError:
                continue
            val_c = ray_c.phi(star_c.value)
            if val_c < best_val:
                best_val = val_c
                uvals, vvals = cand_u, cand_v
                best_pair = pair_c
                refine_done += 1
        samples.append(WellSample("refined", float("nan"), best_val))

    return WellEstimate(
        d=best_val,
        samples=tuple(samples),
        attempted=len(drawn),
        bracketing_failures=len(drawn) - found.size,
        best_pair=best_pair,
        seed=seed,
        refine_iterations=refine_done,
    )


# ---------------------------------------------------------------------------
# thresholds, classification, blow-up horizon
# ---------------------------------------------------------------------------

def compute_d_star(d: float, u0: GridField, v0: GridField, params: ModelParams) -> float:
    """Data-dependent classification threshold derived from the well depth.

    d_star = (d - C) * (1/(q(b+1)) - 1/sigma) / (1/p - 1/sigma) with
    C = coupling_mass(u0, v0)/sigma.  The threshold depends on the initial
    pair through C and may be non-positive; classification then reports
    Indeterminate.
    """
    if d <= 0:
        raise ValueError(f"well depth estimate must be positive, got {d}")
    q, p, sig, beta = params.q, params.p, params.sigma, params.beta
    C = coupling_mass(u0, v0, sig) / sig
    ratio = (1.0 / (q * (beta + 1.0)) - 1.0 / sig) / (1.0 / p - 1.0 / sig)
    return (d - C) * ratio


def blowup_time_bound(
    u0: GridField, v0: GridField, phi0: float, d_star: float, sigma: float
) -> float:
    """Upper bound on the maximal existence time for blow-up data.

    4(sigma-1)(|u0|_2^2 + |v0|_2^2) / (sigma (d_star - phi0) (sigma-2)^2)
    when d_star > phi0, +inf otherwise.  Requires sigma > 2.
    """
    if sigma <= 2.0:
        raise ParamError(f"horizon bound needs sigma > 2, got {sigma}")
    if d_star <= phi0:
        return math.inf
    mass = discrete_norm(u0, 2.0) ** 2 + discrete_norm(v0, 2.0) ** 2
    return 4.0 * (sigma - 1.0) * mass / (sigma * (d_star - phi0) * (sigma - 2.0) ** 2)


@dataclass(frozen=True)
class Classification:
    verdict: str                 # GlobalDecay | BlowUp | Indeterminate
    phi0: float
    psi0: float
    psi_variant: str
    d: float | None
    d_star: float
    predicted_decay: str         # exponential | polynomial | n/a
    decay_exponent: float | None
    t_max_bound: float
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "phi0": self.phi0,
            "psi0": self.psi0,
            "psi_variant": self.psi_variant,
            "d": self.d,
            "d_star": self.d_star,
            "predicted_decay": self.predicted_decay,
            "decay_exponent": self.decay_exponent,
            "t_max_bound": None if math.isinf(self.t_max_bound) else self.t_max_bound,
            "note": self.note,
        }


def classify_initial_data(
    u0: GridField,
    v0: GridField,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    d_star: float,
    variant: str = "consistent",
    d: float | None = None,
) -> Classification:
    """Classify initial data against the (estimated) threshold d_star.

    GlobalDecay when phi0 < d_star and psi0 >= 0; BlowUp when phi0 < d_star
    and psi0 < 0; Indeterminate otherwise (including the excluded origin).
    The verdict is relative to the sampled well-depth estimate behind d_star.
    """
    if u0.max_abs() == 0.0 and v0.max_abs() == 0.0:
        return Classification(
            verdict="Indeterminate", phi0=0.0, psi0=0.0, psi_variant=variant,
            d=d, d_star=d_star, predicted_decay="n/a", decay_exponent=None,
            t_max_bound=math.inf,
            note="origin excluded: fibering undefined at (0, 0)",
        )
    rep = energy_report(u0, v0, params, K_p, K_q)
    phi0, psi0 = rep.phi, rep.psi(variant)
    if phi0 < d_star and psi0 >= 0.0:
        kind = "exponential" if params.exponential_regime else "polynomial"
        expo = None if params.exponential_regime else params.poly_decay_exponent
        return Classification(
            verdict="GlobalDecay", phi0=phi0, psi0=psi0, psi_variant=variant,
            d=d, d_star=d_star, predicted_decay=kind, decay_exponent=expo,
            t_max_bound=math.inf, note="relative to estimated d",
        )
    if phi0 < d_star and psi0 < 0.0:
        bound = blowup_time_bound(u0, v0, phi0, d_star, params.sigma)
        return Classification(
            verdict="BlowUp", phi0=phi0, psi0=psi0, psi_variant=variant,
            d=d, d_star=d_star, predicted_decay="n/a", decay_exponent=None,
            t_max_bound=bound, note="relative to estimated d",
        )
    return Classification(
        verdict="Indeterminate", phi0=phi0, psi0=psi0, psi_variant=variant,
        d=d, d_star=d_star, predicted_decay="n/a", decay_exponent=None,
        t_max_bound=math.inf, note="phi0 >= d_star: hypotheses not met",
    )


# ---------------------------------------------------------------------------
# embedding constants and the log-coupling upper bound
# ---------------------------------------------------------------------------

def estimate_embedding_constant(
    grid: GridDomain,
    p: float,
    s: float,
    r: float,
    samples: int = 48,
    seed: int = 0,
    modes: int = 6,
    ascent_iters: int = 0,
) -> float:
    """Lower bound on the best constant of the seminorm -> L^r embedding.

    Maximizes discrete_norm(u, r) / gagliardo_sum(u, p, s)^(1/p) over preset
    and random smooth fields, optionally improved by nodal hill climbing.
    The true constant is a supremum over all fields, so the sampled maximum
    is a lower bound; results are not certified.
    """
    def ratio(vals: np.ndarray) -> float:
        u = GridField(grid, vals)
        g = gagliardo_sum(u, p, s)
        if g <= 0.0:
            return -math.inf
        return discrete_norm(u, r) / g ** (1.0 / p)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    candidates = [sample_field(grid, "sine").values, sample_field(grid, "bump").values]
    for _ in range(samples):
        candidates.append(_random_smooth_field(grid, rng, modes).values)
    best_vals, best = None, -math.inf
    for vals in candidates:
        val = ratio(vals)
        if val > best:
            best, best_vals = val, vals
    for _ in range(ascent_iters):
        idx = rng.integers(grid.node_count)
        delta = 0.05 * rng.choice((-1.0, 1.0)) * (1.0 + abs(best_vals[idx]))
        cand = best_vals.copy()
        cand[idx] += delta
        val = ratio(cand)
        if val > best:
            best, best_vals = val, cand
    return best


@dataclass(frozen=True)
class BoundGap:
    lhs: float
    rhs: float
    note: str = ""

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def embedding_bound_constant(grid: GridDomain, params: ModelParams,
                             seed: int = 0, samples: int = 32) -> float:
    """Aggregate constant S for the log-coupling upper bound (non-certified).

    Combines estimated embedding constants into the four candidate constants
    the bound's derivation produces and returns their maximum.  Requires both
    critical exponents finite.
    """
    p, q, sig, s = params.p, params.q, params.sigma, params.s
    pc, qc = params.p_crit, params.q_crit
    if math.isinf(pc) or math.isinf(qc):
        raise ParamError("log-coupling bound constant needs finite critical exponents")
    Sp = estimate_embedding_constant(grid, p, s, pc, samples=samples, seed=seed)
    Sq = estimate_embedding_constant(grid, q, s, qc, samples=samples, seed=seed + 1)
    U = grid.box_measure
    cands = (
        U / (sig * math.e) + Sp ** pc * math.exp(-(pc - sig)),
        U / (sig * math.e) + Sq ** qc * math.exp(-(qc - sig)),
        (1.0 + U) * Sp ** pc,
        (1.0 + U) * Sq ** qc,
    )
    return max(cands)


def log_coupling_bound_gap(
    u: GridField, v: GridField, params: ModelParams, S: float
) -> BoundGap:
    """Gap between the log-coupling integral and its seminorm upper bound.

    lhs = log_coupling(u, v); rhs combines the seminorm logarithms weighted by
    the sigma-masses plus S times the six seminorm powers (critical exponents
    and sigma).  When a critical exponent is infinite the corresponding power
    terms have no finite meaning: the gap is reported with a note and any
    check based on it should be skipped.
    """
    p, q, sig, s = params.p, params.q, params.sigma, params.s
    (_, gag_u), (_, gag_v) = pair_pass(u, p, v, q, s, operator=False)
    su = gag_u ** (1.0 / p)
    sv = gag_v ** (1.0 / q)
    if su <= 0.0 or sv <= 0.0:
        raise ValueError("log-coupling bound needs nonzero seminorms")
    lhs = log_coupling(u, v, sig)
    hN = u.domain.cell_measure
    mass_u = float(np.sum(np.abs(u.values) ** sig) * hN)
    mass_v = float(np.sum(np.abs(v.values) ** sig) * hN)
    rhs = math.log(su) * mass_u + math.log(sv) * mass_v
    note = ""
    if math.isinf(params.p_crit) or math.isinf(params.q_crit):
        note = "critical exponent infinite: power terms dropped, check skipped"
        rhs += S * (su ** sig + sv ** sig)
    else:
        pc, qc = params.p_crit, params.q_crit
        rhs += S * (su ** pc + sv ** pc + su ** qc + sv ** qc + su ** sig + sv ** sig)
    return BoundGap(lhs=lhs, rhs=rhs, note=note)


# ---------------------------------------------------------------------------
# structural lower bound used by the well-depth positivity argument
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellLowerBound:
    """Pieces of the coercivity inequality behind well-depth positivity.

    ``kirchhoff_part`` is phi - psi_c/sigma with the coupling leftovers
    removed; it provably dominates ``bracket_bound`` (the bracket-convention
    right-hand side).  ``printed_bound`` is the same right-hand side built on
    raw Gagliardo sums; configurations where it exceeds ``kirchhoff_part`` are
    exhibits of the prefactor ambiguity and are reported, not asserted.
    """

    kirchhoff_part: float
    bracket_bound: float
    printed_bound: float
    coupling_leftover: float

    @property
    def holds(self) -> bool:
        scale = max(abs(self.kirchhoff_part), abs(self.bracket_bound), 1.0)
        return self.kirchhoff_part >= self.bracket_bound - 1e-10 * scale

    @property
    def printed_exhibit(self) -> bool:
        scale = max(abs(self.kirchhoff_part), abs(self.printed_bound), 1.0)
        return self.kirchhoff_part < self.printed_bound - 1e-10 * scale


def well_lower_bound(
    u: GridField, v: GridField, params: ModelParams, K_p: KirchhoffFn, K_q: KirchhoffFn
) -> WellLowerBound:
    p, q, sig, beta = params.p, params.q, params.sigma, params.beta
    rep = energy_report(u, v, params, K_p, K_q)
    coeff = 1.0 / (q * (beta + 1.0)) - 1.0 / sig
    ku = k_eval(K_p, rep.bracket_u) * rep.bracket_u
    kv = k_eval(K_q, rep.bracket_v) * rep.bracket_v
    leftover = rep.coupling_mass / sig ** 2 + rep.log_coupling / sig
    kirchhoff_part = rep.phi - rep.psi_consistent / sig - leftover
    return WellLowerBound(
        kirchhoff_part=kirchhoff_part,
        bracket_bound=coeff * (ku + kv),
        printed_bound=coeff * (k_eval(K_p, rep.bracket_u) * rep.gagliardo_u
                               + k_eval(K_q, rep.bracket_v) * rep.gagliardo_v),
        coupling_leftover=leftover,
    )
