"""Potential-well machinery: energy and Nehari functionals, fibering maps,
well depth, thresholds, initial-data classification, and the blow-up horizon
bound.

Two Nehari variants coexist.  The "consistent" variant is the exact derivative
of the energy along the fibering ray,

    psi_c(u, v) = K_p(A) A + K_q(B) B - 2 * L(u, v),

with A, B the seminorm brackets and L the integral of
|u|^sigma |v|^sigma log|uv|; it is the variant every identity in this
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

``FiberingRay.of_rows`` is the one route from fields to rays: per stack of
row pairs (U, V), the brackets from one ``fracops._dense_pass`` per field
and the couplings from one masked log.  Every sum runs over one row, so each
ray is bit-identical to its pair's alone: a lone pair's ray (``from_pair``)
is a stack of one, the well-depth directions are stacks of 16 KiB per array
(each child generator of the seed draws a pair's mode weights in one call),
and a trace's rows are one stack.  The classification reads the coupling
mass behind its threshold d* from the ray that gives phi0 and psi0, and
``simulate`` scans the same ray for its fibering artifacts.

The projection runs on arrays: all sampled rays are one batch
``FiberingRay``, expanded and bisected together, each ray under the same
rules as a lone ray (``FiberingRay.epsilon_star`` is a batch of one).  The
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

from .fracops import _dense_pass, gagliardo_sum, kernel
from .grids import (
    GridDomain, GridField, GridError, discrete_norm, random_smooth_field, sample_field,
    smooth_mode_rows,
)
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
    if mask.all():      # the same elementwise logs, without the compaction
        return np.log(prod), mask
    out = np.zeros_like(prod)
    out[mask] = np.log(prod[mask])
    return out, mask


def _coupling_rows(U: np.ndarray, V: np.ndarray, sigma: float,
                   hN: float) -> dict[str, np.ndarray]:
    """The four coupling integrals of each row pair (U[i], V[i]) of nodal
    values, by field name, from one masked log: |u|^sigma |v|^sigma and
    |uv|^(sigma+1), each alone and times log|uv|.

    Every sum runs over one row, so each equals the sum of that pair alone
    bit for bit.  The log sums run over the nodes where uv != 0: a row where
    uv vanishes somewhere sums its compacted terms, since summing the
    zero-filled row would change the pairwise order.
    """
    lg, mask = _masked_log_product(U, V)
    au, av = np.abs(U), np.abs(V)
    c = au ** sigma * av ** sigma
    hi = (au * av) ** (sigma + 1.0)
    sums = [np.add.reduce(x, axis=-1) for x in (c, c * lg, hi, hi * lg)]
    for i in np.flatnonzero(~mask.all(axis=-1)):
        m = mask[i]
        sums[1][i], sums[3][i] = (np.add.reduce(x[i][m] * lg[i][m]) for x in (c, hi))
    return dict(zip(_RAY_SUMS[2:], [x * hN for x in sums]))


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
# the Nehari variants, the default first
PSI_VARIANTS = ("consistent", "printed")


@dataclass(frozen=True)
class EpsilonStar:
    value: float
    residual: float
    residual_scale: float
    iterations: int


@dataclass(frozen=True)
class FiberingRay:
    """Scalar reduction of (u, v) enabling O(1) evaluation along eps -> (eps u, eps v).

    All functionals are homogeneous along the ray, so the pairwise sums are
    computed once and rescaled analytically; values agree with direct
    evaluation at the scaled fields to floating-point homogeneity accuracy.
    phi, psi_consistent and psi_printed are written here only: the energy
    and Nehari values of a state, and every trace row, are its ray evaluated
    at eps = 1, where every power of eps and log(eps) is exact.

    The sums may also be equal-length arrays (see ``of_rows``): the object is
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
    def of_rows(cls, stacks, grid, params, K_p, K_q) -> "FiberingRay":
        """The batch of rays of the row pairs (U[i], V[i]) of the stacks
        (U, V), in order, each its pair's own ray bit for bit: per stack, one
        ``_dense_pass`` per field, operator off, and ``_coupling_rows``."""
        p, q, s = params.p, params.q, params.s
        k_p, k_q = kernel(grid, p, s), kernel(grid, q, s)
        sums = [dict(bracket_u=_dense_pass(U, k_p, False, True)[1] / p,
                     bracket_v=_dense_pass(V, k_q, False, True)[1] / q,
                     **_coupling_rows(U, V, params.sigma, grid.cell_measure))
                for U, V in stacks]
        return cls(params, K_p, K_q,
                   **{f: np.concatenate([c[f] for c in sums]) for f in _RAY_SUMS})

    @classmethod
    def from_pair(cls, u, v, params, K_p, K_q) -> "FiberingRay":
        """The ray of the pair (u, v): ``of_rows`` on a stack of one pair."""
        if u.domain != v.domain:
            raise GridError("ray sums need a shared domain")
        rays = cls.of_rows([(u.values[None], v.values[None])], u.domain, params, K_p, K_q)
        return dataclasses.replace(rays, **{f: float(getattr(rays, f)[0]) for f in _RAY_SUMS})

    def take(self, idx) -> "FiberingRay":
        """The sub-batch at the given indices; a lone ray is a batch of one."""
        return dataclasses.replace(
            self, **{f: np.atleast_1d(getattr(self, f))[idx] for f in _RAY_SUMS})

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
        return k_eval(self.K_p, A) * (p * A) + k_eval(self.K_q, B) * (q * B) - 2.0 * high

    def psi(self, eps: float, variant: str = "consistent") -> float:
        if variant not in PSI_VARIANTS:
            raise ValueError(f"unknown psi variant {variant!r}")
        return getattr(self, "psi_" + variant)(eps)

    def psi_scale(self, eps: float) -> float:
        """Magnitude of the two coefficient terms; reference scale for residuals."""
        A, B = self.scaled_brackets(eps)
        return abs(k_eval(self.K_p, A) * A) + abs(k_eval(self.K_q, B) * B)

    def scan(self, eps_grid: Sequence[float]) -> dict[str, np.ndarray]:
        """Columns eps, phi, psi_consistent and psi_printed on a finite,
        positive, strictly increasing eps grid: one array call per functional,
        equal bit for bit to the scalar calls and, by homogeneity, to direct
        evaluation at the scaled fields up to about 1e-14 relative."""
        eps = np.asarray(list(eps_grid), dtype=float)
        if eps.size == 0:
            raise ValueError("empty eps grid")
        if not (np.all(np.isfinite(eps) & (eps > 0)) and np.all(np.diff(eps) > 0)):
            raise ValueError("eps grid must be finite, positive and strictly increasing")
        return dict(eps=eps, phi=self.phi(eps), psi_consistent=self.psi_consistent(eps),
                    psi_printed=self.psi_printed(eps))

    def epsilon_star(self, variant: str = "consistent") -> EpsilonStar:
        """Locate the critical scale where psi(eps u, eps v) crosses zero.

        Bisection in log-eps on the sign change of the chosen Nehari variant,
        after geometric expansion of the bracket from eps = 1: the batch
        projection ``_project_rays`` on a batch of one, with psi at eps*.
        Raises ``BracketingError`` when no sign change exists inside
        [_EPS_MIN, _EPS_MAX] = [1e-8, 1e8] (possible e.g. when u and v have
        disjoint supports, so the coupling never turns the derivative
        negative), and when all six sums vanish, as for the zero pair: psi is then zero
        for every eps, so no root is isolated.
        """
        if not any(getattr(self, name) for name in _RAY_SUMS):
            raise BracketingError("fibering root not bracketed: psi vanishes on the whole ray")
        star, iters, side = _project_rays(self, variant)
        if side[0]:
            raise BracketingError(
                f"fibering root not bracketed {'above' if side[0] > 0 else 'below'}")
        value = float(star[0])
        return EpsilonStar(value, self.psi(value, variant), self.psi_scale(value),
                           int(iters[0]))


# the eps range and the bisection tolerance of every projection
_EPS_MIN, _EPS_MAX, _REL_TOL = 1e-8, 1e8, 1e-10


def _project_rays(ray: FiberingRay, variant: str):
    """Critical scales of a batch of rays: arrays (eps*, iterations, side).

    Every ray follows the rules of a lone bisection.  A ray with psi(1) = 0
    has eps* = 1 after 0 iterations.  Otherwise the bracket [lo, hi] starts
    at [1, 2] when psi(1) > 0 and doubles while psi(hi) > 0, or starts at
    [1/2, 1] and halves while psi(lo) <= 0; once hi > _EPS_MAX (lo < _EPS_MIN)
    the ray stops with ``side`` +1 (-1), meaning no root was bracketed above
    (below), and its eps* is meaningless.  A bracketed ray is then bisected
    in log eps, keeping psi(lo) > 0 >= psi(hi), until hi/lo - 1 <= _REL_TOL
    or its iteration count passes 400, and eps* = sqrt(lo hi).  Each
    expansion and bisection step counts one iteration.  The rays still
    moving are kept as an index array; each step evaluates psi once on all
    of them.
    """
    n = np.size(ray.bracket_u)
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
        out = np.where(up[act], 2.0 * lo[act] > _EPS_MAX, lo[act] < _EPS_MIN)
        side[act[out]] = np.where(up[act[out]], 1, -1)
        act = act[~out]
    hi = 2.0 * lo
    act = np.flatnonzero((f1 != 0.0) & (side == 0))
    act = act[hi[act] / lo[act] - 1.0 > _REL_TOL]
    while act.size:
        mid = np.sqrt(lo[act] * hi[act])
        pos = ray.take(act).psi(mid, variant) > 0.0
        lo[act] = np.where(pos, mid, lo[act])
        hi[act] = np.where(pos, hi[act], mid)
        iters[act] += 1
        act = act[(iters[act] <= 400) & (hi[act] / lo[act] - 1.0 > _REL_TOL)]
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
    pairs, which all vanish at the box edges; the true well depth is an
    infimum over the whole Nehari set, so this is a sampled upper estimate
    and any classification derived from it is relative to it.  It is loose:
    on ``configs/decay.json`` d = 0.934 sits about 15x above the constant
    pair u = v = 1, a Nehari point with phi = |U|/sigma^2 = 0.0625.
    """

    d: float
    samples: tuple[WellSample, ...]
    attempted: int
    bracketing_failures: int
    seed: int

    @property
    def sample_count(self) -> int:
        return len(self.samples)


def _direction_chunks(grid: GridDomain, count: int, seed: int, modes: int = 6):
    """Three preset direction pairs, then up to ``count`` random ones, all
    normalized, as chunks (labels, U, V) of stacked fields of 16 KiB each.

    Random pair k draws u's mode weights, then v's, from the k-th child of
    the seed, and is dropped if a field has norm below 1e-14.  Each row
    equals its lone field bit for bit, normalized as ``discrete_norm`` and
    ``GridField.scaled`` do.
    """
    per, step = modes ** grid.ndim, max(1, 1024 // grid.node_count)
    draws = np.array([np.random.default_rng(child).normal(size=2 * per)
                      for child in np.random.SeedSequence(seed).spawn(count)])
    draws = draws.reshape(-1, per)      # u_0, v_0, u_1, v_1, ...
    sine, bump = (sample_field(grid, name).values for name in ("sine", "bump"))
    chunks = [(["preset:sine-sine", "preset:bump-bump", "preset:sine-bump"],
               np.array([sine, sine, bump, bump, sine, bump]))]
    chunks += [([f"random:{k}" for k in range(i, min(i + step, count))],
                smooth_mode_rows(grid, draws[2 * i:2 * i + 2 * step], modes))
               for i in range(0, count, step)]
    for labels, rows in chunks:
        norms = _libm_pow(np.add.reduce(np.abs(rows) ** 2.0, axis=1) * grid.cell_measure, 0.5)
        rows *= (1.0 / np.maximum(norms, 1e-300))[:, None]
        keep = np.all(norms.reshape(-1, 2) >= 1e-14, axis=1)
        U, V = rows[0::2], rows[1::2]
        if not keep.all():
            labels, U, V = [label for label, k in zip(labels, keep) if k], U[keep], V[keep]
        yield labels, U, V


# estimates kept per process; one holds about 42 KiB at 200 directions
_WELL_MEMO_SIZE = 16


@lru_cache(maxsize=_WELL_MEMO_SIZE)
def estimate_well_depth(
    grid: GridDomain,
    params: ModelParams,
    K_p: KirchhoffFn,
    K_q: KirchhoffFn,
    directions: int = 200,
    seed: int = 0,
    modes: int = 6,
    refine_iters: int = 0,
    variant: str = "consistent",
) -> WellEstimate:
    """Sample direction pairs, project each onto the Nehari set, minimize phi.

    The directions vanish at the box edges, so ``d`` is a sampled upper
    estimate, about 15x above the constant pair's Nehari point on
    ``configs/decay.json`` (see ``WellEstimate``).  Optionally refines the
    best pair by coordinate descent on nodal values with re-projection
    through the critical fibering scale after each move; refinement can only
    lower the estimate.

    The estimate never reads the initial data, so it is memoized per
    process on its arguments as passed, in a bounded LRU of
    ``_WELL_MEMO_SIZE`` entries (``functools.lru_cache``: a positional and a
    keyword spelling of one call are two entries).  A repeated call returns
    the same frozen ``WellEstimate`` object; a raised error is not kept.  This pays only when one process asks more than once (a sweep in
    process, the test suite, ``fracwell validate``'s two well suites); a
    single ``fracwell simulate`` process computes its estimate once either
    way.  Code that replaces the sampler's internals (monkeypatching
    ``_direction_chunks`` or ``FiberingRay.of_rows``) should call
    ``estimate_well_depth.cache_clear()`` first.
    """
    if not params.well_regime:
        raise ParamError("well depth needs admissible (well-regime) parameters")
    chunks = list(_direction_chunks(grid, directions, seed, modes))
    rays = FiberingRay.of_rows([(U, V) for _, U, V in chunks], grid, params, K_p, K_q)
    labels = [label for chunk in chunks for label in chunk[0]]
    star, _, side = _project_rays(rays, variant)
    found = np.flatnonzero(side == 0)
    if not found.size:
        raise BracketingError("no Nehari point found in any sampled direction")
    samples: list[WellSample] = []
    best, best_val = None, math.inf
    for i, val in zip(found.tolist(), rays.take(found).phi(star[found])):
        samples.append(WellSample(labels[i], float(star[i]), val))
        if val < best_val:
            best, best_val = i, val

    if refine_iters > 0 and best is not None:
        pair = [np.concatenate([chunk[k] for chunk in chunks])[best] for k in (1, 2)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD)))
        step = 0.05
        for it in range(refine_iters):
            which = rng.integers(2)
            idx = rng.integers(grid.node_count)
            delta = step * rng.choice((-1.0, 1.0))
            cand = [pair[0].copy(), pair[1].copy()]
            cand[which][idx] += delta
            ray_c = FiberingRay.from_pair(GridField(grid, cand[0]), GridField(grid, cand[1]),
                                          params, K_p, K_q)
            try:
                star_c = ray_c.epsilon_star(variant)
            except BracketingError:
                continue
            val_c = ray_c.phi(star_c.value)
            if val_c < best_val:
                best_val, pair = val_c, cand
        samples.append(WellSample("refined", float("nan"), best_val))

    return WellEstimate(
        d=best_val,
        samples=tuple(samples),
        attempted=len(labels),
        bracketing_failures=len(labels) - found.size,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# thresholds, classification, blow-up horizon
# ---------------------------------------------------------------------------

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
    d: float
    d_star: float
    predicted_decay: str         # exponential | polynomial | n/a
    decay_exponent: float | None
    t_max_bound: float
    note: str = ""

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["t_max_bound"] = None if math.isinf(self.t_max_bound) else self.t_max_bound
        return out


def classify_initial_data(
    u0: GridField,
    v0: GridField,
    ray: FiberingRay,
    d: float,
    variant: str = "consistent",
) -> Classification:
    """Classify initial data against the threshold d_star derived from the
    (estimated) well depth d.

    ``ray`` is the pair's ``FiberingRay.from_pair(u0, v0, params, K_p, K_q)``,
    built once by the caller, who may read it again (``simulate`` scans it
    for the fibering artifacts).  d_star = (d - C) * (1/(q(b+1)) - 1/sigma)
    / (1/p - 1/sigma) with C the integral of |u0|^sigma |v0|^sigma over
    sigma, the ray's ``coupling_mass``.  The threshold depends
    on the initial pair through C and may be non-positive; classification
    then reports Indeterminate.

    GlobalDecay when phi0 < d_star and psi0 >= 0; BlowUp when phi0 < d_star
    and psi0 < 0; Indeterminate otherwise (including the excluded origin).
    The verdict is relative to the sampled well-depth estimate d.
    """
    if d <= 0:
        raise ValueError(f"well depth estimate must be positive, got {d}")
    params = ray.params
    q, p, sig, beta = params.q, params.p, params.sigma, params.beta
    C = ray.coupling_mass / sig
    ratio = (1.0 / (q * (beta + 1.0)) - 1.0 / sig) / (1.0 / p - 1.0 / sig)
    d_star = (d - C) * ratio
    if u0.max_abs() == 0.0 and v0.max_abs() == 0.0:
        return Classification(
            verdict="Indeterminate", phi0=0.0, psi0=0.0, psi_variant=variant,
            d=d, d_star=d_star, predicted_decay="n/a", decay_exponent=None,
            t_max_bound=math.inf,
            note="origin excluded: fibering undefined at (0, 0)",
        )
    phi0, psi0 = float(ray.phi(1.0)), float(ray.psi(1.0, variant))
    verdict, kind, expo, bound = "Indeterminate", "n/a", None, math.inf
    note = "phi0 >= d_star: hypotheses not met"
    if phi0 < d_star and psi0 >= 0.0:
        verdict, note = "GlobalDecay", "relative to estimated d"
        kind = "exponential" if params.exponential_regime else "polynomial"
        expo = None if params.exponential_regime else params.poly_decay_exponent
    elif phi0 < d_star and psi0 < 0.0:
        verdict, note = "BlowUp", "relative to estimated d"
        bound = blowup_time_bound(u0, v0, phi0, d_star, params.sigma)
    return Classification(
        verdict=verdict, phi0=phi0, psi0=psi0, psi_variant=variant, d=d, d_star=d_star,
        predicted_decay=kind, decay_exponent=expo, t_max_bound=bound, note=note,
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
) -> float:
    """Lower bound on the best constant of the seminorm -> L^r embedding.

    Maximizes discrete_norm(u, r) / gagliardo_sum(u, p, s)^(1/p) over preset
    and random smooth fields.  The true constant is a supremum over all
    fields, so the sampled maximum is a lower bound; results are not certified.
    """
    def ratio(u: GridField) -> float:
        g = gagliardo_sum(u, p, s)
        if g <= 0.0:
            return -math.inf
        return discrete_norm(u, r) / g ** (1.0 / p)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fields = [sample_field(grid, "sine"), sample_field(grid, "bump")]
    fields += [random_smooth_field(grid, rng, modes) for _ in range(samples)]
    return max(ratio(u) for u in fields)


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

    lhs is the log-coupling integral of (u, v), the ``log_coupling`` sum of
    its fibering ray; rhs combines the seminorm logarithms weighted by the
    sigma-masses plus S times the six seminorm powers (critical exponents
    and sigma).  When a critical exponent is infinite the corresponding power
    terms have no finite meaning: the gap is reported with a note and any
    check based on it should be skipped.
    """
    if u.domain != v.domain:
        raise GridError("coupling integrals need a shared domain")
    p, q, sig, s = params.p, params.q, params.sigma, params.s
    su = gagliardo_sum(u, p, s) ** (1.0 / p)
    sv = gagliardo_sum(v, q, s) ** (1.0 / q)
    if su <= 0.0 or sv <= 0.0:
        raise ValueError("log-coupling bound needs nonzero seminorms")
    hN = u.domain.cell_measure
    lhs = float(_coupling_rows(u.values[None], v.values[None], sig, hN)["log_coupling"][0])
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
    ray = FiberingRay.from_pair(u, v, params, K_p, K_q)
    A, B = ray.bracket_u, ray.bracket_v
    coeff = 1.0 / (q * (beta + 1.0)) - 1.0 / sig
    leftover = ray.coupling_mass / sig ** 2 + ray.log_coupling / sig
    kirchhoff_part = float(ray.phi(1.0)) - float(ray.psi_consistent(1.0)) / sig - leftover
    return WellLowerBound(
        kirchhoff_part=kirchhoff_part,
        bracket_bound=coeff * (k_eval(K_p, A) * A + k_eval(K_q, B) * B),
        printed_bound=coeff * (k_eval(K_p, A) * (p * A) + k_eval(K_q, B) * (q * B)),
        coupling_leftover=leftover,
    )
