"""Kirchhoff coefficient functions, their antiderivatives, and executable
checks of the structural hypotheses and scaling algebra.

A Kirchhoff function K multiplies the nonlocal diffusion and is evaluated at
the seminorm bracket, making the flow doubly nonlocal.  The analysis relies
on two hypotheses: K is non-decreasing and continuous, and z -> K(z)/z^beta is
non-increasing for the homogeneity index beta.  Both are checked here by dense
sampling (custom tabulated coefficients are supported, so symbolic proof is
out of reach), together with the seven scaling inequalities that the
potential-well estimates consume.

Monotonicity of K(z)/z^beta is enforced non-strictly: the constant coefficient
with beta = 0 is admissible, and the scaling algebra only ever uses the
inequalities, never strictness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .params import finite_number

SLACK = 1e-12


class KirchhoffError(ValueError):
    pass


@dataclass(frozen=True)
class KirchhoffFn:
    """A coefficient z -> K(z) on [0, inf) with homogeneity index beta.

    Kinds: "affine_power" K(z) = a + b z^c; "log1p" K(z) = log(1+z); "table"
    piecewise-linear interpolation of sampled (z, K) values.  log1p vanishes
    at 0; positivity is therefore only required for z > 0.
    """

    kind: str
    beta: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 1.0
    table_z: tuple[float, ...] = field(default=())
    table_k: tuple[float, ...] = field(default=())

    def __post_init__(self):
        for name in ("beta", "a", "b", "c"):
            value = getattr(self, name)
            if not finite_number(value):
                raise KirchhoffError(f"{name!r} must be a finite number, got {value!r}")
        if self.beta < 0:
            raise KirchhoffError(f"beta must be nonnegative, got {self.beta}")
        if self.kind == "affine_power":
            if self.a < 0 or self.b < 0 or (self.b > 0 and self.c <= 0):
                raise KirchhoffError(
                    f"affine_power needs a, b >= 0 and c > 0 when b > 0, "
                    f"got a={self.a}, b={self.b}, c={self.c}"
                )
            if self.a == 0 and self.b == 0:
                raise KirchhoffError("affine_power coefficient is identically zero")
        elif self.kind == "log1p":
            pass
        elif self.kind == "table":
            for key in ("z", "k"):
                values = getattr(self, "table_" + key)
                if (not isinstance(values, (list, tuple, np.ndarray))
                        or not all(map(finite_number, values))):
                    raise KirchhoffError(f"table {key!r} values must be finite numbers "
                                         f"in a list, got {values!r}")
                object.__setattr__(self, "table_" + key, tuple(values))
            z, k = np.asarray(self.table_z, dtype=float), np.asarray(self.table_k, dtype=float)
            if z.size < 2 or z.size != k.size:
                raise KirchhoffError("table needs matching z/K samples, at least two")
            if np.any(np.diff(z) <= 0) or z[0] < 0:
                raise KirchhoffError("table z values must be nonnegative and increasing")
        else:
            raise KirchhoffError(f"unknown Kirchhoff kind {self.kind!r}")

    @classmethod
    def affine_power(cls, a: float, b: float, c: float = 1.0, beta: float = 0.0) -> "KirchhoffFn":
        return cls(kind="affine_power", a=a, b=b, c=c, beta=beta)

    @classmethod
    def constant(cls, a: float = 1.0) -> "KirchhoffFn":
        """Constant coefficient; the beta = 0 boundary case of the hypotheses."""
        return cls(kind="affine_power", a=a, b=0.0, c=1.0, beta=0.0)

    @classmethod
    def log1p(cls, beta: float = 1.0) -> "KirchhoffFn":
        return cls(kind="log1p", beta=beta)

    @classmethod
    def from_table(cls, z: Sequence[float], k: Sequence[float], beta: float) -> "KirchhoffFn":
        return cls(kind="table", beta=beta, table_z=z, table_k=k)

    @property
    def is_constant(self) -> bool:
        """True when K(z) is a, bit for bit, at every z >= 0: affine_power with
        b = 0, whose values never form 0 * z^c (see ``_k_values``)."""
        return self.kind == "affine_power" and self.b == 0

    def __call__(self, z):
        return k_eval(self, z)


def k_eval(K: KirchhoffFn, z):
    """Evaluate K(z) for scalar or array z >= 0."""
    return _evaluate(_k_values, K, z, "Kirchhoff coefficient")


def k_antideriv(K: KirchhoffFn, z):
    """Antiderivative Khat(z) = integral of K over [0, z].

    Closed forms for the built-ins; for tabulated coefficients the
    piecewise-linear interpolant is integrated exactly (the table is the
    definition of K, so no quadrature error beyond the model itself).
    """
    return _evaluate(_khat_values, K, z, "antiderivative")


def _evaluate(values, K: KirchhoffFn, z, what: str):
    # A float argument (np.float64 included) skips the array conversion and
    # checks, which dominate a scalar call; it runs the same numpy ufuncs, so
    # it returns bit for bit what a one-element array gives.
    if isinstance(z, float):
        if z < 0.0:
            raise KirchhoffError(f"{what} evaluated at negative argument")
        return float(values(K, z))
    zz = np.asarray(z, dtype=float)
    if np.any(zz < 0):
        raise KirchhoffError(f"{what} evaluated at negative argument")
    out = values(K, zz)
    return float(out) if np.isscalar(z) else out


def _k_values(K: KirchhoffFn, z):
    # With b = 0, a + 0 * z^c would be NaN where z^c overflows (c > 1) or is
    # infinite at z = 0 (c < 0); where it is finite it equals a bit for bit.
    if K.kind == "affine_power":
        if K.b == 0:
            return np.full_like(z, K.a)
        return K.a + K.b * np.power(z, K.c)
    if K.kind == "log1p":
        return np.log1p(z)
    return np.interp(z, np.asarray(K.table_z), np.asarray(K.table_k))


def _khat_values(K: KirchhoffFn, z):
    if K.kind == "affine_power":
        if K.b == 0:        # as in _k_values: no 0 * z^(c+1)
            return K.a * z
        return K.a * z + K.b * np.power(z, K.c + 1.0) / (K.c + 1.0)
    if K.kind == "log1p":
        return (1.0 + z) * np.log1p(z) - z
    tz = np.asarray(K.table_z)
    tk = np.asarray(K.table_k)
    # exact cumulative integral of the interpolant (constant-extrapolated
    # below the first and above the last table node)
    seg = np.concatenate([[0.0], np.cumsum(0.5 * (tk[1:] + tk[:-1]) * np.diff(tz))])
    head = tk[0] * tz[0]
    kz = np.interp(z, tz, tk)
    idx = np.clip(np.searchsorted(tz, z, side="right") - 1, 0, len(tz) - 1)
    out = head + seg[idx] + 0.5 * (tk[idx] + kz) * (np.minimum(z, tz[-1]) - tz[idx])
    out = np.where(z <= tz[0], tk[0] * z, out)
    return np.where(z > tz[-1], head + seg[-1] + tk[-1] * (z - tz[-1]), out)


@dataclass(frozen=True)
class HypothesisReport:
    monotone_ok: bool
    homogeneity_ok: bool
    worst_monotone_violation: float
    worst_homogeneity_violation: float
    worst_monotone_z: float
    worst_homogeneity_z: float
    sample_count: int

    @property
    def both_ok(self) -> bool:
        return self.monotone_ok and self.homogeneity_ok


def check_hypotheses(
    K: KirchhoffFn,
    beta: float | None = None,
    z_min: float = 1e-6,
    z_max: float = 1e6,
    count: int = 2000,
) -> HypothesisReport:
    """Sample-based check that K is non-decreasing and K(z)/z^beta non-increasing.

    The sample is log-spaced on (z_min, z_max); violations are measured
    pairwise on consecutive samples with relative slack.
    """
    if count < 2:
        raise KirchhoffError("hypothesis check needs at least two samples")
    if beta is None:
        beta = K.beta
    z = np.logspace(math.log10(z_min), math.log10(z_max), count)
    kv = k_eval(K, z)
    scale_k = np.maximum(np.abs(kv[1:]), np.abs(kv[:-1])) + 1.0
    mono_viol = kv[:-1] - kv[1:]          # positive where K decreases
    g = kv / z ** beta
    scale_g = np.maximum(np.abs(g[1:]), np.abs(g[:-1])) + 1e-300
    homo_viol = g[1:] - g[:-1]            # positive where K/z^beta increases

    mono_rel = mono_viol / scale_k
    homo_rel = homo_viol / scale_g
    im = int(np.argmax(mono_rel))
    ih = int(np.argmax(homo_rel))
    return HypothesisReport(
        monotone_ok=bool(np.all(mono_rel <= SLACK)),
        homogeneity_ok=bool(np.all(homo_rel <= SLACK)),
        worst_monotone_violation=float(mono_rel[im]),
        worst_homogeneity_violation=float(homo_rel[ih]),
        worst_monotone_z=float(z[im]),
        worst_homogeneity_z=float(z[ih]),
        sample_count=count,
    )


@dataclass(frozen=True)
class ScalingCheck:
    name: str
    applicable: bool
    ok: bool
    residual: float


def scaling_suite(K: KirchhoffFn, beta: float, mu: float, z: float) -> list[ScalingCheck]:
    """The seven scaling inequalities tying K, its antiderivative, and beta.

    For a scaling factor mu and argument z (both >= 0):

      1. mu^beta K(z) <= K(mu z)            for mu <= 1
      2. K(mu z) <= mu^beta K(z)            for mu >= 1
      3. K(mu)/mu^beta * min(mu^beta, z^beta) <= K(z) <= K(mu)/mu^beta * max(...)
      4. K(z) > 0                           for z > 0
      5. z K(z)/(beta+1) <= Khat(z) <= z K(z)
      6. Khat(mu z) >= mu^(beta+1) Khat(z)  for mu <= 1
      7. Khat(mu z) <= mu^(beta+1) Khat(z)  for mu >= 1

    Residuals are (violation amount)/(scale); checks outside their mu range
    are reported as not applicable and vacuously ok.
    """
    if mu < 0 or z < 0:
        raise KirchhoffError("scaling suite needs mu, z >= 0")

    kz = k_eval(K, z)
    kmuz = k_eval(K, mu * z)
    hatz = k_antideriv(K, z)
    hatmuz = k_antideriv(K, mu * z)

    def entry(name, applicable, lhs, rhs):
        # checks lhs <= rhs
        if not applicable:
            return ScalingCheck(name, False, True, 0.0)
        resid = (lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        return ScalingCheck(name, True, bool(resid <= SLACK), float(resid))

    checks = [
        entry("k_scale_lower", mu <= 1.0, mu ** beta * kz, kmuz),
        entry("k_scale_upper", mu >= 1.0, kmuz, mu ** beta * kz),
    ]
    if mu > 0:
        kmu = k_eval(K, mu)
        ref = kmu / mu ** beta
        lo = ref * min(mu ** beta, z ** beta)
        hi = ref * max(mu ** beta, z ** beta)
        sandwich_ok = lo <= kz + SLACK * max(abs(lo), abs(kz), 1.0) and kz <= hi + SLACK * max(abs(hi), abs(kz), 1.0)
        resid = max(lo - kz, kz - hi) / max(abs(kz), 1e-300)
        checks.append(ScalingCheck("k_sandwich", True, bool(sandwich_ok), float(resid)))
    else:
        checks.append(ScalingCheck("k_sandwich", False, True, 0.0))
    if z > 0:
        checks.append(ScalingCheck("k_positive", True, bool(kz > 0), float(-kz)))
    else:
        checks.append(ScalingCheck("k_positive", False, True, 0.0))
    lower = z * kz / (beta + 1.0)
    checks.append(entry("khat_between", True, max(lower - hatz, hatz - z * kz), 0.0))
    checks.append(entry("khat_scale_lower", mu <= 1.0, mu ** (beta + 1.0) * hatz, hatmuz))
    checks.append(entry("khat_scale_upper", mu >= 1.0, hatmuz, mu ** (beta + 1.0) * hatz))
    return checks
