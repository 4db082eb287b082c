"""Exponent tuples for the coupled fractional Kirchhoff flow and their admissibility window.

The model is governed by six numbers: spatial dimension N, fractional order s,
integrability exponents p and q, coupling exponent sigma, and the Kirchhoff
homogeneity index beta.  The potential-well machinery (well depth, thresholds,
decay/blow-up classification) is only meaningful inside a specific inequality
window on these numbers; ``validate_params`` checks that window and reports the
first violated inequality by name.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class ParamError(ValueError):
    """Raised when an exponent tuple violates a precondition or, in strict
    mode, the admissibility window."""


def finite_number(x) -> bool:
    """True for a finite real number that is not a bool: the rule every
    numeric config value meets (a JSON true or false is not a number)."""
    return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)


def critical_exponent(N: int, s: float, p: float) -> float:
    """Critical Sobolev exponent N*p/(N - s*p), or +inf when N <= s*p."""
    if N > s * p:
        return N * p / (N - s * p)
    return math.inf


@dataclass(frozen=True)
class ModelParams:
    """Validated exponent tuple.

    ``well_regime`` is True when the full admissibility window holds, i.e. the
    regime in which the well depth is provably positive and the decay/blow-up
    dichotomy applies.  Operations-only parameter sets (kernel-level testing,
    N=2 experiments) carry ``well_regime=False``.
    """

    N: int
    s: float
    p: float
    q: float
    sigma: float
    beta: float
    well_regime: bool
    p_crit: float
    q_crit: float

    @property
    def window_violation(self) -> str | None:
        """The first violated window inequality by name, or None when
        ``well_regime`` holds."""
        return _window_violation(self.N, self.s, self.p, self.q, self.sigma, self.beta,
                                 self.p_crit, self.q_crit)

    @property
    def poly_decay_exponent(self) -> float:
        """Exponent of the predicted polynomial decay envelope, q(b+1)/(q(b+1)-2)."""
        qb = self.q * (self.beta + 1.0)
        return qb / (qb - 2.0)

    @property
    def exponential_regime(self) -> bool:
        """True when the predicted decay envelope is exponential, q <= 2/(b+1)."""
        return self.q <= 2.0 / (self.beta + 1.0)


def _window_violation(N, s, p, q, sigma, beta, p_crit, q_crit) -> str | None:
    """Return the name of the first violated window inequality, or None."""
    qb = q * (beta + 1.0)
    pb = p * (beta + 1.0)
    # note: max(2, p(b+1), q(b+1)) < sigma subsumes q < sigma, so the bare
    # ordering check stops at p < q and the max form carries the report
    checks = [
        ("1 < p", 1.0 < p),
        ("p < q", p < q),
        ("sigma + 1 < p_crit", sigma + 1.0 < p_crit),
        ("max(2, p(beta+1), q(beta+1)) < sigma", max(2.0, pb, qb) < sigma),
        (
            "2*sigma <= min(p(1+2/N), q(1+2/N), p_crit, q_crit)",
            2.0 * sigma <= min(p * (1.0 + 2.0 / N), q * (1.0 + 2.0 / N), p_crit, q_crit),
        ),
    ]
    for name, ok in checks:
        if not ok:
            return name
    return None


def validate_params(
    N: int,
    s: float,
    p: float,
    q: float,
    sigma: float,
    beta: float = 0.0,
    mode: str = "strict",
) -> ModelParams:
    """Validate an exponent tuple.

    Parameters
    ----------
    mode : {"strict", "operations"}
        In strict mode the full admissibility window must hold and the first
        violated inequality is reported otherwise.  In operations mode any
        p, q > 1 is accepted and the returned params carry
        ``well_regime=False`` when the window fails.
    """
    for name, val in (("s", s), ("p", p), ("q", q), ("sigma", sigma), ("beta", beta)):
        if not finite_number(val):
            raise ParamError(f"{name} must be a finite number, got {val!r}")
    if isinstance(N, bool) or N not in (1, 2):
        raise ParamError(f"N must be 1 or 2, got {N!r}")
    if not 0.0 < s < 1.0:
        raise ParamError(f"s must lie in (0, 1), got {s}")
    if p <= 1.0 or q <= 1.0:
        raise ParamError(f"p and q must exceed 1, got p={p}, q={q}")
    if sigma <= 1.0:
        raise ParamError(f"sigma must exceed 1, got {sigma}")
    if beta < 0.0:
        raise ParamError(f"beta must be nonnegative, got {beta}")
    if mode not in ("strict", "operations"):
        raise ParamError(f"unknown validation mode {mode!r}")

    p_crit = critical_exponent(N, s, p)
    q_crit = critical_exponent(N, s, q)
    violation = _window_violation(N, s, p, q, sigma, beta, p_crit, q_crit)
    if mode == "strict" and violation is not None:
        raise ParamError(f"admissibility window fails: {violation}")
    return ModelParams(
        N=N, s=s, p=p, q=q, sigma=sigma, beta=beta,
        well_regime=violation is None, p_crit=p_crit, q_crit=q_crit,
    )
