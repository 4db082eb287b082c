"""Nonlocal pairwise kernels: Gagliardo sums, brackets, the fractional
p-Laplacian, and its bilinear form.

Everything here is an O(M^2) pairwise sum over grid nodes with the singular
weight |x_i - x_j|^-(N+sp).  Both integration variables range over the box
only, matching the bracket functionals used downstream; the diagonal (x = y)
is excluded, which is the midpoint-quadrature treatment of the principal
value.  The weight table depends only on the grid and the exponent N+sp, is
immutable once built, and is memoized so repeated operator applications (time
stepping, fibering scans) never recompute it.

Discrete duality is exact by construction:

    inner(apply_operator(u), w) == bilinear_form(u, w)

up to floating-point summation order, because the operator is defined as the
row sum of the same antisymmetric kernel the bilinear form contracts.  This
makes the energy bookkeeping of the flow testable at machine precision rather
than only in the mesh limit.

One pass per field: ``operator_and_bracket`` builds the difference table
d_ij = u_i - u_j and |d| once, in a reused workspace, and returns both the
operator and the bracket, so each right-hand side makes one dense pass per
field.  ``apply_operator``, ``gagliardo_sum`` and ``bracket`` run the same
pass with one of its two outputs switched off.  The bracket stays
sum |d|^p W h^(2N)/p, with its own power of |d|, and is never taken from the
duality shortcut inner(Lu, u)/p: the shortcut differs in the last bits, and
the adaptive step controller amplifies ulp changes in K(A) into the step
size.  Every output is therefore bit-identical to the separate passes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grids import GridDomain, GridField, GridError


@lru_cache(maxsize=64)
def _weight_table(domain: GridDomain, exponent: float) -> np.ndarray:
    """Pairwise weights |x_i - x_j|^-exponent with zero diagonal (read-only)."""
    x = domain.coords
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, 1.0)
    table = dist ** (-exponent)
    np.fill_diagonal(table, 0.0)
    table.setflags(write=False)
    return table


def weight_table(domain: GridDomain, p: float, s: float) -> np.ndarray:
    """Shared read-only kernel weight table for the exponent N + s*p."""
    _check_exponents(p, s)
    return _weight_table(domain, domain.ndim + s * p)


def _check_exponents(p: float, s: float) -> None:
    if p <= 1.0:
        raise ValueError(f"kernel exponent must satisfy p > 1, got {p}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")


def _signed_power(d: np.ndarray, p: float) -> np.ndarray:
    # |d|^(p-2) d written as sign(d)|d|^(p-1): finite for all d when p > 1.
    return np.sign(d) * np.abs(d) ** (p - 1.0)


_workspace: list[np.ndarray] = []


def _pass_buffers(m: int) -> list[np.ndarray]:
    """The three M x M buffers every dense pass writes into.

    One workspace is shared by all passes and reallocated only when the node
    count changes, so at most one pass's peak is held.  Fresh buffers per
    pass would let the allocator return and re-fault their pages on every
    call.  Passes run one at a time: the workspace is not thread-safe.
    """
    if not _workspace or _workspace[0].shape[0] != m:
        _workspace[:] = [np.empty((m, m)) for _ in range(3)]
    return _workspace


def _dense_pass(
    u: GridField, p: float, s: float, operator: bool, seminorm: bool
) -> tuple[np.ndarray | None, float | None]:
    """One pass over the difference table of u: (operator values, Gagliardo sum).

    The table d = u_i - u_j and |d| are built once in the shared workspace;
    every later step overwrites a buffer in place.  An output that is
    switched off is None; the returned values never alias the workspace.
    The arithmetic and its order match the textbook expressions
    sum |d|^p W h^(2N) and 2 h^N sum_j sign(d)|d|^(p-1) W, so every result is
    bit-identical to them.
    """
    W = weight_table(u.domain, p, s)
    d, a, t = _pass_buffers(len(u.values))
    if not operator:
        a = t = d   # d itself is only needed for its sign
    np.subtract.outer(u.values, u.values, out=d)
    np.abs(d, out=a)
    gag = values = None
    if seminorm:
        np.power(a, p, out=t)
        t *= W
        gag = float(np.sum(t) * u.domain.cell_measure ** 2)
    if operator:
        np.power(a, p - 1.0, out=a)
        np.sign(d, out=d)
        d *= a
        d *= W
        values = 2.0 * u.domain.cell_measure * np.sum(d, axis=1)
    return values, gag


def gagliardo_sum(u: GridField, p: float, s: float) -> float:
    """p-th power of the Gagliardo seminorm over box x box.

    Returns sum_{i != j} |u_i - u_j|^p / |x_i - x_j|^(N+sp) * h^(2N).
    """
    return _dense_pass(u, p, s, operator=False, seminorm=True)[1]


def bracket(u: GridField, p: float, s: float) -> float:
    """The seminorm bracket: gagliardo_sum(u, p, s) / p."""
    return gagliardo_sum(u, p, s) / p


def bilinear_form(u: GridField, w: GridField, p: float, s: float) -> float:
    """Pairwise form sum |u_i-u_j|^(p-2)(u_i-u_j)(w_i-w_j) * weight * h^(2N)."""
    if u.domain != w.domain:
        raise GridError("bilinear form requires a shared domain")
    W = weight_table(u.domain, p, s)
    du = u.values[:, None] - u.values[None, :]
    dw = w.values[:, None] - w.values[None, :]
    h2 = u.domain.cell_measure ** 2
    return float(np.sum(_signed_power(du, p) * dw * W) * h2)


def apply_operator(u: GridField, p: float, s: float) -> GridField:
    """Fractional p-Laplacian of a field.

    (Lu)_i = 2 h^N sum_{j != i} |u_i - u_j|^(p-2)(u_i - u_j) / |x_i - x_j|^(N+sp).

    The factor 2 and the quadrature weight h^N are chosen so that
    ``inner(apply_operator(u), w) == bilinear_form(u, w)`` exactly at the
    discrete level, and so that the gradient of ``bracket`` with respect to
    the nodal value u_i is h^N * (Lu)_i.
    """
    return GridField(u.domain, _dense_pass(u, p, s, operator=True, seminorm=False)[0])


def operator_and_bracket(u: GridField, p: float, s: float) -> tuple[GridField, float]:
    """``(apply_operator(u, p, s), bracket(u, p, s))`` from one pairwise pass.

    Both results are bit-identical to the separate calls.
    """
    values, gag = _dense_pass(u, p, s, operator=True, seminorm=True)
    return GridField(u.domain, values), gag / p


# Naive double-loop references: used only by the exactness cross-checks.

def gagliardo_sum_naive(u: GridField, p: float, s: float) -> float:
    x = u.domain.coords
    vals = u.values
    expo = u.domain.ndim + s * p
    h2 = u.domain.cell_measure ** 2
    total = 0.0
    for i in range(len(vals)):
        for j in range(len(vals)):
            if i == j:
                continue
            d = float(np.linalg.norm(x[i] - x[j]))
            total += abs(vals[i] - vals[j]) ** p / d ** expo
    return total * h2


def apply_operator_naive(u: GridField, p: float, s: float) -> GridField:
    x = u.domain.coords
    vals = u.values
    expo = u.domain.ndim + s * p
    out = np.zeros_like(vals)
    for i in range(len(vals)):
        acc = 0.0
        for j in range(len(vals)):
            if i == j:
                continue
            d = float(np.linalg.norm(x[i] - x[j]))
            diff = vals[i] - vals[j]
            acc += np.sign(diff) * abs(diff) ** (p - 1.0) / d ** expo
        out[i] = 2.0 * u.domain.cell_measure * acc
    return GridField(u.domain, out)
