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

One pass per field: ``_dense_pass`` builds the difference table
d_ij = u_i - u_j once, in a reused per-thread workspace, and returns both the
operator and the Gagliardo sum, from nodal values and the field's ``Kernel``
(weight table, h^N and exponent), resolved once by the caller through
``kernel``.  ``dynamics.rhs`` makes one pass per field per stage, with the
Gagliardo sum off where no coefficient reads it (both Kirchhoff coefficients
constant); ``variational.FiberingRay.of_rows`` one pass per field per stack
of rows, with the operator off; ``apply_operator``, ``gagliardo_sum`` and
``bracket`` one pass with one of its two outputs off.
The operator and the Gagliardo sum are written here only.
The bracket stays sum |d|^p W h^(2N)/p, with its own power of |d|, and is
never taken from the duality shortcut inner(Lu, u)/p: the shortcut differs in
the last bits, and the adaptive step controller amplifies ulp changes in K(A)
into the step size.  Every output is therefore bit-identical to the separate
passes.

One thread: the passes of u and v run one after the other on the calling
thread.  Handing v's pass to a worker thread saved nothing on a 2-vCPU Xeon
VM (numpy 2.4.6): with the passes below, the M = 256 simulate benchmark took
a median 0.236 s on one thread against 0.252 s with the worker (8 of 8
alternating pairs won by one thread), though two threads of bare
``np.power`` ran 1.4-1.9x as fast as one there.  Each pass builds d from
a row copy and a row-broadcast subtract, forms |d|^(p-1) with d's sign as
|d| d when p - 1 == 2.0 (``np.power`` squares there) and otherwise copies
the sign bit on int64 views; every rewrite is exact, so the results equal
the textbook expressions bit for bit.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grids import GridDomain, GridField, GridError


@lru_cache(maxsize=64)
def _weight_table(domain: GridDomain, exponent: float) -> np.ndarray:
    """Pairwise weights |x_i - x_j|^-exponent with zero diagonal (read-only).

    Built in place: the squared distance sums the per-axis squared
    differences in axis order, as a sum over the last axis of the M x M x N
    difference array would, so the build holds one table in 1-D and two in
    2-D at its peak."""
    x = domain.coords
    table = None
    for a in range(domain.ndim):
        d = np.subtract.outer(x[:, a], x[:, a])
        np.multiply(d, d, out=d)
        table = d if table is None else np.add(table, d, out=table)
    np.sqrt(table, out=table)
    np.fill_diagonal(table, 1.0)
    table **= -exponent
    np.fill_diagonal(table, 0.0)
    table.setflags(write=False)
    return table


class Kernel(NamedTuple):
    """A field's kernel, built by ``kernel``: weight table W, cell measure h^N, exponent p."""

    W: np.ndarray
    hN: float
    p: float


def kernel(domain: GridDomain, p: float, s: float) -> Kernel:
    """The kernel of exponent p and order s on a grid, on its shared table."""
    if p <= 1.0:
        raise ValueError(f"kernel exponent must satisfy p > 1, got {p}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {s}")
    return Kernel(_weight_table(domain, domain.ndim + s * p), domain.cell_measure, p)


def weight_table(domain: GridDomain, p: float, s: float) -> np.ndarray:
    """Shared read-only kernel weight table for the exponent N + s*p."""
    return kernel(domain, p, s).W


def _signed_power(d: np.ndarray, p: float) -> np.ndarray:
    # |d|^(p-2) d written as sign(d)|d|^(p-1): finite for all d when p > 1.
    return np.sign(d) * np.abs(d) ** (p - 1.0)


_local = threading.local()


def _pass_buffers(shape: tuple[int, ...], count: int) -> list[np.ndarray]:
    """At least ``count`` difference-table buffers the calling thread's dense
    passes write into: M x M for one field, k x M x M for a stack of k.

    Each thread has its own workspace, reallocated only when the shape
    changes, so a thread holds at most one pass's peak and callers on
    different threads never share a buffer.  Fresh buffers per pass would let
    the allocator return and re-fault their pages on every call.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None or buffers[0].shape != shape:
        buffers = _local.buffers = []       # the old workspace goes first
    while len(buffers) < count:
        buffers.append(np.empty(shape))
    return buffers


_SIGN_BIT = np.int64(np.iinfo(np.int64).min)


def _copy_sign(t: np.ndarray, d: np.ndarray) -> None:
    """Write copysign(t, d) into d, for t with a clear sign bit (t = |d|^r):
    d's sign bit OR t's bits, on int64 views, which is cheaper than
    np.copysign and equal to it wherever t is not NaN."""
    bits = d.view(np.int64)
    np.bitwise_and(bits, _SIGN_BIT, out=bits)
    np.bitwise_or(bits, t.view(np.int64), out=bits)


# A stacked pass's difference table takes at most this many bytes, under
# glibc's default mmap threshold, so that the buffer is reused from the heap.
_STACK_BYTES = 128 * 1024


def _dense_pass(
    values: np.ndarray, k: Kernel, operator: bool, seminorm: bool
) -> tuple[np.ndarray | None, float | np.ndarray | None]:
    """One pass over the difference table of nodal values on the kernel k:
    (operator values, Gagliardo sum).

    The table d = u_i - u_j is built once in the thread's workspace; |d| is
    taken from it afresh for each output, and every step overwrites a buffer
    in place.  An output that is switched off is None; the returned values
    never alias the workspace.  The arithmetic and its order match the
    textbook expressions sum |d|^p W h^(2N) and
    2 h^N sum_j sign(d)|d|^(p-1) W, so every result is equal to them; the
    operator's terms are formed as copysign(|d|^(p-1), d), which can differ
    from sign(d)|d|^(p-1) only in the sign of an exact zero.  Both the
    row-broadcast subtract that builds d and the two forms of that copysign
    (``_copy_sign``, and |d| d where p - 1 == 2.0) are exact rewrites.

    ``values`` of shape (k, M) is a stack of k fields: each output then has
    one row (one sum) per field, each equal bit for bit to the field's own
    pass, since every sum runs over one contiguous row of the table.  A stack
    of any length is walked in pieces whose table takes at most
    ``_STACK_BYTES``: 7 fields at M=48, where a piece spares most of a pass's
    call overhead (5.0 against 6.8 ms for 203 pairs), and one from M=91 on.
    """
    W, hN, p = k
    m = values.shape[-1]
    step = max(1, _STACK_BYTES // (8 * m * m))
    if values.ndim == 2 and len(values) > step:
        pieces = [_dense_pass(values[i:i + step], k, operator, seminorm)
                  for i in range(0, len(values), step)]
        return tuple(None if rows[0] is None else np.concatenate(rows) for rows in zip(*pieces))
    buffers = _pass_buffers(values.shape[:-1] + (m, m), 2 if operator else 1)
    d = buffers[0]
    t = buffers[1] if operator else d   # d itself is only needed for |d|
    d[...] = values[..., :, None]
    np.subtract(d, values[..., None, :], out=d)
    gag = out = None
    if seminorm:
        np.abs(d, out=t)
        np.power(t, p, out=t)
        t *= W
        gag = np.add.reduce(t.reshape(values.shape[:-1] + (m * m,)), axis=-1) * hN ** 2
        if values.ndim == 1:
            gag = float(gag)
    if operator:
        np.abs(d, out=t)
        if p - 1.0 == 2.0:      # np.power(|d|, 2.0) is |d| |d|, so its copysign is |d| d
            d *= t
        else:
            np.power(t, p - 1.0, out=t)
            _copy_sign(t, d)
        d *= W
        out = 2.0 * hN * np.add.reduce(d, axis=-1)
    return out, gag


def peak_bytes(node_count: int) -> int:
    """Bytes the kernel holds at its peak on a grid of ``node_count`` nodes:
    a weight table per exponent and the calling thread's two M x M pass
    buffers."""
    return 8 * node_count ** 2 * (2 + 2)


def gagliardo_sum(u: GridField, p: float, s: float) -> float:
    """p-th power of the Gagliardo seminorm over box x box.

    Returns sum_{i != j} |u_i - u_j|^p / |x_i - x_j|^(N+sp) * h^(2N).
    """
    return _dense_pass(u.values, kernel(u.domain, p, s), operator=False, seminorm=True)[1]


def bracket(u: GridField, p: float, s: float) -> float:
    """The seminorm bracket: gagliardo_sum(u, p, s) / p."""
    return gagliardo_sum(u, p, s) / p


def bilinear_form(u: GridField, w: GridField, p: float, s: float) -> float:
    """Pairwise form sum |u_i-u_j|^(p-2)(u_i-u_j)(w_i-w_j) * weight * h^(2N)."""
    if u.domain != w.domain:
        raise GridError("bilinear form requires a shared domain")
    W, hN, _ = kernel(u.domain, p, s)
    du = u.values[:, None] - u.values[None, :]
    dw = w.values[:, None] - w.values[None, :]
    return float(np.sum(_signed_power(du, p) * dw * W) * hN ** 2)


def apply_operator(u: GridField, p: float, s: float) -> GridField:
    """Fractional p-Laplacian of a field.

    (Lu)_i = 2 h^N sum_{j != i} |u_i - u_j|^(p-2)(u_i - u_j) / |x_i - x_j|^(N+sp).

    The factor 2 and the quadrature weight h^N are chosen so that
    ``inner(apply_operator(u), w) == bilinear_form(u, w)`` exactly at the
    discrete level, and so that the gradient of ``bracket`` with respect to
    the nodal value u_i is h^N * (Lu)_i.
    """
    k = kernel(u.domain, p, s)
    return GridField(u.domain, _dense_pass(u.values, k, operator=True, seminorm=False)[0])


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
