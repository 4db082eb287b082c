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
d_ij = u_i - u_j once, in a reused per-thread workspace, and returns both the
operator and the bracket, so each right-hand side makes one dense pass per
field.  ``apply_operator``, ``gagliardo_sum`` and ``bracket`` run the same
pass with one of its two outputs switched off.  The bracket stays
sum |d|^p W h^(2N)/p, with its own power of |d|, and is never taken from the
duality shortcut inner(Lu, u)/p: the shortcut differs in the last bits, and
the adaptive step controller amplifies ulp changes in K(A) into the step
size.  Every output is therefore bit-identical to the separate passes.

Two fields, two cores: ``pair_pass`` runs the passes of u and v, which share
no data, side by side.  v's pass goes to one daemon worker thread, started on
first use, while the calling thread runs u's; numpy releases the interpreter
lock inside each ufunc, so the two overlap.  The worker is used from
``_THREADED_MIN_NODES`` nodes on and only when the process may run on two
CPUs; below that the handoff costs more than it saves and the two passes run
one after the other.  Each pass runs the same ufuncs in the same order either
way, so the results are bit-identical.  ``dynamics.rhs``, every energy report
and fibering ray, and the log-coupling bound gap go through it.
"""

from __future__ import annotations

import os
import threading
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


_local = threading.local()


def _pass_buffers(m: int) -> list[np.ndarray]:
    """The two M x M buffers every dense pass of the calling thread writes into.

    Each thread has its own workspace, reallocated only when the node count
    changes, so a thread holds at most one pass's peak and ``pair_pass`` can
    run one pass on each of two threads.  Fresh buffers per pass would let
    the allocator return and re-fault their pages on every call.
    """
    buffers = getattr(_local, "buffers", None)
    if buffers is None or buffers[0].shape[0] != m:
        buffers = _local.buffers = [np.empty((m, m)) for _ in range(2)]
    return buffers


def _dense_pass(
    u: GridField, p: float, s: float, operator: bool, seminorm: bool
) -> tuple[np.ndarray | None, float | None]:
    """One pass over the difference table of u: (operator values, Gagliardo sum).

    The table d = u_i - u_j is built once in the thread's workspace; |d| is
    taken from it afresh for each output, and every step overwrites a buffer
    in place.  An output that is switched off is None; the returned values
    never alias the workspace.  The arithmetic and its order match the
    textbook expressions sum |d|^p W h^(2N) and
    2 h^N sum_j sign(d)|d|^(p-1) W, so every result is equal to them; the
    operator's terms are formed as copysign(|d|^(p-1), d), which can differ
    from sign(d)|d|^(p-1) only in the sign of an exact zero.
    """
    W = weight_table(u.domain, p, s)
    d, t = _pass_buffers(len(u.values))
    if not operator:
        t = d   # d itself is only needed for |d|
    np.subtract.outer(u.values, u.values, out=d)
    gag = values = None
    if seminorm:
        np.abs(d, out=t)
        np.power(t, p, out=t)
        t *= W
        gag = float(np.sum(t) * u.domain.cell_measure ** 2)
    if operator:
        np.abs(d, out=t)
        np.power(t, p - 1.0, out=t)
        np.copysign(t, d, out=d)
        d *= W
        values = 2.0 * u.domain.cell_measure * np.sum(d, axis=1)
    return values, gag


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# v's pass goes to the worker thread from this node count on.  Handing a pass
# over costs two thread wake-ups (about 30 us each); the threaded pair takes
# 2.1x the serial time at M=48, 1.1x at M=96, 0.94x at M=128, 0.65x at M=256
# and 0.63x at M=1024 (operator and bracket, p=3, q=3.5, 2-vCPU Xeon VM,
# numpy 2.4.6).  With a single usable CPU the two threads could only take turns.
_THREADED_MIN_NODES = 128 if _usable_cpus() >= 2 else float("inf")

_worker = None                  # (jobs, results) queues of the pass worker thread
_worker_lock = threading.Lock()


def _serve(jobs, results) -> None:
    while True:
        args = jobs.get()
        try:
            results.put((_dense_pass(*args), None))
        except Exception as exc:    # raised again on the caller
            results.put((None, exc))


def _forget_worker() -> None:
    # a forked child has no worker thread, whatever its parent had
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def pair_pass(
    u: GridField, p: float, v: GridField, q: float, s: float, operator: bool
) -> tuple[tuple[np.ndarray | None, float], tuple[np.ndarray | None, float]]:
    """The dense passes of u (exponent p) and v (exponent q), side by side.

    Returns ``(_dense_pass(u, p, s, operator, True),
    _dense_pass(v, q, s, operator, True))``, bit for bit: per field, the
    operator values (None unless ``operator``) and the Gagliardo sum.  From
    ``_THREADED_MIN_NODES`` nodes on, v's pass runs on the worker thread while
    the caller runs u's; an exception raised there is raised here.
    """
    global _worker
    if len(u.values) < _THREADED_MIN_NODES:
        return _dense_pass(u, p, s, operator, True), _dense_pass(v, q, s, operator, True)
    if p == q:      # a shared table is built here once, not by both threads at once
        weight_table(u.domain, p, s)
    with _worker_lock:      # one caller at a time: results come back in order
        if _worker is None:
            from _queue import SimpleQueue    # loaded on first use, not at import
            _worker = SimpleQueue(), SimpleQueue()
            threading.Thread(target=_serve, args=_worker, name="fracops-pair-pass",
                             daemon=True).start()
        jobs, results = _worker
        jobs.put((v, q, s, operator, True))
        try:
            ru = _dense_pass(u, p, s, operator, True)
        finally:
            rv, exc = results.get()
    if exc is not None:
        raise exc
    return ru, rv


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
