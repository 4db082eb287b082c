"""Uniform cell-centered grids on a box, nodal fields, and discrete norms.

The spatial domain is an axis-aligned box; nodes sit at cell centers so the
cells tile the box exactly and every integral over the box becomes a plain
weighted sum with weight h^N.  Fields are nodal value vectors and represent
functions that vanish identically outside the box (homogeneous exterior
condition); no ghost values are ever stored or read.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .params import finite_number


class GridError(ValueError):
    """Raised for inconsistent grid construction or field/domain mismatches."""


@dataclass(frozen=True)
class GridDomain:
    """Cell-centered uniform grid over the box prod_i (0, extent_i).

    The spacing h is required to be identical across axes (node_count * h
    equals the extent exactly on each axis).  ``coords`` has shape (M, N) with
    M the total node count; all nodes lie strictly inside the box.
    """

    extents: tuple[float, ...]
    counts: tuple[int, ...]
    coords: np.ndarray = field(compare=False, repr=False, default=None)
    h: float = field(compare=False, default=0.0)

    def __post_init__(self):
        if len(self.extents) != len(self.counts) or not self.extents:
            raise GridError("extents and counts must be non-empty and of equal length")
        if len(self.extents) > 2:
            raise GridError("only N = 1 or 2 supported")
        if not all(finite_number(e) and e > 0 for e in self.extents):
            raise GridError(f"'extents' must be positive finite numbers, got {self.extents}")
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        if any(isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 2
               for c in self.counts):
            raise GridError(f"'counts' must be integers, at least 2 nodes per axis, "
                            f"got {self.counts}")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        spacings = [e / c for e, c in zip(self.extents, self.counts)]
        h = spacings[0]
        if any(abs(sp - h) > 1e-12 * h for sp in spacings[1:]):
            raise GridError(f"non-uniform spacing request: per-axis h = {spacings}")
        axes = [(np.arange(c) + 0.5) * h for c in self.counts]
        if len(axes) == 1:
            coords = axes[0][:, None]
        else:
            X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
            coords = np.column_stack([X.ravel(), Y.ravel()])
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "h", h)

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @property
    def node_count(self) -> int:
        return self.coords.shape[0]

    @property
    def cell_measure(self) -> float:
        """Quadrature weight of one cell, h^N."""
        return self.h ** self.ndim

    @property
    def box_measure(self) -> float:
        """Measure of the whole box (exact: node_count * cell_measure)."""
        return float(np.prod(self.extents))


@dataclass(frozen=True)
class GridField:
    """One real value per node of a GridDomain; zero outside the box."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.domain.node_count,):
            raise GridError(
                f"value count {vals.shape} does not match node count {self.domain.node_count}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def scaled(self, factor: float) -> "GridField":
        return GridField(self.domain, factor * self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def build_grid(
    extents: Sequence[float] | float,
    counts: Sequence[int] | int,
) -> GridDomain:
    """Build a uniform cell-centered grid; scalars are promoted to 1-D."""
    extents, counts = ((x,) if np.ndim(x) == 0 else tuple(x) for x in (extents, counts))
    return GridDomain(extents, counts)


PRESETS = ("constant", "sine", "bump", "indicator")


def sample_field(grid: GridDomain, preset: str, amplitude: float = 1.0) -> GridField:
    """Evaluate ``amplitude * profile`` at the grid nodes.

    Presets: "constant"; "sine" (first homogeneous-boundary mode per axis);
    "bump" (smooth, compactly supported inside the box); "indicator"
    (characteristic function of the central sub-box [1/4, 3/4) of the box
    per axis, in fractions of the extent).
    """
    x = grid.coords
    if preset == "constant":
        profile = np.ones(grid.node_count)
    elif preset == "sine":
        profile = np.ones(grid.node_count)
        for ax, ext in enumerate(grid.extents):
            profile = profile * np.sin(np.pi * x[:, ax] / ext)
    elif preset == "bump":
        rho2 = np.zeros(grid.node_count)
        for ax, ext in enumerate(grid.extents):
            rho2 += ((x[:, ax] - 0.5 * ext) / (0.5 * ext)) ** 2
        profile = np.zeros(grid.node_count)
        inside = rho2 < 1.0
        profile[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
    elif preset == "indicator":
        profile = np.ones(grid.node_count)
        for ax, ext in enumerate(grid.extents):
            xi = x[:, ax] / ext
            profile = profile * ((xi >= 0.25) & (xi < 0.75))
    else:
        raise GridError(f"unknown preset {preset!r}; choose one of {PRESETS}")
    return GridField(grid, amplitude * profile)


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


def smooth_mode_rows(grid: GridDomain, draws: np.ndarray, modes: int) -> np.ndarray:
    """One superposition of homogeneous-boundary modes per row of weights
    ``draws`` (``modes ** N`` per row), with decaying factors: the sum over
    k (and l) of c / k^2 sin_k (1-D) or c / (k^2 + l^2) sin_k sin_l (2-D),
    accumulated in mode order."""
    vals = np.zeros((len(draws), grid.node_count))
    if grid.ndim == 1:
        (sx,) = _sine_modes(grid, modes)
        for k in range(1, modes + 1):
            vals += (draws[:, k - 1] / k ** 2)[:, None] * sx[k - 1]
    else:
        sx, sy = _sine_modes(grid, modes)
        for k in range(1, modes + 1):
            for l in range(1, modes + 1):
                c = draws[:, (k - 1) * modes + l - 1] / (k ** 2 + l ** 2)
                vals += c[:, None] * sx[k - 1] * sy[l - 1]
    return vals


def random_smooth_field(grid: GridDomain, rng: np.random.Generator, modes: int) -> GridField:
    """Random superposition of homogeneous-boundary modes with normal weights."""
    draws = rng.normal(size=(1, modes ** grid.ndim))
    return GridField(grid, smooth_mode_rows(grid, draws, modes)[0])


def discrete_norm(u: GridField, r: float) -> float:
    """Discrete L^r norm (sum |u_i|^r h^N)^(1/r); max |u_i| for r = inf."""
    if np.isinf(r):
        return u.max_abs()
    if r < 1.0:
        raise GridError(f"norm exponent must satisfy r >= 1, got {r}")
    hN = u.domain.cell_measure
    return float(np.sum(np.abs(u.values) ** r) * hN) ** (1.0 / r)


def inner(u: GridField, w: GridField) -> float:
    """Discrete L^2 pairing sum u_i w_i h^N on a shared domain."""
    if u.domain != w.domain:
        raise GridError("inner product requires a shared domain")
    return float(np.sum(u.values * w.values) * u.domain.cell_measure)
