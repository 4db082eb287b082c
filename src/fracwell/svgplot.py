"""Minimal SVG polyline plots with linear/log axes; no plotting dependency."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_write_text

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 52


@dataclass
class Series:
    xs: np.ndarray
    ys: np.ndarray
    label: str = ""


def _ticks(lo, hi, log):
    if log:
        d0, d1 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0 ** d for d in range(d0, d1 + 1)]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / 4))
    for m in (1, 2, 5, 10):
        if span / (step * m) <= 6:
            step *= m
            break
    first = math.ceil(lo / step) * step
    return list(np.arange(first, min(hi + 0.5 * step, sys.float_info.max), step))


def _axis(vals: list[np.ndarray], log: bool, px_lo: float, px_hi: float):
    """One axis from the kept points of every series: its range lo, hi, the
    map of data values (scalar or array) to pixels, and the (label, pixel) of
    each tick in the range.  The range is [0, 1] with no series on a linear
    axis, [0.1, 1] with no series on a log axis or when no point was kept,
    +-0.5 around a single value on a linear axis (+-1e-6 of its magnitude
    where 0.5 is below the spacing of floats there, from about 1e16 up), and
    at least [lo, 1.0001 lo] on a log axis."""
    allv = np.concatenate(vals) if vals else np.array([0.1 if log else 0.0, 1.0])
    if allv.size == 0:
        allv = np.array([0.1, 1.0])
    lo, hi = float(np.min(allv)), float(np.max(allv))
    if log:
        hi = max(hi, lo * 1.0001)
    elif lo == hi:
        w = 0.5 if lo - 0.5 < hi + 0.5 else 1e-6 * abs(lo)
        lo, hi = max(lo - w, -sys.float_info.max), min(hi + w, sys.float_info.max)
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    if b <= a:
        b = a + 1.0

    def to_px(v):
        v = np.asarray(v, float)
        return px_lo + ((np.log10(v) if log else v) - a) * (px_hi - px_lo) / (b - a)

    ticks = [tv for tv in _ticks(lo, hi, log) if lo <= tv <= hi * (1 + 1e-12)]
    return lo, hi, to_px, list(zip(_labels(ticks), to_px(ticks).tolist()))


def _fmt(v, extra=0):
    """A tick label: %.1e from 1e4 up and below 1e-3, %.4g between, each
    with ``extra`` more digits."""
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.{1 + extra}e}"
    return f"{v:.{4 + extra}g}"


def _labels(ticks):
    """An axis's tick labels, with the fewest extra digits that keep them
    distinct (17 significant digits tell any two doubles apart)."""
    for extra in range(16):
        labels = [_fmt(v, extra) for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def plot_svg(
    path,
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    xlog: bool = False,
    ylog: bool = False,
    marks: list[tuple[float, float, str]] | None = None,
) -> None:
    """Write a polyline plot of the series to an SVG file.

    Log axes drop non-positive points of a series silently.
    """
    pts = []
    for s in series:
        xs, ys = np.asarray(s.xs, float), np.asarray(s.ys, float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if xlog:
            keep &= xs > 0
        if ylog:
            keep &= ys > 0
        pts.append((xs[keep], ys[keep]))
    xlo, xhi, X, xticks = _axis([p[0] for p in pts], xlog, _ML, _W - _MR)
    _, _, Y, yticks = _axis([p[1] for p in pts], ylog, _H - _MB, _MT)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="#444"/>',
    ]
    if title:
        out.append(f'<text x="{_W/2}" y="{_MT-12}" text-anchor="middle">{title}</text>')
    for label, px in xticks:
        out.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" y2="{_H-_MB+5}" stroke="#444"/>')
        out.append(f'<text x="{px:.1f}" y="{_H-_MB+18}" text-anchor="middle">{label}</text>')
    for label, py in yticks:
        out.append(f'<line x1="{_ML-5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<text x="{_ML-8}" y="{py+4:.1f}" text-anchor="end">{label}</text>')
    if xlabel:
        out.append(f'<text x="{_W/2}" y="{_H-12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        out.append(
            f'<text x="16" y="{_H/2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_H/2})">{ylabel}</text>'
        )
    for i, (s, (xs, ys)) in enumerate(zip(series, pts)):
        if xs.size == 0:
            continue
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in zip(X(xs).tolist(), Y(ys).tolist()))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if s.label:
            ly = _MT + 16 + 16 * i
            out.append(f'<line x1="{_W-_MR-130}" y1="{ly-4}" x2="{_W-_MR-105}" y2="{ly-4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_W-_MR-100}" y="{ly}">{s.label}</text>')
    for mx, my, label in marks or []:
        ok = (not xlog or mx > 0) and (not ylog or my > 0)
        if not ok or not (xlo <= mx <= xhi):
            continue
        px, py = float(X(mx)), float(Y(my))
        out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="#d62728"/>')
        out.append(f'<text x="{px+6:.1f}" y="{py-6:.1f}">{label}</text>')
    out.append("</svg>")
    atomic_write_text(path, "\n".join(out))
