"""Minimal SVG polyline plots with linear/log axes; no plotting dependency."""

from __future__ import annotations

import math
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


def _transform(vals, lo, hi, out_lo, out_hi, log):
    vals = np.asarray(vals, float)
    if log:
        vals, lo, hi = np.log10(vals), math.log10(lo), math.log10(hi)
    if hi <= lo:
        hi = lo + 1.0
    return out_lo + (vals - lo) * (out_hi - out_lo) / (hi - lo)


def _ticks(lo, hi, log):
    if log:
        d0, d1 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [10.0 ** d for d in range(d0, d1 + 1)]
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / 4))
    for m in (1, 2, 5, 10):
        if span / (step * m) <= 6:
            step *= m
            break
    first = math.ceil(lo / step) * step
    return list(np.arange(first, hi + 0.5 * step, step))


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


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
    allx = np.concatenate([p[0] for p in pts]) if pts else np.array([0.0, 1.0])
    ally = np.concatenate([p[1] for p in pts]) if pts else np.array([0.0, 1.0])
    if allx.size == 0:
        allx = np.array([0.1, 1.0])
    if ally.size == 0:
        ally = np.array([0.1, 1.0])
    xlo, xhi = float(np.min(allx)), float(np.max(allx))
    ylo, yhi = float(np.min(ally)), float(np.max(ally))
    if not xlog and xlo == xhi:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if not ylog and ylo == yhi:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    if xlog:
        xhi = max(xhi, xlo * 1.0001)
    if ylog:
        yhi = max(yhi, ylo * 1.0001)

    def X(v):
        return _transform(v, xlo, xhi, _ML, _W - _MR, xlog)

    def Y(v):
        return _transform(v, ylo, yhi, _H - _MB, _MT, ylog)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="#444"/>',
    ]
    if title:
        out.append(f'<text x="{_W/2}" y="{_MT-12}" text-anchor="middle">{title}</text>')
    for tv in _ticks(xlo, xhi, xlog):
        if not (xlo <= tv <= xhi * (1 + 1e-12)):
            continue
        px = float(X(tv))
        out.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" y2="{_H-_MB+5}" stroke="#444"/>')
        out.append(f'<text x="{px:.1f}" y="{_H-_MB+18}" text-anchor="middle">{_fmt(tv)}</text>')
    for tv in _ticks(ylo, yhi, ylog):
        if not (ylo <= tv <= yhi * (1 + 1e-12)):
            continue
        py = float(Y(tv))
        out.append(f'<line x1="{_ML-5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#444"/>')
        out.append(f'<text x="{_ML-8}" y="{py+4:.1f}" text-anchor="end">{_fmt(tv)}</text>')
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
        coords = " ".join(f"{float(X(x)):.2f},{float(Y(y)):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if s.label:
            ly = _MT + 16 + 16 * i
            out.append(f'<line x1="{_W-_MR-130}" y1="{ly-4}" x2="{_W-_MR-105}" y2="{ly-4}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_W-_MR-100}" y="{ly}">{s.label}</text>')
    for mx, my, label in marks or []:
        ok = (not xlog or mx > 0) and (not ylog or my > 0)
        if not ok or not (xlo <= mx <= xhi) :
            continue
        px, py = float(X(mx)), float(Y(my))
        out.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" fill="#d62728"/>')
        out.append(f'<text x="{px+6:.1f}" y="{py-6:.1f}">{label}</text>')
    out.append("</svg>")
    atomic_write_text(path, "\n".join(out))
