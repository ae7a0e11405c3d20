"""Self-contained SVG line plots; no plotting stack required.

Polyline figures with optional log axes, enough for density evolution
snapshots, log-log decay fits, and residual maps.  Output is plain
deterministic text: the same figure spec always yields the same bytes.

A figure is sized to what it can show: a polyline with more than four
points per pixel column of the plot is reduced by M4 aggregation to the
first, last, lowest and highest point of each column, which leaves the
drawn envelope unchanged.  Axis bounds are taken from all points, and a
polyline with fewer points is drawn through every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Series", "LineFigure", "render_svg", "write_svg"]

_PALETTE = ["#1f5fa8", "#c23b22", "#2e8540", "#8031a7", "#b8860b", "#12787f",
            "#77216f", "#444444"]


@dataclass
class Series:
    x: list  # or a 1-d array; x and y have one length
    y: list
    label: str = ""


@dataclass
class LineFigure:
    title: str
    xlabel: str
    ylabel: str
    series: list = field(default_factory=list)
    logx: bool = False
    logy: bool = False
    width: int = 720
    height: int = 480


def _axis_values(vals, log: bool) -> np.ndarray:
    """Values in axis units: log10 on a log axis, NaN where unplottable
    (non-finite, or <= 0 on a log axis)."""
    v = np.array(vals, dtype=float)
    ok = np.isfinite(v)
    if log:
        ok &= v > 0.0
        # math.log10, not np.log10: they differ in the last bit for a few
        # inputs in a thousand, enough to move a coordinate that sits on a
        # rounding boundary of its two printed decimals
        v[ok] = np.fromiter(map(math.log10, v[ok].tolist()), float, np.count_nonzero(ok))
    v[~ok] = np.nan
    return v


def _m4_indices(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices M4 keeps: in every run of consecutive equal `cols`, the
    first, last, min-y and max-y points (first of ties), sorted and
    without duplicates.

    A polyline through the kept points covers, in each pixel column, the
    same vertical span as one through all the points, and joins the
    columns at the same points (Jugel et al., "M4", VLDB 2014).
    """
    n = len(cols)
    starts = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    lengths = np.diff(np.append(starts, n))
    group = np.repeat(np.arange(len(starts)), lengths)

    def first_hit(extreme):
        hits = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), lengths))
        return hits[np.concatenate(([True], group[hits[1:]] != group[hits[:-1]]))]

    kept = np.sort(np.concatenate(
        (starts, starts + lengths - 1, first_hit(np.minimum), first_hit(np.maximum))))
    return kept[np.concatenate(([True], kept[1:] != kept[:-1]))]


def _ticks(lo: float, hi: float, log: bool, n: int = 5):
    span = hi - lo
    if span <= 0:
        span = 1.0
        hi = lo + 1.0
    ticks = []
    for i in range(n):
        pos = lo + span * i / (n - 1)
        label = 10.0**pos if log else pos
        ticks.append((pos, "%.3g" % label))
    return ticks


def render_svg(fig: LineFigure) -> str:
    W, H = fig.width, fig.height
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = W - ml - mr, H - mt - mb

    pts = []
    for s in fig.series:
        if len(s.x) != len(s.y):
            raise ValueError(f"series {s.label!r}: x and y lengths differ")
        xs = _axis_values(s.x, fig.logx)
        ys = _axis_values(s.y, fig.logy)
        ok = ~(np.isnan(xs) | np.isnan(ys))
        pts.append((xs[ok], ys[ok]))
    allx = np.concatenate([xs for xs, _ in pts]) if pts else np.empty(0)
    ally = np.concatenate([ys for _, ys in pts]) if pts else np.empty(0)
    if not allx.size:
        allx, ally = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    xlo, xhi = float(allx.min()), float(allx.max())
    ylo, yhi = float(ally.min()), float(ally.max())
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x):
        return ml + pw * (x - xlo) / (xhi - xlo)

    def py(y):
        return mt + ph * (1.0 - (y - ylo) / (yhi - ylo))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">'
    )
    out.append(f'<rect width="{W}" height="{H}" fill="white"/>')
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{fig.title}</text>'
    )
    for pos, label in _ticks(xlo, xhi, fig.logx):
        x = px(pos)
        out.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
                   f'y2="{mt + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{x:.2f}" y="{mt + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    for pos, label in _ticks(ylo, yhi, fig.logy):
        y = py(pos)
        out.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
                   f'stroke="#333"/>')
        out.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{H - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{fig.xlabel}</text>')
    out.append(f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {mt + ph / 2:.1f})">{fig.ylabel}</text>')

    for i, (s, (xs, ys)) in enumerate(zip(fig.series, pts)):
        if not xs.size:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        xs, ys = px(xs), py(ys)
        if xs.size > 4 * pw:  # more points than M4 keeps at most
            keep = _m4_indices(np.floor(xs), ys)
            xs, ys = xs[keep], ys[keep]
        path = " ".join(map("%.2f,%.2f".__mod__, zip(xs.tolist(), ys.tolist())))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        if s.label:
            ly = mt + 16 + 16 * i
            out.append(f'<line x1="{ml + pw - 120}" y1="{ly - 4}" '
                       f'x2="{ml + pw - 100}" y2="{ly - 4}" stroke="{color}" '
                       f'stroke-width="2"/>')
            out.append(f'<text x="{ml + pw - 95}" y="{ly}" '
                       f'font-family="sans-serif" font-size="11">{s.label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(fig: LineFigure, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_svg(fig))
