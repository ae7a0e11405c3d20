"""SVG rendering: M4 decimation of long polylines, exact bytes for short ones.

`_reference_render` is the renderer as it was before decimation, one
Python float at a time; it also returns the pixel coordinates of every
point it drew, which the properties below are stated against.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpme.svgfig import _PALETTE, LineFigure, Series, _m4_indices, render_svg

PW = 630  # plot width in pixels of the 720 x 480 figure
KINDS = ("random", "spiky", "smooth", "log", "nonfinite")


def _transform(vals, log):
    out = []
    for v in vals:
        v = float(v)
        if log:
            if v <= 0.0 or not math.isfinite(v):
                out.append(None)
            else:
                out.append(math.log10(v))
        else:
            out.append(v if math.isfinite(v) else None)
    return out


def _ticks(lo, hi, log, n=5):
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


def _reference_render(fig):
    """(svg text drawing every point, [[(px, py), ...] per series])."""
    W, H = 720, 480  # every figure's size
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = W - ml - mr, H - mt - mb

    pts = []
    for s in fig.series:
        xs = _transform(s.x, fig.logx)
        ys = _transform(s.y, fig.logy)
        pts.append([(a, b) for a, b in zip(xs, ys) if a is not None and b is not None])
    allx = [p[0] for poly in pts for p in poly]
    ally = [p[1] for poly in pts for p in poly]
    if not allx:
        allx, ally = [0.0, 1.0], [0.0, 1.0]
    xlo, xhi = min(allx), max(allx)
    ylo, yhi = min(ally), max(ally)
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

    drawn = []
    for i, (s, poly) in enumerate(zip(fig.series, pts)):
        if not poly:
            continue
        color = _PALETTE[i % len(_PALETTE)]
        drawn.append([(px(a), py(b)) for a, b in poly])
        path = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in poly)
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
    return "\n".join(out) + "\n", drawn


def _series(seed: int, kind: str, n: int) -> Series:
    """n points of one of KINDS: noise, isolated tall spikes on a flat
    floor, a smooth bump sampled finer than a pixel, positive data over
    many decades (with zeros, for log axes), or noise with NaN/inf holes."""
    if n == 0:
        return Series([], [], kind)
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-3.0, 5.0, n))
    if kind == "random":
        y = rng.standard_normal(n)
    elif kind == "spiky":
        y = np.zeros(n)
        hits = rng.integers(0, n, max(1, n // 500))
        y[hits] = rng.uniform(-50.0, 50.0, hits.size)
    elif kind == "smooth":
        y = np.exp(-x**2) + 1e-3 * np.sin(40.0 * x)
    elif kind == "log":
        x = np.geomspace(1e-3, 1e3, n)
        y = 10.0 ** rng.uniform(-12.0, 3.0, n)
        y[rng.integers(0, n, n // 100 + 1)] = 0.0
    else:
        y = rng.standard_normal(n)
        y[rng.integers(0, n, n // 50 + 1)] = rng.choice([np.nan, np.inf, -np.inf])
    return Series(x, y, f"{kind} {seed}")


def _figure(series, kind):
    log = kind == "log"
    return LineFigure("t", "x", "y", series, logx=log, logy=log)


def _polylines(text):
    return [p.split() for p in re.findall(r'<polyline points="([^"]*)"', text)]


def _without_points(text):
    return re.sub(r'points="[^"]*"', 'points=""', text)


def _m4_loop(cols, ys):
    """Reference M4, one point at a time."""
    keep = set()
    start = 0
    for i in range(1, len(cols) + 1):
        if i == len(cols) or cols[i] != cols[start]:
            run = range(start, i)
            keep |= {start, i - 1, min(run, key=lambda j: (ys[j], j)),
                     min(run, key=lambda j: (-ys[j], j))}
            start = i
    return sorted(keep)


def _is_subsequence(part, whole):
    it = iter(whole)
    return all(any(p == w for w in it) for p in part)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
       n=st.integers(4 * PW + 1, 12000), n_short=st.integers(0, 4 * PW))
def test_m4_keeps_envelope_of_long_polylines(seed, kind, n, n_short):
    """A polyline of more than 4*pw points is drawn through the first and
    last point of the series and the first, last, lowest and highest point
    of every pixel column, in order; a short series beside it and the
    axes are drawn as before."""
    fig = _figure([_series(seed, kind, n), _series(seed + 1, kind, n_short)], kind)
    text = render_svg(fig)
    ref_text, drawn = _reference_render(fig)
    assert _without_points(text) == _without_points(ref_text)
    got, ref = _polylines(text), _polylines(ref_text)
    assert len(got) == len(ref) == len(drawn)
    for tokens, ref_tokens, pixels in zip(got, ref, drawn):
        if len(pixels) <= 4 * PW:
            assert tokens == ref_tokens
            continue
        cols = [math.floor(a) for a, _ in pixels]
        ys = [b for _, b in pixels]
        assert tokens[0] == ref_tokens[0] and tokens[-1] == ref_tokens[-1]
        assert _is_subsequence(tokens, ref_tokens)
        assert len(tokens) <= 4 * len(set(cols))
        kept = set(tokens)
        by_col = {}
        for j, c in enumerate(cols):
            by_col.setdefault(c, []).append(j)
        for run in by_col.values():
            for extreme in (min, max):
                y = extreme(ys[j] for j in run)
                assert any(ref_tokens[j] in kept for j in run if ys[j] == y)
        assert tokens == [ref_tokens[j] for j in _m4_loop(cols, ys)]


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 6),
                                 st.sampled_from([-2.0, -0.5, 0.0, 0.5, 3.0])),
                       min_size=1, max_size=60),
       monotone=st.booleans())
def test_m4_indices_properties(points, monotone):
    """Per run of equal columns at most four indices are kept, among them
    the run's first, last, lowest and highest (first of ties); the result
    is increasing, so the kept points are a subsequence."""
    cols = np.array([c for c, _ in points])
    cols = np.sort(cols) if monotone else cols
    ys = np.array([y for _, y in points])
    keep = _m4_indices(cols, ys)
    assert keep.tolist() == _m4_loop(cols.tolist(), ys.tolist())
    assert np.all(np.diff(keep) > 0) and keep[0] == 0 and keep[-1] == len(cols) - 1
    bounds = np.flatnonzero(np.diff(cols)) + 1
    for run in np.split(np.arange(len(cols)), bounds):
        kept = np.intersect1d(keep, run)
        assert 1 <= kept.size <= 4
        assert {run[0], run[-1], run[np.argmin(ys[run])], run[np.argmax(ys[run])]} \
            <= set(kept.tolist())


@settings(max_examples=60, deadline=None)
@given(points=st.lists(st.tuples(st.integers(0, 6), st.sampled_from([-1.0, 0.0, 2.0])),
                       min_size=1, max_size=80))
def test_m4_indices_are_np_unique_of_the_candidates(points):
    """The kept indices equal, dtype and bits, np.unique of every run's
    first, last, lowest and highest index, a list with repeats (a run of
    one point names its index four times)."""
    cols = np.sort(np.array([c for c, _ in points]))
    ys = np.array([y for _, y in points])
    candidates = []
    for run in np.split(np.arange(len(cols)), np.flatnonzero(np.diff(cols)) + 1):
        candidates += [run[0], run[-1], run[np.argmin(ys[run])], run[np.argmax(ys[run])]]
    want = np.unique(np.array(candidates))
    keep = _m4_indices(cols, ys)
    assert keep.dtype == want.dtype and keep.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=4),
       kind=st.sampled_from(KINDS), n=st.integers(0, 4 * PW))
def test_short_polylines_render_as_before(seeds, kind, n):
    """Series of at most 4*pw points render byte-identical to the
    renderer without decimation."""
    fig = _figure([_series(seed, kind, n) for seed in seeds], kind)
    assert render_svg(fig) == _reference_render(fig)[0]


@pytest.mark.parametrize("x, y", [([1, 2, 3], [1.0, 2.0]), (np.zeros(3), np.ones(4))])
def test_series_lengths_must_match(x, y):
    with pytest.raises(ValueError, match="lengths differ"):
        render_svg(LineFigure("t", "x", "y", [Series(x, y, "bad")]))
