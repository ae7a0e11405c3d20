"""Discrete nonlocal operators on periodic grids.

Three families of operators live here:

* Spectral Fourier-multiplier operators: the fractional Laplacian
  (-Delta)^alpha with symbol |k|^(2*alpha), the Riesz-potential gradient
  d/dx (-Delta)^(-s) with symbol i*k*|k|^(-2s), plain spectral derivatives,
  and the Parseval energies built from the same symbols.

* The mollified singular-integral operator

      L_eps u(x) = C(1-s) * int (u(x) - u(y)) / (|x-y|^2 + eps^2)^((3-2s)/2) dy

  discretized by quadrature with the kernel periodized over the box
  images and its far tail completed with Hurwitz zeta values.  The
  discrete operator is circulant, so it is applied as the Fourier
  multiplier lambda(k) of its quadrature weights.  As eps -> 0 it
  converges to the spectral (-Delta)^(1-s), which is what the convergence
  tests check.  Its one public form is `mollified_frac_laplacian`; the
  pressure gradient d/dx (-Delta)^(-1) L_eps of the mollified flow is the
  single multiplier i*lambda(k)/k of `_folded_symbol`, which the density
  solver applies on arrays.

* Whole-line fractional Laplacians of a callable at given points, for
  the barrier verification: fixed Gauss rules applied to all points at
  once.

Every multiplier acts on real fields through the real FFT: its symbol is
sampled on the half spectrum k_j = pi*j/L, j = 0..n/2, memoised per
(half_length, n, order...) in a bounded cache and handed out read-only.
Odd symbols (those with a factor i*k) send the Nyquist bin to zero; the
n/2 mode has no odd real counterpart on the grid.  The Parseval energies
weight the same half spectrum, counting each interior bin twice.

All spectral operators annihilate the zero mode: on a periodic box the
Riesz potential of the mean is not defined, and the pressure is only
determined up to a constant anyway.
"""

from __future__ import annotations

import functools
import math

import numpy as np
# every pipeline transforms, so set-up pays for numpy.fft; numpy.polynomial
# loads on first use in _gauss_legendre, so only the barrier pipelines pay
import numpy.fft

from .grid import Field, FracOrder, Grid1D

__all__ = [
    "spectral_derivative",
    "frac_laplacian",
    "riesz_gradient",
    "inv_laplacian_gradient",
    "neg_half_order_norm",
    "frac_constant",
    "mollified_frac_laplacian",
    "line_frac_laplacian",
    "line_frac_laplacian_outside",
]


def _check_finite(values: np.ndarray):
    # max propagates NaN: two reductions, and no boolean array of the input
    if not (math.isfinite(values.max()) and math.isfinite(values.min())):
        raise ValueError("operator input contains NaN or Inf")


# Memoised per (half_length, n, order...): a run touches a handful of
# orders and grids, so a small bound keeps every live key.
_CACHE_SIZE = 16


def _cached_readonly(build):
    """Bounded memo of an array builder; the arrays it hands out are read-only."""

    @functools.lru_cache(maxsize=_CACHE_SIZE)
    @functools.wraps(build)
    def cached(*key):
        sym = build(*key)
        sym.flags.writeable = False
        return sym

    return cached


def _half_wavenumbers(half_length: float, n: int) -> np.ndarray:
    """k_j = pi*j/L for j = 0..n/2, the rfft bins of a grid with these sizes."""
    return 2.0 * np.pi * np.fft.rfftfreq(n, d=2.0 * half_length / n)


@_cached_readonly
def _even_symbol(half_length: float, n: int, power: float) -> np.ndarray:
    """|k|^power with the zero mode mapped to zero, for any sign of power."""
    k = _half_wavenumbers(half_length, n)
    k[0] = 1.0  # guard; zeroed below
    sym = k**power
    sym[0] = 0.0
    return sym


@_cached_readonly
def _odd_symbol(half_length: float, n: int, power: float) -> np.ndarray:
    """i*k*|k|^power with the zero and Nyquist modes mapped to zero."""
    sym = 1j * _half_wavenumbers(half_length, n) * _even_symbol(half_length, n, power)
    sym[-1] = 0.0
    return sym


def _apply_rows(a: np.ndarray, sym: np.ndarray, out: np.ndarray | None = None,
                spectrum: np.ndarray | None = None) -> np.ndarray:
    """Apply a half-spectrum symbol along the last axis of a real array.

    `a` is one field's samples or a (B, n) stack of them; numpy's batched
    FFT gives each row bitwise the result of its own 1-D transform.  The
    result goes to `out` and the spectrum, (..., n/2+1) complex, to
    `spectrum` when they are given, and to new arrays otherwise; the bits
    are the same either way.
    """
    spectrum = np.fft.rfft(a, axis=-1, out=spectrum)
    np.multiply(sym, spectrum, out=spectrum)
    return np.fft.irfft(spectrum, a.shape[-1], axis=-1, out=out)


def _apply_multiplier(f: Field, sym: np.ndarray) -> Field:
    """Apply a half-spectrum symbol to a real field through the real FFT."""
    return f.with_values(_apply_rows(f.values, sym))


def _frac_laplacian_rows(a: np.ndarray, grid: Grid1D, order: FracOrder,
                         out: np.ndarray | None = None,
                         spectrum: np.ndarray | None = None) -> np.ndarray:
    """(-Delta)^alpha along the last axis of a real array on `grid`, into
    the buffers `out` and `spectrum` of :func:`_apply_rows` when given."""
    _check_finite(a)
    return _apply_rows(a, _even_symbol(grid.half_length, grid.n, 2.0 * order.alpha),
                       out, spectrum)


def _parseval(f: Field, sym: np.ndarray) -> float:
    """int sym(k) |f^(k)|^2 dx over the full spectrum, from the half spectrum.

    The bins 1..n/2-1 stand for their mirror images too and count twice;
    the zero and Nyquist bins are their own mirrors and count once.
    """
    _check_finite(f.values)
    grid = f.grid
    power = sym * np.abs(np.fft.rfft(f.values)) ** 2
    total = 2.0 * power[1:-1].sum() + power[0] + power[-1]
    return float(2.0 * grid.half_length / grid.n**2 * total)


def spectral_derivative(f: Field) -> Field:
    """First derivative with the Fourier multiplier i*k."""
    _check_finite(f.values)
    return _apply_multiplier(f, _odd_symbol(f.grid.half_length, f.grid.n, 0.0))


def frac_laplacian(f: Field, order: FracOrder) -> Field:
    """Fractional Laplacian (-Delta)^alpha, multiplier |k|^(2*alpha).

    The zero mode maps to zero; constants are annihilated exactly.
    """
    return f.with_values(_frac_laplacian_rows(f.values, f.grid, order))


def riesz_gradient(f: Field, s: float) -> Field:
    """Gradient of the Riesz potential, d/dx (-Delta)^(-s).

    Fourier multiplier i*k*|k|^(-2s) with the zero mode projected out:
    the potential of the mean diverges on a periodic box, but the mean
    contributes no gradient, so the result is unambiguous.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    _check_finite(f.values)
    return _apply_multiplier(f, _odd_symbol(f.grid.half_length, f.grid.n, -2.0 * s))


def inv_laplacian_gradient(f: Field) -> Field:
    """Gradient of the inverse Laplacian, d/dx (-Delta)^(-1); multiplier i/k."""
    _check_finite(f.values)
    return _apply_multiplier(f, _odd_symbol(f.grid.half_length, f.grid.n, -2.0))


def neg_half_order_norm(f: Field, s: float) -> float:
    """Squared seminorm int |(-Delta)^(-s/2) f|^2 dx, zero mode excluded.

    On the periodic box the negative-order energy diverges on the mean, so
    the mean is projected out and the result is a monitoring surrogate for
    the whole-space quantity.  Adding a constant to f does not change it.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return _parseval(f, _even_symbol(f.grid.half_length, f.grid.n, -2.0 * s))


def frac_constant(alpha: float) -> float:
    """Normalizing constant of the 1D fractional Laplacian of order alpha.

    C(alpha) = 4^alpha * Gamma(1/2 + alpha) / (sqrt(pi) * |Gamma(-alpha)|),
    the convention that makes the singular integral match the Fourier
    multiplier |k|^(2*alpha).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return (4.0**alpha * math.gamma(0.5 + alpha)
            / (math.sqrt(math.pi) * abs(math.gamma(-alpha))))


# --- mollified operator -------------------------------------------------

# box images summed explicitly in the periodized kernel; the analytic tail
# completes the rest
_IMAGES = 3

# Euler-Maclaurin for the Hurwitz zeta: direct terms, then the Bernoulli
# numbers B_2, B_4, ..., B_16 of the remainder's corrections
_ZETA_DIRECT = 10
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _hurwitz_zeta(p: float, a: np.ndarray) -> np.ndarray:
    """Hurwitz zeta sum_(k>=0) (a + k)^(-p), p > 1, elementwise in a.

    Sums _ZETA_DIRECT terms, then adds the Euler-Maclaurin remainder at
    x = a + _ZETA_DIRECT: x^(1-p)/(p-1) + x^(-p)/2 and the corrections
    B_2j/(2j)! * p(p+1)...(p+2j-2) * x^(-p-2j+1) for j = 1..8.  For the
    p in (1, 3) and a in (3, 5) of the periodized kernel the first omitted
    correction is below 1e-18 relative.
    """
    a = np.asarray(a, dtype=float)
    total = ((a[..., None] + np.arange(_ZETA_DIRECT)) ** -p).sum(axis=-1)
    x = a + _ZETA_DIRECT
    total += x ** (1.0 - p) / (p - 1.0) + 0.5 * x**-p
    term = 0.5 * p * x ** (-p - 1.0)
    for j, bernoulli in enumerate(_BERNOULLI, start=1):
        total += bernoulli * term
        term = term * (p + 2 * j - 1) * (p + 2 * j) / ((2 * j + 1) * (2 * j + 2) * x * x)
    return total


@_cached_readonly
def _periodized_weights(half_length: float, n: int, s: float, eps: float) -> np.ndarray:
    """Quadrature weights w_d = h * C * sum_j K_eps(d*h + 2*L*j), read-only.

    The kernel K_eps(z) = (z^2 + eps^2)^(-(3-2s)/2) is summed explicitly
    over |j| <= _IMAGES; the remaining tail decays like |z|^(-(3-2s)) and is
    completed analytically with Hurwitz zeta values (the eps^2 shift is
    negligible that far out).  Without the tail the operator misses a slow
    |z|^(2s-3) contribution that the spectral comparison tests can see.
    """
    p = 3.0 - 2.0 * s
    L2 = 2.0 * half_length
    h = L2 / n
    z = h * np.arange(n)
    ksum = np.zeros(n)
    for j in range(-_IMAGES, _IMAGES + 1):
        ksum += ((z + L2 * j) ** 2 + eps**2) ** (-p / 2.0)
    frac = z / L2
    tail = L2 ** (-p) * (_hurwitz_zeta(p, _IMAGES + 1 + frac)
                         + _hurwitz_zeta(p, _IMAGES + 1 - frac))
    weights = frac_constant(1.0 - s) * h * (ksum + tail)
    # the periodized kernel is even in the offset; symmetrizing removes the
    # tiny eps^2 asymmetry the analytic tail introduces at the window edge
    return 0.5 * (weights + weights[(-np.arange(n)) % n])


@_cached_readonly
def _symbol(half_length: float, n: int, s: float, eps: float) -> np.ndarray:
    """Eigenvalues lambda(k) of the mollified operator on the half spectrum.

    The discrete operator is circulant, so its eigenvalues are
    lambda_j = sum_d w_d (1 - cos(k_j d h)) >= 0 at k_j = pi*j/L,
    j = 0..n/2; they are even in k.
    """
    w = _periodized_weights(half_length, n, s, eps)
    return np.maximum(w.sum() - np.fft.rfft(w).real, 0.0)  # clip roundoff at k=0


@_cached_readonly
def _folded_symbol(half_length: float, n: int, s: float, eps: float) -> np.ndarray:
    """i*lambda(k)/k, the symbol of d/dx (-Delta)^(-1) L_eps."""
    return _odd_symbol(half_length, n, -2.0) * _symbol(half_length, n, s, eps)


def mollified_frac_laplacian(f: Field, s: float, eps: float) -> Field:
    """Mollified fractional Laplacian of order 1-s.

    Computes C(1-s) * sum_y (f(x) - f(y)) / (|x-y|^2 + eps^2)^((3-2s)/2) * h
    with the kernel periodized over box images, applied through the
    operator's Fourier symbol.  Symmetric and positive semidefinite;
    constants map to zero for any eps.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    _check_finite(f.values)
    return _apply_multiplier(f, _symbol(f.grid.half_length, f.grid.n, s, eps))


# --- whole-line quadrature (barrier verification) -----------------------

# Node counts of the fixed rules.  The near rule stays small: its nodes
# closest to z = 0 carry the second difference's cancellation error.
_OUTSIDE_NODES = 128
_NEAR_NODES = 16
_MID_NODES = 64
_FAR_NODES = 96


@_cached_readonly
def _gauss_legendre(n: int) -> np.ndarray:
    """Rows (nodes, weights) of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return np.stack([0.5 * (x + 1.0), 0.5 * w])


@_cached_readonly
def _gauss_jacobi(n: int, power: float) -> np.ndarray:
    """Rows (nodes, weights) of the n-point rule for int_0^1 g(t) t^power dt.

    Golub-Welsch, power > -1: with t = (1 + x)/2 the weight is the Jacobi
    weight (1 + x)^power on [-1, 1], whose three-term recurrence gives a
    symmetric tridiagonal matrix; its eigenvalues are the nodes and the
    squared first components of its eigenvectors, times the weight's mass
    1/(power + 1) on [0, 1], are the weights.
    """
    b = power
    k = np.arange(1, n, dtype=float)
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    off = 2.0 * k * (k + b) / ((2.0 * k + b) * np.sqrt((2.0 * k + b) ** 2 - 1.0))
    x, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return np.stack([0.5 * (x + 1.0), vectors[0] ** 2 / (b + 1.0)])


def line_frac_laplacian(fn, x: np.ndarray, alpha: float) -> np.ndarray:
    """(-Delta)^alpha of a callable on the whole real line, pointwise.

    Uses the symmetric second-difference form

        C(alpha) * int_0^inf (2 f(x) - f(x+z) - f(x-z)) z^(-1-2*alpha) dz

    with fixed Gauss rules, each applied to all points at once: fn takes
    arrays and is called once per rule.  fn must be smooth on each side of
    the origin, so the integrand may kink only at z = |x|, and x must be
    nonzero.  With c = min(1, |x|) the integral splits into

    * [0, c]: Gauss-Jacobi for the weight z^(1-2*alpha), applied to the
      second difference over z^2, which is smooth;
    * [c, |x|]: Gauss-Legendre;
    * [|x|, inf): z = |x| t^(-2) and Gauss-Jacobi for the weight
      t^(4*alpha-1); a power tail |y|^(-gamma) of fn becomes t^(2*gamma),
      smooth enough for a fixed rule also when gamma is not an integer.

    Intended for smooth barrier profiles at a moderate number of points;
    not a grid operator.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0.0):
        raise ValueError("x = 0 lies on the kink of the second difference")
    ax = np.abs(x)[:, None]
    c = np.minimum(ax, 1.0)
    twice_fx = 2.0 * fn(x)[:, None]

    def second_difference(z):
        return twice_fx - fn(x[:, None] + z) - fn(x[:, None] - z)

    t, w = _gauss_jacobi(_NEAR_NODES, 1.0 - 2.0 * alpha)
    z = c * t
    near = (second_difference(z) / z**2) @ w
    t, w = _gauss_legendre(_MID_NODES)
    z = c + (ax - c) * t
    mid = (second_difference(z) * z ** (-1.0 - 2.0 * alpha)) @ w
    t, w = _gauss_jacobi(_FAR_NODES, 4.0 * alpha - 1.0)
    far = second_difference(ax / t**2) @ w
    ax, c = ax[:, 0], c[:, 0]
    total = (c ** (2.0 - 2.0 * alpha) * near + (ax - c) * mid
             + 2.0 * ax ** (-2.0 * alpha) * far)
    return frac_constant(alpha) * total


def line_frac_laplacian_outside(
    fn, support: tuple, x: np.ndarray, alpha: float
) -> np.ndarray:
    """(-Delta)^alpha at points strictly outside the support of fn.

    There the singular integral reduces to the smooth convolution
    -C(alpha) * int fn(y) |x-y|^(-1-2*alpha) dy over the support, which is
    both cheap and strictly negative for nonnegative fn.  One fixed
    Gauss-Legendre rule over the support takes it: fn is evaluated once on
    its nodes and every point is one row of a kernel matvec.  The rule
    resolves the kernel at points whose distance to the support is not
    small against the support's width.
    """
    a, b = support
    x = np.asarray(x, dtype=float)
    inside = (a <= x) & (x <= b)
    if np.any(inside):
        raise ValueError(f"point {x[inside][0]} lies inside the support [{a}, {b}]")
    t, w = _gauss_legendre(_OUTSIDE_NODES)
    y = a + (b - a) * t
    kernel = np.abs(x[:, None] - y) ** (-1.0 - 2.0 * alpha)
    return -frac_constant(alpha) * (b - a) * (kernel @ (w * fn(y)))
