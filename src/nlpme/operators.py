"""Discrete nonlocal operators on periodic grids.

Two families of operators live here:

* Spectral Fourier-multiplier operators: the fractional Laplacian
  (-Delta)^alpha with symbol |k|^(2*alpha), the Riesz-potential gradient
  d/dx (-Delta)^(-s) with symbol i*k*|k|^(-2s), plain spectral derivatives,
  and the Parseval energies built from the same symbols.

* The mollified singular-integral operator

      L_eps u(x) = C(1-s) * int (u(x) - u(y)) / (|x-y|^2 + eps^2)^((3-2s)/2) dy

  discretized by quadrature with the kernel periodized over the box
  images.  The discrete operator is circulant, so it is applied as the
  Fourier multiplier lambda(k) of its quadrature weights.  As eps -> 0 it
  converges to the spectral (-Delta)^(1-s), which is what the convergence
  tests check.  Its pressure gradient d/dx (-Delta)^(-1) L_eps is folded
  into the single multiplier i*lambda(k)/k.

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
from scipy.special import gamma, zeta

from .grid import Field, FracOrder, Grid1D

__all__ = [
    "spectral_derivative",
    "frac_laplacian",
    "riesz_gradient",
    "inv_laplacian_gradient",
    "neg_half_order_norm",
    "frac_constant",
    "mollified_frac_laplacian",
    "mollified_symbol",
    "mollified_riesz_gradient",
    "line_frac_laplacian",
    "line_frac_laplacian_outside",
]


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
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


def _apply_rows(a: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """Apply a half-spectrum symbol along the last axis of a real array.

    `a` is one field's samples or a (B, n) stack of them; numpy's batched
    FFT gives each row bitwise the result of its own 1-D transform.
    """
    return np.fft.irfft(sym * np.fft.rfft(a, axis=-1), a.shape[-1], axis=-1)


def _apply_multiplier(f: Field, sym: np.ndarray) -> Field:
    """Apply a half-spectrum symbol to a real field through the real FFT."""
    return f.with_values(_apply_rows(f.values, sym))


def _frac_laplacian_rows(a: np.ndarray, grid: Grid1D, order: FracOrder) -> np.ndarray:
    """(-Delta)^alpha along the last axis of a real array on `grid`."""
    _check_finite(a)
    return _apply_rows(a, _even_symbol(grid.half_length, grid.n, 2.0 * order.alpha))


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
    return float(
        4.0**alpha * gamma(0.5 + alpha) / (math.sqrt(math.pi) * abs(gamma(-alpha)))
    )


# --- mollified operator -------------------------------------------------

# box images summed explicitly in the periodized kernel; the analytic tail
# completes the rest
_IMAGES = 3


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
    tail = L2 ** (-p) * (zeta(p, _IMAGES + 1 + frac) + zeta(p, _IMAGES + 1 - frac))
    weights = frac_constant(1.0 - s) * h * (ksum + tail)
    # the periodized kernel is even in the offset; symmetrizing removes the
    # tiny eps^2 asymmetry the analytic tail introduces at the window edge
    return 0.5 * (weights + weights[(-np.arange(n)) % n])


@_cached_readonly
def _symbol(half_length: float, n: int, s: float, eps: float) -> np.ndarray:
    w = _periodized_weights(half_length, n, s, eps)
    return np.maximum(w.sum() - np.fft.rfft(w).real, 0.0)  # clip roundoff at k=0


@_cached_readonly
def _folded_symbol(half_length: float, n: int, s: float, eps: float) -> np.ndarray:
    """i*lambda(k)/k, the symbol of d/dx (-Delta)^(-1) L_eps."""
    return _odd_symbol(half_length, n, -2.0) * _symbol(half_length, n, s, eps)


def _check_mollified(f: Field, s: float, eps: float):
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    _check_finite(f.values)


def mollified_frac_laplacian(f: Field, s: float, eps: float) -> Field:
    """Mollified fractional Laplacian of order 1-s.

    Computes C(1-s) * sum_y (f(x) - f(y)) / (|x-y|^2 + eps^2)^((3-2s)/2) * h
    with the kernel periodized over box images, applied through the
    operator's Fourier symbol.  Symmetric and positive semidefinite;
    constants map to zero for any eps.
    """
    _check_mollified(f, s, eps)
    return _apply_multiplier(f, mollified_symbol(f.grid, s, eps))


def mollified_riesz_gradient(f: Field, s: float, eps: float) -> Field:
    """Mollified pressure gradient d/dx (-Delta)^(-1) L_eps.

    The composition of :func:`inv_laplacian_gradient` with
    :func:`mollified_frac_laplacian`, applied as the one multiplier
    i*lambda(k)/k; it tends to :func:`riesz_gradient` as eps -> 0.
    """
    _check_mollified(f, s, eps)
    sym = _folded_symbol(f.grid.half_length, f.grid.n, s, eps)
    return _apply_multiplier(f, sym)


def mollified_symbol(grid, s: float, eps: float) -> np.ndarray:
    """Fourier eigenvalues of the mollified operator on the half spectrum.

    The discrete operator is a circulant difference operator, hence
    diagonal in the Fourier basis with nonnegative eigenvalues
    lambda_j = sum_d w_d (1 - cos(k_j d h)).  They are even in k, so the
    values at k_j = pi*j/L for j = 0..n/2 determine the operator.  The
    returned array is cached and read-only.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _symbol(grid.half_length, grid.n, s, eps)


# --- whole-line quadrature (barrier verification) -----------------------


def line_frac_laplacian(fn, x: np.ndarray, alpha: float) -> np.ndarray:
    """(-Delta)^alpha of a callable on the whole real line, pointwise.

    Uses the symmetric second-difference form

        C(alpha) * int_0^inf (2 f(x) - f(x+z) - f(x-z)) z^(-1-2*alpha) dz

    with adaptive quadrature on (0, 1) and (1, inf).  Intended for
    smooth barrier profiles evaluated at a moderate number of points; not a
    grid operator.
    """
    from scipy.integrate import quad

    C = frac_constant(alpha)
    out = np.empty(len(x))
    for i, xi in enumerate(np.asarray(x, dtype=float)):
        fxi = fn(xi)

        def integrand(z, xi=xi, fxi=fxi):
            return (2.0 * fxi - fn(xi + z) - fn(xi - z)) * z ** (-1.0 - 2.0 * alpha)

        near, _ = quad(integrand, 0.0, 1.0, limit=200)
        far, _ = quad(integrand, 1.0, np.inf, limit=200)
        out[i] = C * (near + far)
    return out


def line_frac_laplacian_outside(
    fn, support: tuple, x: np.ndarray, alpha: float
) -> np.ndarray:
    """(-Delta)^alpha at points strictly outside the support of fn.

    There the singular integral reduces to the smooth convolution
    -C(alpha) * int fn(y) |x-y|^(-1-2*alpha) dy over the support, which is
    both cheap and strictly negative for nonnegative fn.
    """
    from scipy.integrate import quad

    a, b = support
    C = frac_constant(alpha)
    out = np.empty(len(x))
    for i, xi in enumerate(np.asarray(x, dtype=float)):
        if a <= xi <= b:
            raise ValueError(f"point {xi} lies inside the support [{a}, {b}]")
        val, _ = quad(
            lambda y: fn(y) * abs(xi - y) ** (-1.0 - 2.0 * alpha), a, b, limit=200
        )
        out[i] = -C * val
    return out
