"""Grid construction and nonlocal-operator checks.

Oracles: Fourier eigenfunctions for the spectral operators, two-mode and
full complex-FFT Parseval sums for the energies, the spectral operator
itself for the eps -> 0 limit of the mollified quadrature operator, and
scipy.special for the package's own gamma-function constants and Hurwitz
zeta.
"""

import warnings

import numpy as np
import pytest

from nlpme.evolve import ModelParams, _max_symbol, pressure_gradient
from nlpme.grid import Field, FracOrder, make_grid
from nlpme.initial_data import two_bump
from nlpme.operators import (
    frac_constant,
    frac_laplacian,
    inv_laplacian_gradient,
    mollified_frac_laplacian,
    neg_half_order_norm,
    riesz_gradient,
    spectral_derivative,
)
from nlpme.operators import (
    _apply_multiplier,
    _even_symbol,
    _folded_symbol,
    _half_wavenumbers,
    _hurwitz_zeta,
    _odd_symbol,
    _periodized_weights,
    _symbol,
)


def _fft_wavenumbers(g):
    """k_j = pi*j/L over the full spectrum, in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.spacing)


def test_make_grid_spacing():
    g = make_grid(1.0, 16)
    assert g.spacing == 0.125
    g = make_grid(20.0, 2048)
    assert g.spacing == 0.01953125
    assert g.spacing * g.n == 2.0 * g.half_length


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(1.0, 10)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(1.0, 8)   # too small
    with pytest.raises(ValueError):
        make_grid(-1.0, 16)
    with pytest.raises(ValueError):
        make_grid(0.0, 16)


def test_initial_data_scale_overflow_is_a_value_error():
    """Two bumps so narrow that 16 nodes sample 2.8e-306 of their mass:
    scaling them to mass 1e200 would overflow, so the builder raises
    ValueError before multiplying, with no numpy warning."""
    g = make_grid(15.0, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            two_bump(g, 1e200, widths=(0.001, 0.01))
        assert np.isfinite(two_bump(g, 1.0, widths=(0.001, 0.01)).values).all()


def test_grid_nodes_and_wavenumbers():
    g = make_grid(2.0, 32)
    assert g.nodes[0] == -2.0
    assert np.allclose(np.diff(g.nodes), g.spacing)
    # k_j = pi j / L on the half spectrum j = 0..n/2
    k = _half_wavenumbers(g.half_length, g.n)
    assert len(k) == g.n // 2 + 1
    assert k[0] == 0.0
    assert np.isclose(k[1], np.pi / 2.0)
    assert np.isclose(k[-1], np.pi / 2.0 * g.n / 2)


def test_field_validation():
    g = make_grid(1.0, 16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


def test_frac_order_range():
    FracOrder(1.0)
    with pytest.raises(ValueError):
        FracOrder(0.0)
    with pytest.raises(ValueError):
        FracOrder(1.2)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("mode", [1, 3, 17])
def test_frac_laplacian_eigenfunctions(alpha, mode):
    """cos(k x) is an eigenfunction with eigenvalue |k|^(2 alpha)."""
    g = make_grid(5.0, 256)
    k = np.pi * mode / g.half_length
    f = Field(g, np.cos(k * g.nodes))
    out = frac_laplacian(f, FracOrder(alpha))
    expected = k ** (2 * alpha) * f.values
    assert np.max(np.abs(out.values - expected)) < 1e-10 * k ** (2 * alpha)


def test_frac_laplacian_annihilates_constants():
    g = make_grid(3.0, 64)
    out = frac_laplacian(Field(g, np.full(g.n, 2.7)), FracOrder(0.6))
    assert np.max(np.abs(out.values)) < 1e-13


def test_frac_laplacian_alpha_one_is_minus_second_derivative():
    g = make_grid(6.0, 256)
    f = Field(g, np.exp(-g.nodes**2))
    lap = frac_laplacian(f, FracOrder(1.0))
    # oracle: the spectral second derivative applied directly
    minus_fxx = np.fft.ifft(_fft_wavenumbers(g)**2 * np.fft.fft(f.values)).real
    scale = np.max(np.abs(minus_fxx))
    assert np.max(np.abs(lap.values - minus_fxx)) < 1e-10 * scale


def test_frac_laplacian_rejects_nan():
    g = make_grid(1.0, 16)
    f = Field(g, np.zeros(g.n))
    f.values = f.values.copy()
    f.values[0] = np.inf  # bypass constructor check to exercise the operator's
    with pytest.raises(ValueError):
        frac_laplacian(f, FracOrder(0.5))


def test_riesz_gradient_eigenfunction():
    """sin(k x) -> k |k|^(-2s) cos(k x)."""
    g = make_grid(5.0, 256)
    s = 0.3
    k = 4 * np.pi / g.half_length
    f = Field(g, np.sin(k * g.nodes))
    out = riesz_gradient(f, s)
    expected = k ** (1 - 2 * s) * np.cos(k * g.nodes)
    assert np.max(np.abs(out.values - expected)) < 1e-10


def test_riesz_gradient_of_constant_is_zero():
    g = make_grid(5.0, 64)
    out = riesz_gradient(Field(g, np.full(g.n, 3.3)), 0.5)
    assert np.max(np.abs(out.values)) < 1e-13


def test_riesz_gradient_small_s_approaches_derivative():
    """At s -> 0 the Riesz gradient degenerates to the plain derivative."""
    g = make_grid(6.0, 512)
    f = Field(g, np.exp(-0.5 * g.nodes**2))
    riesz = riesz_gradient(f, 0.001)
    deriv = spectral_derivative(f)
    num = np.sqrt(g.spacing * np.sum((riesz.values - deriv.values) ** 2))
    den = np.sqrt(g.spacing * np.sum(deriv.values**2))
    assert num / den < 1e-3


def test_riesz_gradient_range_check():
    g = make_grid(1.0, 16)
    f = Field(g, np.zeros(g.n))
    for s in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            riesz_gradient(f, s)


def test_composition_riesz_then_divergence():
    """d/dx of the Riesz gradient equals -(-Delta)^(1-s) on mean-zero fields.

    Band-limited data: the odd Riesz symbol has no consistent action on the
    unpaired Nyquist bin, which none of the smooth fields in use excite.
    """
    g = make_grid(6.0, 256)
    s = 0.35
    rng = np.random.default_rng(0)
    raw = np.fft.fft(rng.standard_normal(g.n))
    absk = np.abs(_fft_wavenumbers(g))
    raw[absk > 0.5 * absk.max()] = 0.0
    vals = np.fft.ifft(raw).real
    vals -= vals.mean()
    f = Field(g, vals)
    left = spectral_derivative(riesz_gradient(f, s)).values
    right = -frac_laplacian(f, FracOrder(1.0 - s)).values
    scale = np.max(np.abs(right))
    assert np.max(np.abs(left - right)) < 1e-10 * scale


def test_operators_are_linear():
    g = make_grid(4.0, 128)
    rng = np.random.default_rng(1)
    f = Field(g, rng.standard_normal(g.n))
    h = Field(g, rng.standard_normal(g.n))
    a, b = 1.7, -0.4
    combo = Field(g, a * f.values + b * h.values)
    for op in (
        lambda u: frac_laplacian(u, FracOrder(0.6)).values,
        lambda u: riesz_gradient(u, 0.25).values,
        lambda u: mollified_frac_laplacian(u, 0.5, 0.1).values,
    ):
        lhs = op(combo)
        rhs = a * op(f) + b * op(h)
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(np.max(np.abs(rhs)), 1.0)


def test_neg_half_order_norm_two_mode_parseval():
    g = make_grid(5.0, 256)
    s = 0.3
    k = 5 * np.pi / g.half_length
    f = Field(g, np.cos(k * g.nodes))
    expected = k ** (-2 * s) * g.half_length
    assert np.isclose(neg_half_order_norm(f, s), expected, rtol=1e-12)


def test_neg_half_order_norm_ignores_constants():
    g = make_grid(5.0, 128)
    assert neg_half_order_norm(Field(g, np.zeros(g.n)), 0.5) == 0.0
    f = Field(g, np.exp(-g.nodes**2))
    shifted = Field(g, f.values + 4.2)
    assert np.isclose(
        neg_half_order_norm(f, 0.5), neg_half_order_norm(shifted, 0.5), rtol=1e-12
    )


@pytest.mark.parametrize("n", [16, 256])
def test_energies_match_complex_fft_parseval_oracle(n):
    """The energy equals the full-spectrum sum (2L/n^2) sum_k w(k) |f^(k)|^2.

    Oracle: the complex FFT over all n bins, weight |k|^(-2s) with the
    zero mode dropped.  The inputs put all their energy in the zero mode
    (the energy is then exactly zero), in the Nyquist mode, or across
    every bin.
    """
    g = make_grid(3.0, n)
    absk = np.abs(_fft_wavenumbers(g))
    inv_absk = np.zeros(n)
    inv_absk[1:] = 1.0 / absk[1:]
    scale = 2.0 * g.half_length / n**2
    s = 0.4
    rng = np.random.default_rng(11)
    inputs = {
        "constant": np.full(n, 1.3),
        "nyquist": (-1.0) ** np.arange(n),
        "random": rng.standard_normal(n),
    }
    for name, vals in inputs.items():
        f = Field(g, vals)
        power = np.abs(np.fft.fft(vals)) ** 2
        want = scale * np.sum(inv_absk ** (2.0 * s) * power)
        got = neg_half_order_norm(f, s)
        assert np.isclose(got, want, rtol=1e-13, atol=0.0), name


def test_frac_constant_half_is_one_over_pi():
    # the classical 1D Cauchy-kernel normalization
    assert np.isclose(frac_constant(0.5), 1.0 / np.pi, rtol=1e-12)


def test_frac_constant_matches_scipy_gamma():
    from scipy.special import gamma

    for alpha in np.linspace(0.01, 0.99, 99):
        want = 4.0**alpha * gamma(0.5 + alpha) / (np.sqrt(np.pi) * abs(gamma(-alpha)))
        assert frac_constant(alpha) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_hurwitz_zeta_matches_scipy():
    """Over the periodized tail's range: p = 3 - 2s in (1, 3), a in [3, 5]."""
    from scipy.special import zeta

    a = np.linspace(3.0, 5.0, 401)
    for p in np.linspace(1.001, 2.999, 41):
        np.testing.assert_allclose(_hurwitz_zeta(p, a), zeta(p, a), rtol=1e-14, atol=0.0)


def test_mollified_constant_maps_to_zero():
    g = make_grid(4.0, 128)
    for eps in (0.5, 0.1, 0.01):
        out = mollified_frac_laplacian(Field(g, np.full(g.n, 1.3)), 0.5, eps)
        assert np.max(np.abs(out.values)) < 1e-12


def test_mollified_positive_at_strict_maximum():
    g = make_grid(4.0, 128)
    f = Field(g, np.exp(-2.0 * g.nodes**2))
    i = int(np.argmax(f.values))
    out = mollified_frac_laplacian(f, 0.5, 0.1)
    assert out.values[i] >= 0.0


def test_mollified_rejects_bad_parameters():
    g = make_grid(4.0, 64)
    f = Field(g, np.zeros(g.n))
    with pytest.raises(ValueError):
        mollified_frac_laplacian(f, 0.5, 0.0)
    with pytest.raises(ValueError):
        mollified_frac_laplacian(f, 1.5, 0.1)


def test_mollified_positive_semidefinite():
    """sum f * L_eps f >= 0: symmetric difference kernel."""
    g = make_grid(4.0, 128)
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = Field(g, rng.standard_normal(g.n))
        quad = g.spacing * np.sum(f.values * mollified_frac_laplacian(f, 0.4, 0.15).values)
        assert quad >= -1e-12


def test_mollified_symbol_matches_direct_apply():
    """Symbol application agrees with the O(n^2) quadrature sum.

    Oracle: sum_d w_d (u_i - u_{(i-d) mod n}) over the periodized weights.
    """
    g = make_grid(4.0, 128)
    rng = np.random.default_rng(4)
    f = Field(g, rng.standard_normal(g.n))
    w = _periodized_weights(g.half_length, g.n, 0.6, 0.2)
    d = np.arange(g.n)
    u = f.values
    direct = np.array([np.sum(w * (u[i] - u[(i - d) % g.n])) for i in range(g.n)])
    applied = mollified_frac_laplacian(f, 0.6, 0.2).values
    assert np.max(np.abs(applied - direct)) < 1e-11
    assert _symbol(g.half_length, g.n, 0.6, 0.2).min() >= 0.0


def test_mollified_caches_stay_bounded():
    g = make_grid(4.0, 16)
    f = Field(g, np.cos(g.nodes))
    maxsize = _symbol.cache_info().maxsize
    for eps in np.linspace(0.1, 0.5, maxsize + 5):
        mollified_frac_laplacian(f, 0.5, float(eps))
    for cached in (_periodized_weights, _symbol):
        info = cached.cache_info()
        assert info.misses > info.maxsize and info.currsize <= info.maxsize
    with pytest.raises(ValueError):
        _symbol(g.half_length, g.n, 0.5, 0.1)[0] = 1.0  # cached arrays are read-only


def test_mollified_eps_sweep_convergence_order():
    """Error vs the spectral operator decreases with order >= 1.5.

    Oracle: the spectral fractional Laplacian of the same samples.
    """
    g = make_grid(4.0, 512)
    s = 0.9
    u = Field(g, np.exp(-0.5 * (g.nodes / 0.8) ** 2))
    ref = frac_laplacian(u, FracOrder(1.0 - s)).values
    errs = []
    eps_values = [0.2, 0.1, 0.05]
    for eps in eps_values:
        approx = mollified_frac_laplacian(u, s, eps).values
        errs.append(np.sqrt(g.spacing * np.sum((approx - ref) ** 2)))
    slope = np.polyfit(np.log(eps_values), np.log(errs), 1)[0]
    assert slope >= 1.5
    assert errs[0] > errs[1] > errs[2]


def _mollified_half_apply(f, s, eps):
    """The operator square root L_eps^(1/2), through the root of its symbol."""
    return _apply_multiplier(f, np.sqrt(_symbol(f.grid.half_length, f.grid.n, s, eps)))


def test_dissipation_inequality_discrete():
    """Stroock-Varopoulos: sum psi(w) L_eps w >= ||L_eps^(1/2) Psi(w)||^2.

    psi(w) = w^3 with Psi(w) = (sqrt(3)/2) w^2, so psi' = (Psi')^2.
    """
    g = make_grid(8.0, 256)
    h = g.spacing
    rng = np.random.default_rng(7)
    for trial in range(10):
        raw = rng.random(g.n)
        smooth = np.fft.ifft(np.exp(-np.abs(_fft_wavenumbers(g)))
                             * np.fft.fft(raw)).real
        w = np.abs(smooth)
        f = Field(g, w)
        for s, eps in ((0.5, 0.1), (0.3, 0.2), (0.7, 0.05)):
            lhs = h * np.sum(w**3 * mollified_frac_laplacian(f, s, eps).values)
            psi_big = Field(g, (np.sqrt(3.0) / 2.0) * w**2)
            half = _mollified_half_apply(psi_big, s, eps)
            rhs = h * np.sum(half.values**2)
            assert lhs >= rhs - 1e-8


def _complex_fft_oracle(f, mult):
    """The full-spectrum complex path: Re ifft(mult * fft(f))."""
    return np.fft.ifft(mult * np.fft.fft(f)).real


@pytest.mark.parametrize("s", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("n", [16, 64, 1024])
def test_rfft_operators_match_complex_fft_oracle(n, s):
    """Every real-FFT multiplier agrees with its complex-FFT counterpart.

    Oracle: the full symbol in FFT ordering, applied with fft/ifft and the
    real part taken, which drops the Nyquist bin of an odd multiplier.  The
    input carries the Nyquist mode (-1)^j, which odd multipliers must send
    to zero.
    """
    g = make_grid(4.0, n)
    k = _fft_wavenumbers(g)
    absk = np.abs(k)
    inv_absk = np.zeros(n)
    inv_absk[1:] = 1.0 / absk[1:]
    eps = 0.2
    w = _periodized_weights(g.half_length, g.n, s, eps)
    lam = np.maximum(w.sum() - np.fft.fft(w).real, 0.0)
    oracles = {
        "spectral_derivative": (lambda f: spectral_derivative(f), 1j * k, True),
        "frac_laplacian": (lambda f: frac_laplacian(f, FracOrder(s)),
                           absk ** (2.0 * s), False),
        "riesz_gradient": (lambda f: riesz_gradient(f, s),
                           1j * k * inv_absk ** (2.0 * s), True),
        "inv_laplacian_gradient": (inv_laplacian_gradient,
                                   1j * k * inv_absk**2, True),
        "mollified_frac_laplacian": (
            lambda f: mollified_frac_laplacian(f, s, eps), lam, False),
        "pressure_gradient, eps > 0": (
            lambda f: pressure_gradient(f, ModelParams(2.0, s, eps=eps)),
            1j * k * inv_absk**2 * lam, True),
    }
    rng = np.random.default_rng(n)
    nyquist = (-1.0) ** np.arange(n)
    f = Field(g, rng.standard_normal(n) + nyquist)
    for name, (op, mult, odd) in oracles.items():
        got = op(f).values
        want = _complex_fft_oracle(f.values, mult)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale, name
        alone = op(Field(g, nyquist)).values
        if odd:
            assert np.max(np.abs(alone)) <= 1e-13 * np.max(np.abs(mult)), name
        else:
            assert np.allclose(alone, mult[n // 2] * nyquist, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(mult))), name


def test_symbol_caches_stay_bounded_and_read_only():
    g = make_grid(4.0, 16)
    f = Field(g, np.cos(g.nodes))
    maxsize = _odd_symbol.cache_info().maxsize
    for s in np.linspace(0.05, 0.95, maxsize + 5):
        frac_laplacian(f, FracOrder(float(s)))
        riesz_gradient(f, float(s))
        pressure_gradient(f, ModelParams(2.0, float(s), eps=0.1))
        _max_symbol(4.0, 16, float(s), 0.0)
    for cached in (_even_symbol, _odd_symbol, _folded_symbol, _max_symbol):
        info = cached.cache_info()
        assert info.misses > info.maxsize and info.currsize <= info.maxsize
    for sym in (_even_symbol(4.0, 16, 0.5), _odd_symbol(4.0, 16, -1.0),
                _folded_symbol(4.0, 16, 0.5, 0.1)):
        with pytest.raises(ValueError):
            sym[0] = 1.0
