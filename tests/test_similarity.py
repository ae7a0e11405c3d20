"""Exponent algebra, profile residuals, and transformation maps.

Oracles: direct substitution into the closed-form exponents, algebraic
identities property-tested over random parameter tuples, an in-test
spectral decomposition of the profile equation for the scaling-covariance
check, and the exactly known linear-flow profile (the Cauchy kernel) for
the residual operator itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpme.evolve import ModelParams, fpme_profile_by_rescaling, simulate_density
from nlpme.grid import Field, make_grid
from nlpme.initial_data import gaussian_bump, two_bump
from nlpme.operators import riesz_gradient, spectral_derivative
from nlpme.similarity import (
    ProfileFamily,
    barenblatt_m2,
    ProfileKind,
    extract_profile,
    fpme_rate,
    residual_report,
    scaling_exponents,
    transform_fpme_profile,
    transform_profile_high_m,
)


def test_exponent_substitutions():
    ex = scaling_exponents(2.0, 0.5, 1, 1.0)
    assert ex.beta2 == 1.0 / (1.0 + 2.0 - 1.0) == 0.5
    assert ex.gamma_p == 0.5
    assert ex.delta_p == 0.5
    ex3 = scaling_exponents(3.0, 0.5, 1, 1.0)
    assert np.isclose(ex3.beta2, 1.0 / 3.0)
    assert ex3.b == 3.0


def test_exponent_validation():
    with pytest.raises(ValueError):
        scaling_exponents(1.0, 0.5)
    with pytest.raises(ValueError):
        scaling_exponents(2.0, 0.0)
    with pytest.raises(ValueError):
        scaling_exponents(2.0, 0.5, p=0.5)


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(1.0001, 12.0),
    s=st.floats(0.01, 0.99),
    N=st.integers(1, 4),
    p=st.floats(1.0, 9.0),
)
def test_exponent_identities_random(m, s, N, p):
    """beta2 * b = 1 and gamma_p * ((m-1)N + 2p(1-s)) = N."""
    ex = scaling_exponents(m, s, N, p)
    assert abs(ex.beta2 * ex.b - 1.0) < 1e-14
    assert abs(ex.gamma_p * ((m - 1.0) * N + 2.0 * p * (1.0 - s)) - N) < 1e-12
    assert abs(ex.alpha2 - N * ex.beta2) < 1e-14
    assert ex.gamma_p > 0.0 and ex.delta_p > 0.0


def test_exponent_identity_thousand_tuples():
    """beta2 * b = 1 to 1e-14 over 1000 random (m, s, N) draws."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = 1.0 + float(rng.uniform(1e-3, 10.0))
        s = float(rng.uniform(0.01, 0.99))
        N = int(rng.integers(1, 5))
        ex = scaling_exponents(m, s, N)
        assert abs(ex.beta2 * ex.b - 1.0) < 1e-14


def test_parameter_map_thousand_samples():
    """Over 1000 random draws of q above the critical N/(N+2 sigma), the
    transformation sends every q > 1 into m in (1, 2), above the
    mass-conservation threshold (N-2+2s)/N, and rejects every q <= 1."""
    rng = np.random.default_rng(7)
    g = make_grid(10.0, 16)
    phi = Field(g, np.exp(-g.nodes**2))
    for _ in range(1000):
        sigma = float(rng.uniform(0.01, 0.99))
        N = int(rng.integers(1, 5))
        q = N / (N + 2.0 * sigma) + float(rng.uniform(1e-6, 20.0))
        if q <= 1.0:
            with pytest.raises(ValueError):
                transform_fpme_profile(phi, q, sigma, N)
            continue
        res = transform_fpme_profile(phi, q, sigma, N)
        assert (N - 2.0 + 2.0 * res.s) / N < res.m < 2.0


def test_fpme_rate_values_and_critical():
    assert fpme_rate(2.0, 0.5, 1) == 0.5
    assert fpme_rate(1.0, 0.5, 1) == 1.0
    with pytest.raises(ValueError):
        fpme_rate(0.0, 0.5, 1)  # q = (N - 2 sigma)/N exactly


@settings(max_examples=200, deadline=None)
@given(sigma=st.floats(0.01, 0.99), N=st.integers(1, 4),
       qshift=st.floats(0.0001, 10.0))
def test_parameter_map_lands_in_expected_range(sigma, N, qshift):
    """q > 1 maps into m in (1, 2) with s = 1 - sigma, onto the
    mass-conserving profile equation of (m, s) with rate beta2."""
    q = 1.0 + qshift
    g = make_grid(10.0, 16)
    res = transform_fpme_profile(Field(g, np.exp(-g.nodes**2)), q, sigma, N)
    assert res.s == 1.0 - sigma
    assert 1.0 < res.m < 2.0
    assert res.kind == ProfileKind(ProfileFamily.MASS_CONSERVING,
                                   scaling_exponents(res.m, res.s, N).beta2)


def test_transform_rejects_degenerate_and_low_q():
    g = make_grid(10.0, 128)
    phi = Field(g, np.exp(-g.nodes**2))
    with pytest.raises(ValueError):
        transform_fpme_profile(phi, 1.0, 0.5)
    # the borderline q = N/(N+2 sigma) lands at m <= 1: rejected
    with pytest.raises(ValueError) as err:
        transform_fpme_profile(phi, 0.5, 0.5)
    assert "m=" in str(err.value)


def test_transform_prefactor_and_parameters():
    g = make_grid(10.0, 128)
    phi = Field(g, np.exp(-g.nodes**2))
    res = transform_fpme_profile(phi, 2.0, 0.5)
    assert res.m == 1.5 and res.s == 0.5
    assert res.kind.family is ProfileFamily.MASS_CONSERVING
    # beta1 = 1/2, beta2 = 2/3: prefactor (beta1/beta2)^(q/(1-q)) = (3/4)^-2
    assert np.isclose(res.prefactor, (0.75) ** (-2.0))
    assert np.allclose(res.profile.values, res.prefactor * phi.values**2)


def test_high_m_transform_values_and_round_trip():
    g = make_grid(10.0, 128)
    phi = Field(g, 0.3 + np.exp(-g.nodes**2))
    beta = scaling_exponents(3.0, 0.5).beta2
    res = transform_profile_high_m(phi, 3.0, beta, 0.5)
    assert res.mhat == 1.0
    res4 = transform_profile_high_m(phi, 4.0, scaling_exponents(4.0, 0.5).beta2, 0.5)
    assert res4.mhat == 0.5
    # algebraic inverse: phi = c * psi^mhat
    back = res.c * res.profile.values**res.mhat
    assert np.max(np.abs(back - phi.values)) < 1e-12
    with pytest.raises(ValueError):
        transform_profile_high_m(phi, 2.0, beta, 0.5)


def test_profile_residual_zero_field():
    g = make_grid(10.0, 128)
    zero = Field(g, np.zeros(g.n))
    for kind, args in (
        (ProfileKind(ProfileFamily.MASS_CONSERVING, 0.5), (1.5, 0.5)),
        (ProfileKind(ProfileFamily.FPME, 0.5), (2.0, 0.5)),
    ):
        res = residual_report(zero, kind, *args).residual
        assert np.all(res.values == 0.0)


def test_fpme_residual_of_constant_profile():
    """phi = const: the nonlocal term vanishes and div(y phi) = N phi, so
    the interior residual equals -beta1 * N * const to 1e-8."""
    g = make_grid(10.0, 256)
    c = 0.37
    phi = Field(g, np.full(g.n, c))
    beta1 = fpme_rate(2.0, 0.5, 1)
    res = residual_report(phi, ProfileKind(ProfileFamily.FPME, beta1), 2.0,
                          0.5).residual
    interior = g.interior_mask()
    assert np.max(np.abs(res.values[interior] - (-beta1 * c))) < 1e-8
    assert np.all(res.values[~interior] == 0.0)  # boundary masked


def test_residual_scaling_covariance():
    """Scaling phi -> a phi multiplies the nonlinear term by a^m and the
    drift term by a (mass-conserving kind); checked against an in-test
    spectral decomposition of the two terms at a in {0.5, 2}."""
    g = make_grid(12.0, 256)
    m, s = 1.5, 0.5
    kind = ProfileKind(ProfileFamily.MASS_CONSERVING, scaling_exponents(m, s).beta2)
    phi = Field(g, np.exp(-0.5 * g.nodes**2))
    interior = g.interior_mask()

    def terms(f):
        w = riesz_gradient(f, s)
        nonlinear = spectral_derivative(
            Field(g, np.maximum(f.values, 0.0) ** (m - 1.0) * w.values)).values
        drift = f.values + g.nodes * spectral_derivative(f).values
        return nonlinear, drift

    T1, D = terms(phi)
    for a in (0.5, 2.0):
        res = residual_report(Field(g, a * phi.values), kind, m, s).residual
        expected = a**m * T1 + kind.rate * a * D
        diff = np.abs(res.values[interior] - expected[interior])
        assert np.max(diff) < 1e-10 * max(np.max(np.abs(expected)), 1.0)


def test_companion_residual_formula():
    """COMPANION residual agrees with an independent in-test composition
    phi^2 (-Delta)^(1-s) phi^mhat - b (N phi - y phi'); zero field trivial."""
    from nlpme.grid import FracOrder
    from nlpme.operators import frac_laplacian

    g = make_grid(12.0, 256)
    s, mhat, b = 0.5, 1.0, 1.0 / 3.0
    kind = ProfileKind(ProfileFamily.COMPANION, b)
    zero = Field(g, np.zeros(g.n))
    assert np.all(residual_report(zero, kind, mhat, s).residual.values == 0.0)

    phi = Field(g, 0.1 + np.exp(-0.5 * g.nodes**2))
    res = residual_report(phi, kind, mhat, s).residual
    lap = frac_laplacian(Field(g, phi.values**mhat), FracOrder(1.0 - s)).values
    dphi = spectral_derivative(phi).values
    expected = phi.values**2 * lap - b * (phi.values - g.nodes * dphi)
    interior = g.interior_mask()
    assert np.max(np.abs(res.values[interior] - expected[interior])) < 1e-12
    assert np.all(res.values[~interior] == 0.0)


def test_companion_term_scale_uses_its_own_drift():
    """The COMPANION report normalizes by rate*(N phi - y phi'), the term
    its equation has, not by rate*div(y phi)."""
    g = make_grid(12.0, 256)
    s, mhat, b = 0.5, 1.0, 1.0 / 3.0
    phi = Field(g, 0.05 + 0.3 * np.exp(-0.5 * g.nodes**2))
    kind = ProfileKind(ProfileFamily.COMPANION, b)
    rep = residual_report(phi, kind, mhat, s)
    dphi = spectral_derivative(phi).values
    drift = b * (phi.values - g.nodes * dphi)
    res = rep.residual.values
    nonlinear = res + drift
    interior = g.interior_mask()
    expected = max(np.max(np.abs(nonlinear[interior])),
                   np.max(np.abs(drift[interior])))
    assert np.isclose(rep.term_scale, expected, rtol=1e-12)
    assert np.isclose(rep.term_scale, 0.1379, atol=5e-5)


def test_residual_operator_on_exact_linear_profile():
    """q=1, sigma=1/2: the Barenblatt profile is the Cauchy kernel
    1/(pi (1+y^2)) with rate 1; the residual floor is box truncation."""
    g = make_grid(40.0, 1024)
    phi = Field(g, 1.0 / (np.pi * (1.0 + g.nodes**2)))
    rep = residual_report(phi, ProfileKind(ProfileFamily.FPME, 1.0), 1.0, 0.5)
    assert rep.relative < 1e-3


def test_manufactured_profile_transform_closure():
    """Mapped-profile residual below 3x the source's own floor."""
    g = make_grid(20.0, 512)
    q, sigma = 2.0, 0.5
    phi1, _ = fpme_profile_by_rescaling(gaussian_bump(g, 1.0, width=1.0), q, sigma,
                                        tau_end=12.0)
    rep1 = residual_report(phi1, ProfileKind(ProfileFamily.FPME,
                                             fpme_rate(q, sigma)), q, sigma)
    mapped = transform_fpme_profile(phi1, q, sigma)
    rep2 = residual_report(mapped.profile, mapped.kind, mapped.m, mapped.s)
    assert rep2.relative < 3.0 * rep1.relative


def test_extract_profile_identity_at_t_one():
    g = make_grid(15.0, 512)
    u0 = two_bump(g, 1.0)
    p = ModelParams(1.5, 0.5)
    traj = simulate_density(u0, p, 2.0, snap_times=[0.0, 1.0, 2.0])
    ex = scaling_exponents(1.5, 0.5)
    prof = extract_profile(traj, ex, 1.0)
    assert np.array_equal(prof.values, traj.snapshot_at(1.0).values)


def test_extract_profile_mass_preserved():
    g = make_grid(15.0, 512)
    u0 = two_bump(g, 1.0)
    p = ModelParams(1.5, 0.5)
    traj = simulate_density(u0, p, 2.0, snap_times=[0.0, 1.0, 2.0])
    ex = scaling_exponents(1.5, 0.5)
    for t in (1.0, 1.5, 2.0):
        prof = extract_profile(traj, ex, t)
        m_prof = g.spacing * prof.values.sum()
        m_snap = g.spacing * traj.snapshot_at(t).values.sum()
        assert abs(m_prof - m_snap) / m_snap < 1e-8
    with pytest.raises(ValueError):
        extract_profile(traj, ex, 3.0)


def test_extract_profile_self_consistency():
    """Extractions at t and 2t converge as t grows (self-similar limit)."""
    g = make_grid(30.0, 1024)
    u0 = two_bump(g, 1.0)
    p = ModelParams(1.5, 0.5)
    traj = simulate_density(u0, p, 8.0, snap_times=[0.0, 1.0, 2.0, 4.0, 8.0])
    ex = scaling_exponents(1.5, 0.5)
    diffs = []
    for t in (1.0, 2.0, 4.0):
        a = extract_profile(traj, ex, t).values
        b = extract_profile(traj, ex, 2.0 * t).values
        diffs.append(np.abs(a - b).sum() * g.spacing)
    assert diffs[2] < diffs[1] < diffs[0]


def test_profile_kind_validation():
    with pytest.raises(ValueError):
        ProfileKind(ProfileFamily.FPME, 0.0)


@pytest.mark.parametrize("s", [0.3, 0.5])
def test_barenblatt_m2_solves_its_profile_equation(s):
    """The m = 2 closed form carries the mass, spreads like t^beta and has
    the pressure gradient -beta x / t on its support, the self-similar
    velocity.  Oracle: the spectral Riesz gradient of the sampled profile,
    which reproduces the identity (-Delta)^(1-s) (1 - y^2)_+^(1-s) = const
    only up to the box and grid errors (a few 1e-3 here)."""
    g = make_grid(15.0, 4096)
    beta = 1.0 / (3.0 - 2.0 * s)
    radius = {}
    for t in (1.0, 2.0):
        u = barenblatt_m2(g, 1.0, t, s)
        assert u.values.min() >= 0.0
        assert abs(g.spacing * u.values.sum() - 1.0) < 1e-4
        radius[t] = np.max(np.abs(g.nodes[u.values > 0.0]))
        inner = np.abs(g.nodes) < 0.8 * radius[t]
        want = -beta * g.nodes[inner] / t
        got = riesz_gradient(u, s).values[inner]
        assert np.max(np.abs(got - want)) < 5e-3 * np.max(np.abs(want))
    assert abs(radius[2.0] - 2.0**beta * radius[1.0]) <= 2.0 * g.spacing
    with pytest.raises(ValueError):
        barenblatt_m2(g, 1.0, 0.0, s)
