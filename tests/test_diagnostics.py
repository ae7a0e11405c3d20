"""Diagnostics: norms, fits, propagation reports, families.

Oracles: synthetic exactly self-similar trajectories for the decay fit,
a real run and its time reversal for the monotonicity checks, and exact
grid-shift equivariance for the family-distance invariance.
"""

import numpy as np
import pytest

from nlpme.diagnostics import (
    CheckResult,
    asymptotic_convergence,
    finite_propagation_report,
    infinite_propagation_report,
    mass,
    rescaled_family,
    smoothing_fit,
    standard_checks,
    support_radius,
    tail_mass,
)
from nlpme.evolve import (
    ModelParams,
    RunAborted,
    SnapshotDiagnostics,
    Trajectory,
    simulate_density,
)
from nlpme.grid import Field, make_grid
from nlpme.initial_data import compact_bump, gaussian_bump, two_bump
from nlpme.integrated import parabola_supersolution
from nlpme.similarity import scaling_exponents


def lp_norm(u: Field, p: float) -> float:
    """(int |u|^p)^(1/p); p = inf returns the max norm."""
    if np.isinf(p):
        return float(np.max(np.abs(u.values)))
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return float((u.grid.spacing * np.sum(np.abs(u.values) ** p)) ** (1.0 / p))


def test_mass_trivials():
    g = make_grid(20.0, 512)
    assert mass(Field(g, np.zeros(g.n))) == 0.0
    u = gaussian_bump(g, 1.0, width=1.0)
    assert abs(mass(u) - 1.0) < 1e-10
    assert np.isclose(mass(Field(g, 3.0 * u.values)), 3.0 * mass(u), rtol=1e-14)


def test_lp_norm_trivials():
    g = make_grid(8.0, 256)
    assert lp_norm(Field(g, np.zeros(g.n)), 2.0) == 0.0
    # indicator of width w, height 1 -> w^(1/p), with w the quadrature width
    # actually occupied on the grid (node count times spacing)
    vals = (np.abs(g.nodes) < 1.0).astype(float)
    f = Field(g, vals)
    w = g.spacing * vals.sum()
    assert abs(w - 2.0) <= 2 * g.spacing
    for p in (1.0, 2.0, 4.0):
        assert np.isclose(lp_norm(f, p), w ** (1.0 / p), rtol=1e-12)
    assert lp_norm(f, float("inf")) == 1.0
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_support_radius_trivials():
    g = make_grid(8.0, 256)
    assert support_radius(Field(g, np.zeros(g.n)), 1e-8) == 0.0
    U = parabola_supersolution(1.0, 2.0, 0.5, g)  # support radius 2.5
    r = support_radius(U, 1e-12)
    assert abs(r - 2.5) <= g.spacing
    assert support_radius(U, 1e-12) >= support_radius(U, 1e-2)


def test_tail_mass_trivials():
    g = make_grid(8.0, 256)
    u = compact_bump(g, mass=1.0, radius=1.0)
    assert tail_mass(u, 2.0) < 1e-15
    assert np.isclose(tail_mass(u, 0.0), mass(u), rtol=1e-12)
    assert tail_mass(u, 0.5) >= tail_mass(u, 1.0)
    with pytest.raises(ValueError):
        tail_mass(u, 9.0)


def _synthetic_trajectory(g, gamma, beta, times, p=None):
    """Exactly self-similar t^(-gamma) phi(x t^(-beta)) frames."""
    p = p or ModelParams(1.5, 0.5)
    snaps, diags = [], []
    for t in times:
        vals = t ** (-gamma) * np.exp(-0.5 * (g.nodes * t ** (-beta)) ** 2)
        f = Field(g, vals)
        snaps.append(f)
        diags.append(SnapshotDiagnostics(
            mass=mass(f), sup_norm=float(vals.max()),
            l2_norm=lp_norm(f, 2.0), l4_norm=lp_norm(f, 4.0),
            second_energy=0.0, boundary_tail=0.0))
    return Trajectory(p, np.asarray(times), snaps, diags)


def test_smoothing_fit_exact_synthetic():
    g = make_grid(30.0, 256)
    gamma = 2.0 / 3.0
    times = np.geomspace(1.0, 20.0, 12)
    traj = _synthetic_trajectory(g, gamma, gamma, times)
    ex = scaling_exponents(1.5, 0.5)
    fit = smoothing_fit(traj, ex, window=(1.0, 20.0))
    assert abs(fit.fitted_exponent + gamma) < 1e-6
    assert fit.relative_gap < 1e-6


def test_smoothing_fit_constant_trajectory_flagged():
    g = make_grid(30.0, 256)
    times = np.geomspace(1.0, 20.0, 12)
    traj = _synthetic_trajectory(g, 0.0, 0.0, times)
    ex = scaling_exponents(1.5, 0.5)
    fit = smoothing_fit(traj, ex, window=(1.0, 20.0))
    assert abs(fit.fitted_exponent) < 1e-12
    assert np.isclose(fit.relative_gap, 1.0)


def test_smoothing_fit_rejects_short_span():
    g = make_grid(30.0, 256)
    times = np.linspace(1.0, 3.0, 8)
    traj = _synthetic_trajectory(g, 0.5, 0.5, times)
    ex = scaling_exponents(1.5, 0.5)
    with pytest.raises(ValueError):
        smoothing_fit(traj, ex, window=(1.0, 3.0))


def test_standard_checks_on_real_run():
    g = make_grid(15.0, 512)
    u0 = gaussian_bump(g, 1.0, width=0.8)
    p = ModelParams(2.0, 0.5)
    traj = simulate_density(u0, p, 2.0, snap_times=np.linspace(0.0, 2.0, 9))
    checks = standard_checks(traj, scaling_exponents(2.0, 0.5))
    assert checks["mass_drift"].passed
    for key in ("sup_monotone", "l2_monotone", "l4_monotone",
                "second_energy_monotone"):
        assert checks[key].passed
    # the same frames in reverse order grow in every norm
    reversed_traj = Trajectory(p, traj.times, traj.snapshots[::-1],
                               traj.diagnostics[::-1])
    checks = standard_checks(reversed_traj)
    for key in ("sup_monotone", "l2_monotone", "l4_monotone"):
        assert not checks[key].passed and checks[key].value > 0.0


def test_standard_checks_are_check_results_named_by_their_keys():
    """The battery returns one check type: each value is a CheckResult
    named by its key, with a bool verdict and a float value, the decay
    envelope included."""
    g = make_grid(15.0, 128)
    traj = simulate_density(gaussian_bump(g, 1.0, width=0.8), ModelParams(2.0, 0.5),
                            2.0, snap_times=np.linspace(0.0, 2.0, 5))
    checks = standard_checks(traj, scaling_exponents(2.0, 0.5))
    assert list(checks) == ["mass_drift", "sup_monotone", "l2_monotone",
                            "l4_monotone", "second_energy_monotone",
                            "decay_envelope"]
    for name, check in checks.items():
        assert type(check) is CheckResult and check.name == name
        assert type(check.passed) is bool and type(check.value) is float


def test_family_smoothing_envelope_uniform_in_lambda():
    """sup u_lam(t) <= 2 C t^(-gamma) M^delta with C fitted from lam=1."""
    g = make_grid(15.0, 1024)
    u0 = gaussian_bump(g, 1.0, width=0.8)
    p = ModelParams(1.5, 0.5)
    t_probe = 1.0
    runs = rescaled_family(u0, p, [1.0, 2.0, 4.0], t_probe)
    ex = scaling_exponents(p.m, p.s)
    m0 = mass(u0)
    sup1 = float(np.max(runs[0].snapshots[-1].values))
    C = sup1 * t_probe**ex.gamma_p / m0**ex.delta_p
    bound = 2.0 * C * t_probe ** (-ex.gamma_p) * m0**ex.delta_p
    for run in runs:
        assert float(np.max(run.snapshots[-1].values)) <= bound


def test_rescaling_identity_on_exact_self_similar_state():
    """For an exactly self-similar U, lam^N U(lam x, lam^b t) equals
    U(x, t): the rescaled sections coincide, so pairwise distances vanish."""
    g = make_grid(20.0, 512)
    m, s = 1.5, 0.5
    ex = scaling_exponents(m, s)
    t = 0.7

    def state(x, tt):
        return tt ** (-ex.alpha2) * np.exp(-0.5 * (x * tt ** (-ex.beta2)) ** 2)

    base = state(g.nodes, t)
    for lam in (2.0, 4.0):
        member = lam * state(lam * g.nodes, lam**ex.b * t)
        assert np.max(np.abs(member - base)) < 1e-14


def test_rescaled_family_lambda_one_is_plain_run():
    g = make_grid(15.0, 512)
    u0 = gaussian_bump(g, 1.0, width=0.8)
    p = ModelParams(1.5, 0.5)
    runs = rescaled_family(u0, p, [1.0, 2.0], 0.5)
    plain = simulate_density(u0, p, 0.5,
                             snap_times=np.linspace(0.0, 0.5, 6))
    assert np.allclose(runs[0].snapshots[-1].values, plain.snapshots[-1].values,
                       atol=1e-12)
    masses = [mass(r.snapshots[-1]) for r in runs]
    assert abs(masses[0] - masses[1]) / masses[0] < 1e-8


def test_rescaled_family_rejects_clipped_box():
    g = make_grid(10.0, 256)
    wide = gaussian_bump(g, 1.0, width=6.0)  # lam*u0(lam x) would clip mass
    p = ModelParams(1.5, 0.5)
    with pytest.raises(RunAborted, match="box too small for lambda=1.2"):
        rescaled_family(wide, p, [1.0, 1.2], 0.1)


def test_family_distances_translation_invariant():
    """Translating every family member's initial data by the same grid
    shift leaves the Cauchy distances unchanged to 1e-10: all operators in
    the scheme are translation-equivariant."""
    from nlpme.diagnostics import _rescale_initial

    g = make_grid(15.0, 1024)
    p = ModelParams(1.5, 0.5)
    u0 = two_bump(g, 1.0)
    lambdas = [1.0, 2.0, 4.0]
    shift_cells = 64
    t_probe = 0.3

    def distances(initials):
        finals = []
        for init in initials:
            traj = simulate_density(init, p, t_probe,
                                    snap_times=[0.0, t_probe])
            finals.append(traj.snapshots[-1].values)
        return np.array([
            np.sqrt(g.spacing * np.sum((a - b) ** 2))
            for a, b in zip(finals, finals[1:])
        ])

    base_inits = [_rescale_initial(u0, lam) for lam in lambdas]
    shifted_inits = [Field(g, np.roll(f.values, shift_cells))
                     for f in base_inits]
    base = distances(base_inits)
    shifted = distances(shifted_inits)
    assert np.max(np.abs(base - shifted)) < 1e-10


def test_asymptotic_convergence_cauchy():
    g = make_grid(15.0, 1024)
    u0 = two_bump(g, 1.0)
    p = ModelParams(1.5, 0.5)
    rep = asymptotic_convergence(u0, p, [1.0, 2.0, 4.0], 0.5, lp=2.0)
    assert rep.decreasing
    m0 = mass(u0)
    assert max(abs(m - m0) / m0 for m in rep.masses) < 1e-8


def test_finite_propagation_affine_support():
    g = make_grid(10.0, 1024)
    u0 = compact_bump(g, mass=1.0, radius=0.75)
    traj = simulate_density(u0, ModelParams(2.0, 0.25), 1.0,
                            snap_times=np.linspace(0.0, 1.0, 21))
    rep = finite_propagation_report(traj)
    assert rep.check.passed
    assert rep.fit[2] < 0.05
    assert rep.fit[1] > 0.0  # the support does grow


def test_finite_propagation_fails_a_support_stuck_at_one_node():
    """A run whose support never leaves the centre node (here a 1e-300 mass
    that does not move in the window) fails the fit, without a 0/0."""
    u0 = gaussian_bump(make_grid(1.0, 16), mass=1e-300, width=0.001)
    traj = simulate_density(u0, ModelParams(2.0, 0.01), 0.5,
                            snap_times=[0.0, 0.125, 0.25, 0.5])
    rep = finite_propagation_report(traj, window=(0.1, 0.5))
    assert np.all(rep.support_radii == 0.0)
    assert rep.fit[2] == np.inf and not rep.check.passed


def test_infinite_propagation_tail_witness():
    g = make_grid(15.0, 1024)
    u0 = compact_bump(g, mass=2.0, radius=0.5)
    traj = simulate_density(u0, ModelParams(1.5, 0.5), 0.1,
                            snap_times=np.linspace(0.0, 0.1, 5))
    rep = infinite_propagation_report(traj, initial_radius=0.5)
    assert rep.check.passed
    assert rep.tail_masses[-1] > 0.0
