"""Density-solver and FPME-relaxation checks.

Oracles: stationarity of constants, exact flux telescoping for mass,
re-evaluation of the stepped field for the sup-norm bound, hand loops of
the public step functions for the driver, and the scaling algebra of the
flow for the rescaling-commutation test.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlpme.evolve import (
    CFL_SAFETY,
    POSITIVITY_HEADROOM,
    STEP_LIMITS,
    ModelParams,
    SimulationUnstable,
    _roll1,
    cfl_dt,
    continuation_limit,
    fpme_profile_by_rescaling,
    pressure_gradient,
    simulate_density,
    step_density,
)
from nlpme.grid import Field, FracOrder, make_grid
from nlpme.operators import (
    frac_laplacian,
    inv_laplacian_gradient,
    mollified_frac_laplacian,
)
from nlpme.initial_data import compact_bump, gaussian_bump, mollified_dirac


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.5)
    with pytest.raises(ValueError):
        ModelParams(2.0, 1.0)
    with pytest.raises(ValueError):
        ModelParams(2.0, 0.5, eps=-0.1)


def test_step_constant_is_stationary():
    g = make_grid(10.0, 128)
    u = Field(g, np.full(g.n, 0.7))
    p = ModelParams(2.0, 0.5, delta=0.01)
    out, _ = step_density(u, p, 1e-3)
    assert np.max(np.abs(out.values - 0.7)) < 1e-14


def test_step_conserves_mass_exactly():
    g = make_grid(10.0, 256)
    u = gaussian_bump(g, 1.0, width=0.7)
    p = ModelParams(2.0, 0.5)
    dt = cfl_dt(u, p)
    out, _ = step_density(u, p, dt)
    m0 = g.spacing * u.values.sum()
    m1 = g.spacing * out.values.sum()
    assert abs(m1 - m0) / m0 < 1e-12


def test_step_rejects_negative_input():
    g = make_grid(10.0, 128)
    vals = np.zeros(g.n)
    vals[3] = -0.1
    with pytest.raises(ValueError):
        step_density(Field(g, vals), ModelParams(2.0, 0.5), 1e-4)


def test_step_sup_norm_does_not_increase():
    """One CFL step from a Gaussian; oracle = direct re-evaluation."""
    g = make_grid(15.0, 1024)
    u = gaussian_bump(g, 1.0, width=0.8)
    p = ModelParams(2.0, 0.5)
    dt = cfl_dt(u, p)
    out, _ = step_density(u, p, dt)
    sup0 = float(np.max(u.values))
    sup1 = float(np.max(out.values))
    assert sup1 <= sup0 * (1.0 + 1e-10)


def test_cfl_zero_field_returns_cap():
    g = make_grid(10.0, 128)
    u = Field(g, np.zeros(g.n))
    p = ModelParams(2.0, 0.5)
    assert cfl_dt(u, p, cap=7.5) == 7.5


def test_cfl_delta_limit_halves():
    """Doubling delta at fixed u at most halves the delta-limited step."""
    g = make_grid(10.0, 256)
    u = gaussian_bump(g, 1.0, width=0.7)
    d1 = cfl_dt(u, ModelParams(2.0, 0.5, delta=50.0))
    d2 = cfl_dt(u, ModelParams(2.0, 0.5, delta=100.0))
    assert d2 <= 0.5 * d1 * (1.0 + 1e-12)


def test_cfl_step_is_finite_and_stable():
    g = make_grid(15.0, 512)
    u = gaussian_bump(g, 1.0, width=0.8)
    p = ModelParams(2.0, 0.5)
    dt = cfl_dt(u, p)
    assert dt > 0.0
    out, _ = step_density(u, p, dt)
    assert np.all(np.isfinite(out.values))


def test_simulate_zero_initial_data():
    g = make_grid(10.0, 128)
    traj = simulate_density(Field(g, np.zeros(g.n)), ModelParams(2.0, 0.5), 1.0,
                            snap_times=np.linspace(0.0, 1.0, 3))
    for s in traj.snapshots:
        assert np.all(s.values == 0.0)


def test_simulate_mass_conservation_tight():
    g = make_grid(15.0, 512)
    u0 = gaussian_bump(g, 1.0, width=0.8)
    traj = simulate_density(u0, ModelParams(1.8, 0.4), 2.0,
                            snap_times=np.linspace(0.0, 2.0, 9))
    masses = [d.mass for d in traj.diagnostics]
    assert max(abs(m - masses[0]) / masses[0] for m in masses) < 1e-8


def test_simulate_snapshots_nonnegative_and_increasing_times():
    g = make_grid(15.0, 512)
    u0 = gaussian_bump(g, 1.0, width=0.8)
    traj = simulate_density(u0, ModelParams(1.5, 0.5), 1.0,
                            snap_times=np.linspace(0.0, 1.0, 6))
    assert np.all(np.diff(traj.times) > 0)
    for s in traj.snapshots:
        assert np.min(s.values) >= 0.0


def test_simulate_sup_decay_rate_matches_smoothing_exponent():
    """Sup-norm over t in [1, 10]: log-log slope близ -1/((m-1)+2(1-s)).

    Oracle: least-squares slope of the stored diagnostics; the exponent for
    m=1.5, s=0.5 is 2/3, and a 10% desk-scale agreement is required.
    """
    g = make_grid(30.0, 1024)
    u0 = mollified_dirac(g, mass=1.0)
    p = ModelParams(1.5, 0.5)
    snaps = np.concatenate([[0.0], np.geomspace(0.5, 10.0, 17)])
    traj = simulate_density(u0, p, 10.0, snap_times=snaps)
    sel = traj.times >= 1.0
    sups = np.array([d.sup_norm for d in traj.diagnostics])[sel]
    slope = np.polyfit(np.log(traj.times[sel]), np.log(sups), 1)[0]
    gamma = 1.0 / ((1.5 - 1.0) + 2.0 * (1.0 - 0.5))
    assert abs(slope + gamma) / gamma < 0.10


def test_scaling_commutation_lambda_two():
    """Rescaling u -> lam u(lam x) commutes with evolution to t/lam^b.

    Oracle: evolve both routes and compare in relative L1; b = (m-1)+2-2s.
    """
    lam, m, s, t = 2.0, 2.0, 0.5, 0.5
    b = (m - 1.0) + 2.0 - 2.0 * s
    g = make_grid(20.0, 1024)
    p = ModelParams(m, s)
    u0 = gaussian_bump(g, 1.0, width=1.0)
    direct = simulate_density(u0, p, t, snap_times=[0.0, t]).snapshots[-1]
    squeezed = Field(g, lam * np.interp(lam * g.nodes, g.nodes, u0.values,
                                        left=0.0, right=0.0))
    other = simulate_density(squeezed, p, t / lam**b,
                             snap_times=[0.0, t / lam**b]).snapshots[-1]
    target = lam * np.interp(lam * g.nodes, g.nodes, direct.values,
                             left=0.0, right=0.0)
    rel = np.abs(other.values - target).sum() / np.abs(target).sum()
    assert rel < 0.02


def test_mollified_pressure_route_approaches_spectral():
    """The eps > 0 pressure path converges to the Riesz gradient."""
    g = make_grid(10.0, 512)
    u = gaussian_bump(g, 1.0, width=0.8)
    ref = pressure_gradient(u, ModelParams(2.0, 0.5)).values
    errs = []
    for eps in (0.2, 0.05):
        w = pressure_gradient(u, ModelParams(2.0, 0.5, eps=eps)).values
        errs.append(np.sqrt(g.spacing * np.sum((w - ref) ** 2)))
    # first order in eps at s = 0.5: a quarter of the eps should give about
    # a quarter of the error
    assert errs[1] < 0.35 * errs[0]
    assert errs[1] < 2e-2


def test_clipping_budget_untouched_on_degenerate_fronts():
    """m < 2 runs must not burn the clipping budget at starved front cells."""
    g = make_grid(15.0, 512)
    u0 = gaussian_bump(g, 1.0, width=0.6)
    traj = simulate_density(u0, ModelParams(1.5, 0.5), 2.0,
                            snap_times=np.linspace(0.0, 2.0, 5))
    assert traj.clipped_mass < 1e-8


# --- continuation --------------------------------------------------------


def test_continuation_single_zero_entry_matches_plain_run():
    g = make_grid(15.0, 256)
    u0 = gaussian_bump(g, 1.0, width=1.0)
    p = ModelParams(2.0, 0.5)
    final, rep = continuation_limit(u0, p, [(0.0, 0.0, 0.0)], t_end=0.5)
    snap_times = sorted(set(np.linspace(0.0, 0.5, 5)) | {0.5})
    ref = simulate_density(u0, p, 0.5, snap_times=snap_times)
    assert np.array_equal(final.snapshots[-1].values, ref.snapshots[-1].values)
    assert rep.distances == []


def test_continuation_distances_decrease():
    g = make_grid(15.0, 512)
    u0 = gaussian_bump(g, 1.0, width=1.0)
    p = ModelParams(2.0, 0.5)
    schedule = [(0.1, 0.01, 0.01), (0.05, 0.005, 0.005), (0.025, 0.0025, 0.0025)]
    final, rep = continuation_limit(u0, p, schedule, t_end=1.0)
    assert rep.decreasing
    assert len(rep.distances) == 2
    m0 = g.spacing * u0.values.sum()
    assert max(abs(m - m0) / m0 for m in rep.masses) < 1e-8


def test_continuation_rejects_non_monotone_schedule():
    g = make_grid(15.0, 256)
    u0 = gaussian_bump(g, 1.0, width=1.0)
    p = ModelParams(2.0, 0.5)
    with pytest.raises(ValueError):
        continuation_limit(u0, p, [(0.1, 0.01, 0.01), (0.2, 0.005, 0.005)])


@pytest.mark.parametrize("s", [0.2, 0.5, 0.9])
def test_folded_mollified_pressure_matches_composition(s):
    """The one-multiplier eps > 0 pressure equals d/dx (-Delta)^(-1) L_eps.

    Oracle: the two operators applied one after the other.
    """
    g = make_grid(10.0, 512)
    rng = np.random.default_rng(11)
    u = Field(g, gaussian_bump(g, 1.0, width=0.8).values
              + 0.01 * rng.random(g.n))
    for eps in (0.2, 0.05):
        got = pressure_gradient(u, ModelParams(2.0, s, eps=eps)).values
        want = inv_laplacian_gradient(mollified_frac_laplacian(u, s, eps)).values
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("p", [
    ModelParams(2.0, 0.3),
    ModelParams(1.5, 0.3, eps=0.05, delta=0.01, mu=0.01),
], ids=["limit", "regularized"])
def test_simulate_density_equals_hand_loop_bitwise(p):
    """Sharing one pressure gradient per step changes no bit of the run.

    Oracle: cfl_dt / step_density called without `w`, each computing the
    pressure gradient itself, with the solver's snapshot interpolation.
    """
    g = make_grid(8.0, 256)
    u0 = gaussian_bump(g, 1.0, width=0.7)
    t_end = 0.5
    snap_times = [0.0, 0.13, 0.31, t_end]
    traj = simulate_density(u0, p, t_end, snap_times=snap_times)

    u, t, steps = u0, 0.0, 0
    frames = [u0.values]
    pending = snap_times[1:]
    while t < t_end - 1e-14:
        dt = cfl_dt(u, p, cap=t_end - t)
        u_next, _ = step_density(u, p, dt)
        while pending and pending[0] <= t + dt + 1e-14:
            theta = min(max((pending.pop(0) - t) / dt, 0.0), 1.0)
            frames.append((1 - theta) * u.values + theta * u_next.values)
        u, t, steps = u_next, t + dt, steps + 1
    assert traj.steps == steps > 10
    assert len(traj.snapshots) == len(frames)
    for snap, frame in zip(traj.snapshots, frames):
        assert np.array_equal(snap.values, frame)


def test_roll1_is_np_roll():
    rng = np.random.default_rng(5)
    for a in (rng.standard_normal(37), rng.standard_normal((3, 37))):
        for shift in (1, -1):
            assert np.array_equal(_roll1(a, shift), np.roll(a, shift, axis=-1))


def _public_loop(u0, p, t_end, snap_times):
    """simulate_density's schedule written with the public cfl_dt and
    step_density, each computing its own pressure gradient.

    Returns (frames, steps, clipped mass).
    """
    u, t, steps, clipped = u0, 0.0, 0, 0.0
    frames = [u0.values]
    pending = list(snap_times[1:])
    while t < t_end - 1e-14:
        dt = cfl_dt(u, p, cap=t_end - t)
        if dt <= 0.0 or not math.isfinite(dt):
            dt = t_end - t
        u_next, c = step_density(u, p, dt)
        clipped += c
        while pending and pending[0] <= t + dt + 1e-14:
            theta = min(max((pending.pop(0) - t) / dt, 0.0), 1.0)
            frames.append((1 - theta) * u.values + theta * u_next.values)
        u, t, steps = u_next, t + dt, steps + 1
    return frames, steps, clipped


_regularization = st.one_of(st.just(0.0), st.floats(1e-3, 0.2))


@settings(max_examples=60, deadline=None)
@given(m=st.floats(1.05, 3.5), s=st.floats(0.1, 0.9), eps=_regularization,
       delta=_regularization, mu=_regularization,
       n=st.sampled_from([32, 64, 128]), compact=st.booleans())
@example(m=1.05, s=0.1, eps=0.0, delta=0.0, mu=0.0, n=128, compact=True)
@example(m=3.5, s=0.9, eps=0.2, delta=0.2, mu=0.2, n=32, compact=False)
def test_fused_density_loop_equals_public_steps(m, s, eps, delta, mu, n, compact):
    """simulate_density's one-pass step changes no bit of the run.

    Oracle: the same schedule stepped with the public cfl_dt and
    step_density.  The run also conserves mass to roundoff, stays
    nonnegative, and accounts every step to one limit.
    """
    p = ModelParams(m, s, eps=eps, delta=delta, mu=mu)
    g = make_grid(8.0, n)
    u0 = (compact_bump(g, 1.0, radius=1.5) if compact
          else gaussian_bump(g, 1.0, width=0.5))
    t_end = 0.3
    snap_times = [0.0, 0.1, t_end]
    traj = simulate_density(u0, p, t_end, snap_times=snap_times)

    frames, steps, clipped = _public_loop(u0, p, t_end, snap_times)
    assert traj.steps == steps
    assert traj.clipped_mass == clipped
    assert len(traj.snapshots) == len(frames)
    for snap, frame in zip(traj.snapshots, frames):
        assert np.array_equal(snap.values, frame)
    mass0 = traj.diagnostics[0].mass
    for d, snap in zip(traj.diagnostics, traj.snapshots):
        assert abs(d.mass - mass0) <= 1e-12 * mass0
        assert snap.values.min() >= 0.0
    assert sum(traj.limits.values()) == traj.steps


def _reference_step(u, p, dt, w):
    """The density step as first written: np.roll shifts, the limiter
    factor through nested np.where under errstate, then viscosity."""
    h = u.grid.spacing
    v = u.values
    a = (v + p.mu) ** (p.m - 1.0)
    w_face = 0.5 * (w + np.roll(w, -1))
    J = -np.where(w_face < 0.0, a, np.roll(a, -1)) * w_face
    naive = v - (dt / h) * (J - np.roll(J, 1))
    outflow = (dt / h) * (np.maximum(J, 0.0) + np.maximum(-np.roll(J, 1), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(
            outflow > 0.0,
            np.minimum(1.0, POSITIVITY_HEADROOM * v
                       / np.where(outflow > 0, outflow, 1.0)),
            1.0,
        )
    J = J * np.where(J > 0.0, factor, np.roll(factor, -1))
    new = v - (dt / h) * (J - np.roll(J, 1))
    clipped = 0.0
    if np.any(new < 0.0):
        clipped = float(-h * new[new < 0.0].sum())
        new = np.maximum(new, 0.0)
    if p.delta > 0.0:
        new = new + dt * p.delta * (np.roll(new, -1) - 2.0 * new
                                    + np.roll(new, 1)) / h**2
        if np.any(new < 0.0):
            clipped += float(-h * new[new < 0.0].sum())
            new = np.maximum(new, 0.0)
    return new, clipped, bool(np.any(factor < 1.0)), bool(np.any(naive < 0.0))


@pytest.mark.parametrize("factor", [1.0, 30.0, 200.0])
@pytest.mark.parametrize("p", [
    ModelParams(2.0, 0.3),
    ModelParams(1.2, 0.6, delta=0.05, mu=0.05),
], ids=["limit", "regularized"])
def test_step_equals_reference_scheme(p, factor):
    """step_density and cfl_dt reproduce the reference scheme bit for bit,
    also with steps past the CFL bound where the limiter and the clip act.

    Oracle: the step written out with np.roll and the limiter's original
    np.where form; the CFL bound recomputed from its three limits.
    """
    g = make_grid(8.0, 128)
    u = compact_bump(g, 1.0, radius=1.5)
    w = pressure_gradient(u, p)
    dt = cfl_dt(u, p)

    a = (u.values + p.mu) ** (p.m - 1.0)
    w_face = 0.5 * (w.values + np.roll(w.values, -1))
    vel = np.where(w_face < 0.0, a, np.roll(a, -1)) * w_face
    bound = min(g.spacing / np.max(np.abs(vel)),
                2.0 / (np.max(a) * (math.pi / g.spacing) ** (2.0 * (1.0 - p.s))))
    if p.delta > 0.0:
        bound = min(bound, g.spacing**2 / (2.0 * p.delta))
    assert dt == CFL_SAFETY * bound

    out, clipped = step_density(u, p, factor * dt)
    ref, ref_clipped, limited, overdrawn = _reference_step(u, p, factor * dt, w.values)
    assert np.array_equal(out.values, ref)
    assert clipped == ref_clipped
    if p.mu > 0.0:
        # (u + mu)^(m-1) > 0 in the empty cells around the bump, whose
        # outflow the limiter must cut to zero
        assert limited
    if factor == 200.0:
        assert overdrawn and limited
        assert (clipped > 0.0) == (p.delta > 0.0)  # the viscosity overshoots


def test_unstable_step_raises_simulation_unstable():
    g = make_grid(8.0, 64)
    u = compact_bump(g, 1.0, radius=1.5)
    with pytest.raises(SimulationUnstable), np.errstate(all="ignore"):
        step_density(u, ModelParams(2.0, 0.5, delta=1e300), 1e10)


@pytest.mark.parametrize("abort", ["budget", "nan"])
def test_abort_carries_exact_partial_trajectory(monkeypatch, abort):
    """A run that aborts at its k-th step reports where it stopped.

    Over the clipping budget, the k-th step is completed: t_last is the
    time it reached and the frames it crossed are stored.  On NaN the k-th
    step is lost: t_last is the time before it.  Oracle: the public
    cfl_dt / step_density loop, with frames interpolated by hand.
    """
    g = make_grid(8.0, 128)
    u0 = gaussian_bump(g, 1.0, width=0.7)
    p = ModelParams(2.0, 0.5)
    t_end, k = 0.5, 5
    ts, us, dts = [0.0], [u0.values], []
    u = u0
    for _ in range(k + 1):
        dt = cfl_dt(u, p, cap=t_end - ts[-1])
        u, _ = step_density(u, p, dt)
        dts.append(dt)
        ts.append(ts[-1] + dt)
        us.append(u.values)
    # frames inside step 2, inside step k and inside step k + 1
    snap_times = [0.0, ts[1] + 0.5 * dts[1], ts[k - 1] + 0.25 * dts[k - 1],
                  ts[k] + 0.5 * dts[k], t_end]

    import nlpme.evolve as evolve

    real = evolve._apply_flux
    calls = []

    def apply_flux(u, J, dt, h, p):
        calls.append(dt)
        if len(calls) == k and abort == "nan":
            raise SimulationUnstable(0.0)
        u_new, clipped = real(u, J, dt, h, p)
        return u_new, (1.0 if len(calls) == k else clipped)

    monkeypatch.setattr(evolve, "_apply_flux", apply_flux)
    with pytest.raises(SimulationUnstable) as info:
        simulate_density(u0, p, t_end, snap_times=snap_times)
    done = k if abort == "budget" else k - 1
    assert info.value.t_last == ts[done]
    partial = info.value.partial
    assert partial.steps == done
    stored = [t for t in snap_times if t <= ts[done]]
    assert list(partial.times) == stored
    for t, snap in zip(stored, partial.snapshots):
        want = u0.values
        if t > 0.0:
            j = max(i for i in range(len(dts)) if ts[i] < t)  # the step crossing t
            theta = min(max((t - ts[j]) / dts[j], 0.0), 1.0)
            want = (1 - theta) * us[j] + theta * us[j + 1]
        assert np.array_equal(snap.values, want)
    assert partial.clipped_mass == (1.0 if abort == "budget" else 0.0)


@pytest.mark.parametrize("p, bound", [
    (ModelParams(2.0, 0.2), "stiffness"),
    (ModelParams(2.0, 0.9), "advective"),
    (ModelParams(2.0, 0.5, delta=0.5), "viscosity"),
])
def test_step_telemetry(p, bound):
    """Every step is charged to exactly one limit; which one follows the
    regime: small s is stiff, s near 1 advective, large delta viscous.  Only
    the last, horizon-capped step is charged to the cap."""
    g = make_grid(15.0, 256)
    traj = simulate_density(gaussian_bump(g, 2.0, width=1.0), p, 0.5,
                            snap_times=np.linspace(0.0, 0.5, 5))
    assert set(traj.limits) == set(STEP_LIMITS)
    assert sum(traj.limits.values()) == traj.steps > 1
    assert traj.limits[bound] == traj.steps - 1
    assert traj.limits["cap"] == 1
    assert 0.0 < traj.dt_min <= traj.dt_max


def test_step_telemetry_without_steps():
    g = make_grid(8.0, 64)
    traj = simulate_density(gaussian_bump(g, 1.0), ModelParams(2.0, 0.5), 0.0,
                            snap_times=[0.0])
    assert traj.steps == 0 and sum(traj.limits.values()) == 0
    assert math.isnan(traj.dt_min) and math.isnan(traj.dt_max)


def _reference_fpme_relaxation(u0, q, sigma, tau_end):
    """fpme_profile_by_rescaling as first written: np.roll shifts and a
    Field plus frac_laplacian call per step."""
    grid = u0.grid
    beta1 = 1.0 / ((q - 1.0) + 2.0 * sigma)
    h = grid.spacing
    mass = float(h * u0.values.sum())
    u = np.maximum(u0.values.copy(), 0.0)
    kmax_pow = (math.pi / h) ** (2.0 * sigma)
    y_face = grid.nodes + 0.5 * h
    y_face[-1] = 0.0
    tau = 0.0
    while tau < tau_end:
        umax = float(u.max())
        dt_diff = 2.0 / (kmax_pow * q * max(umax, 1e-12) ** (q - 1.0))
        dt_drift = h / (beta1 * grid.half_length)
        dt = CFL_SAFETY * min(dt_diff, dt_drift, (tau_end - tau) / CFL_SAFETY)
        diff = frac_laplacian(Field(grid, u**q), FracOrder(sigma)).values
        donor = np.where(y_face > 0.0, np.roll(u, -1), u)
        flux = y_face * donor
        div_drift = (flux - np.roll(flux, 1)) / h
        u = u - dt * diff + dt * beta1 * div_drift
        u = np.maximum(u, 0.0)
        total = h * u.sum()
        if total > 0.0:
            u *= mass / total
        tau += dt
    return u


@pytest.mark.parametrize("n, q, sigma, tau_end", [
    (64, 2.0, 0.5, 14.0),
    (512, 2.0, 0.5, 3.0),
    (64, 1.5, 0.3, 6.0),
])
def test_fpme_relaxation_equals_reference_loop(n, q, sigma, tau_end):
    g = make_grid(15.0, n)
    u0 = gaussian_bump(g, 2.0, width=1.0)
    got = fpme_profile_by_rescaling(u0, q, sigma, tau_end)
    assert np.array_equal(got.values, _reference_fpme_relaxation(u0, q, sigma, tau_end))
