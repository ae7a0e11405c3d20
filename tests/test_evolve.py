"""Density-solver and FPME-relaxation checks.

Oracles: stationarity of constants, exact flux telescoping for mass,
re-evaluation of the stepped field for the sup-norm bound, hand loops of
the public step functions for the driver, the scaling algebra of the
flow for the rescaling-commutation test, the dense matrix of the stepped
operator for the stiffness limit, and the exact m = 2 Barenblatt solution
for the scheme's error.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlpme import evolve
from nlpme.diagnostics import standard_checks
from nlpme.evolve import (
    CFL_SAFETY,
    MAX_STAGES,
    POSITIVITY_HEADROOM,
    STATIONARY_TOL,
    STEP_LIMITS,
    ModelParams,
    SimulationUnstable,
    _dilate,
    _dt_span,
    _roll1,
    cfl_dt,
    continuation_limit,
    fpme_profile_by_rescaling,
    pressure_gradient,
    simulate_density,
    step_density,
)
from nlpme.experiments import _prolong
from nlpme.grid import Field, FracOrder, make_grid
from nlpme.operators import (
    _symbol,
    frac_laplacian,
    inv_laplacian_gradient,
    mollified_frac_laplacian,
)
from nlpme.initial_data import compact_bump, gaussian_bump, mollified_dirac
from nlpme.similarity import (
    ProfileFamily,
    barenblatt_m2,
    residual_report,
)


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
    """Where the viscosity limit binds, the step is CFL_SAFETY times
    MAX_STAGES * h^2/(2 delta), the reach of MAX_STAGES safe three-point
    substeps, and doubling delta at fixed u halves it exactly."""
    g = make_grid(10.0, 256)
    h = g.spacing
    u = gaussian_bump(g, 1.0, width=0.7)
    d1 = cfl_dt(u, ModelParams(2.0, 0.5, delta=50.0))
    d2 = cfl_dt(u, ModelParams(2.0, 0.5, delta=100.0))
    assert d1 == CFL_SAFETY * (MAX_STAGES * h * h / (2.0 * 50.0))
    assert d2 == 0.5 * d1


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
    ModelParams(2.0, 0.1),
], ids=["limit", "regularized", "stiff"])
def test_simulate_density_equals_hand_loop_bitwise(p):
    """Sharing one pressure gradient per step changes no bit of the run.

    Oracle: `_public_loop`, cfl_dt / step_density and the allocating RKL1
    step, each computing the pressure gradient itself through
    `pressure_gradient`, with the solver's snapshot interpolation.
    """
    g = make_grid(8.0, 256)
    u0 = gaussian_bump(g, 1.0, width=0.7)
    t_end = 1.0
    snap_times = [0.0, 0.13, 0.31, t_end]
    traj = simulate_density(u0, p, t_end, snap_times=snap_times)

    frames, dts, _, evaluations, fallbacks = _public_loop(u0, p, t_end, snap_times)
    assert traj.steps == len(dts) > 10
    assert (traj.flux_evaluations, traj.fallback_steps) == (evaluations, fallbacks)
    assert len(traj.snapshots) == len(frames)
    for snap, frame in zip(traj.snapshots, frames):
        assert np.array_equal(snap.values, frame)


_step_sizes = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: v + 0.0)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(_step_sizes, min_size=1, max_size=500))
@example(values=[2.0])
@example(values=[3.0, 1.0])
@example(values=[1e308, 1e308, -1.0])
@example(values=[1e308, 1e308])
def test_median_is_np_median_bitwise(values):
    """_dt_span returns the bits of np.min, np.median and np.max, on the
    array.array of step sizes simulate_density keeps and on a plain array.
    Signed zeros are folded to +0.0: which of -0.0 and 0.0 lands in the
    middle is the sort's choice.  Two middle values near the largest float
    overflow to inf in both."""
    import array

    with np.errstate(over="ignore"):
        want = [np.float64(f(values)).tobytes() for f in (np.min, np.median, np.max)]
        for dts in (np.array(values), array.array("d", values)):
            assert [np.float64(v).tobytes() for v in _dt_span(dts)] == want


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 60), pairs=st.integers(1, 8), data=st.data())
def test_median_of_sweep_steps_is_np_median_bitwise(steps, pairs, data):
    """On the (steps, P) array of comparison_sweep's step sizes, _dt_span is
    np.min, np.median and np.max over all entries, bit for bit."""
    dts = np.array(data.draw(st.lists(_step_sizes, min_size=steps * pairs,
                                      max_size=steps * pairs))).reshape(steps, pairs)
    with np.errstate(over="ignore"):
        want = [np.float64(f(dts)).tobytes() for f in (np.min, np.median, np.max)]
        assert [np.float64(v).tobytes() for v in _dt_span(dts)] == want


def test_roll1_is_np_roll():
    """Bitwise np.roll along the last axis, written into `out`."""
    rng = np.random.default_rng(5)
    for a in (rng.standard_normal(37), rng.standard_normal((3, 37))):
        for shift in (1, -1):
            want = np.roll(a, shift, axis=-1)
            out = np.empty_like(a)
            assert _roll1(a, shift, out) is out and np.array_equal(out, want)


def _rkl_plan(u, p, cap):
    """(stages, dt) of the RKL1 step that simulate_density takes from u, or
    None where it takes the Euler step: the rule written out with the
    np.roll bound pieces.  RKL1 replaces the step only at m >= 2 when the
    stiffness limit sets it; S is the fewest stages (at most MAX_STAGES)
    whose (S^2+S)/2 safe stiffness steps reach the step the other limits
    and the cap allow, and S = 1 is the Euler step."""
    J, a, w_face = _roll_face_flux(u.values, pressure_gradient(u, p).values, p)
    if p.m < 2.0 or _roll_stable_dt(J, a, w_face, u.grid, p, cap)[1] != "stiffness":
        return None
    target = _roll_stable_dt(J, a, w_face, u.grid, p, cap, stiffness=False)[0]
    dt_stiff = CFL_SAFETY * (2.0 / (float(np.max(a)) * _stepped_max_eigenvalue(u.grid, p)))
    S = 1
    while (S * S + S) / 2 * dt_stiff < target and S < MAX_STAGES:
        S += 1
    return (S, min(target, (S * S + S) / 2 * dt_stiff)) if S > 1 else None


def _roll_viscosity(v, dt, h, delta):
    """The viscosity term written out with np.roll: S equal three-point
    substeps of dt/S, S the fewest (at most MAX_STAGES) with dt/S within
    CFL_SAFETY * h^2/(2 delta), then the clip.  Returns (values, clipped
    mass, S); delta = 0 leaves v as it is, with S = 0.  Raises
    SimulationUnstable where dt/S exceeds h^2/(2 delta), past which a
    substep is not a positive map."""
    if delta == 0.0:
        return v, 0.0, 0
    S = 1
    while dt / S > CFL_SAFETY * (h * h / (2.0 * delta)) and S < MAX_STAGES:
        S += 1
    if dt / S * delta > h * h / 2.0:
        raise SimulationUnstable(0.0)
    for _ in range(S):
        v = v + dt / S * delta * ((np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h**2)
    clipped = 0.0
    if np.any(v < 0.0):
        clipped = float(-h * v[v < 0.0].sum())
        v = np.maximum(v, 0.0)
    return v, clipped, S


def _rkl_reference_step(u, p, stages, dt):
    """An RKL1 step written out with fresh arrays, the pressure gradient
    of every stage through the public `pressure_gradient`, then the
    viscous substeps and their clip (`_roll_viscosity`).

    Returns (new values, clipped mass, flux evaluations), with None for
    the values when a stage has a negative cell.
    """
    g = u.grid
    h = g.spacing

    def flux_divergence(v):
        J, _, _ = _roll_face_flux(v, pressure_gradient(Field(g, v), p).values, p)
        return (np.roll(J, 1) - J) / h

    w1 = 2.0 / (stages * stages + stages)
    prev2, prev = None, u.values
    for j in range(1, stages + 1):
        mu, nu = (2 * j - 1) / j, -(j - 1) / j
        if j == 1:
            y = prev + mu * w1 * dt * flux_divergence(prev)
        else:
            y = mu * prev + nu * prev2 + mu * w1 * dt * flux_divergence(prev)
        if np.any(y < 0.0):
            return None, 0.0, j
        prev2, prev = prev, y
    y, clipped, _ = _roll_viscosity(y, dt, h, p.delta)
    return y, clipped, stages


def _public_loop(u0, p, t_end, snap_times, rkl=True):
    """simulate_density's schedule written with the public cfl_dt and
    step_density, and `_rkl_reference_step` on the steps `_rkl_plan`
    gives to RKL1 (none if not `rkl`), each computing its own pressure
    gradient.  A step whose stage goes negative is redone with cfl_dt /
    step_density.

    Returns (frames, the step sizes, clipped mass, flux evaluations,
    fallback steps): the evaluations are simulate_density's count, the
    stages evaluated, since a fallback reuses u's pressure gradient.
    """
    u, t, clipped, evaluations, fallbacks = u0, 0.0, 0.0, 0, 0
    frames, dts = [u0.values], []
    pending = list(snap_times[1:])
    while t < t_end - 1e-14:
        dt = cfl_dt(u, p, cap=t_end - t)
        if dt <= 0.0 or not math.isfinite(dt):
            dt = t_end - t
        plan = _rkl_plan(u, p, t_end - t) if rkl else None
        values, done = None, 1
        if plan is not None:
            values, c, done = _rkl_reference_step(u, p, *plan)
            fallbacks += values is None
        evaluations += done
        if values is None:
            u_next, c = step_density(u, p, dt)
        else:
            u_next, dt = u.with_values(values), plan[1]
        clipped += c
        while pending and pending[0] <= t + dt + 1e-14:
            theta = min(max((pending.pop(0) - t) / dt, 0.0), 1.0)
            frames.append((1 - theta) * u.values + theta * u_next.values)
        u, t = u_next, t + dt
        dts.append(dt)
    return frames, dts, clipped, evaluations, fallbacks


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

    frames, dts, clipped, evaluations, fallbacks = _public_loop(u0, p, t_end, snap_times)
    assert traj.steps == len(dts)
    assert (traj.flux_evaluations, traj.fallback_steps) == (evaluations, fallbacks)
    assert (traj.dt_min, traj.dt_max, traj.dt_median) == (min(dts), max(dts),
                                                          np.median(dts))
    assert traj.clipped_mass == clipped
    assert len(traj.snapshots) == len(frames)
    for snap, frame in zip(traj.snapshots, frames):
        assert np.array_equal(snap.values, frame)
    mass0 = traj.diagnostics[0].mass
    for d, snap in zip(traj.diagnostics, traj.snapshots):
        assert abs(d.mass - mass0) <= 1e-12 * mass0
        assert snap.values.min() >= 0.0
    assert sum(traj.limits.values()) == traj.steps


_small = st.one_of(st.just(0.0), st.floats(1e-3, 0.05))


@settings(max_examples=40, deadline=None)
@given(m=st.floats(2.0, 3.5), s=st.floats(0.05, 0.5), eps=_small, delta=_small,
       mu=_small, n=st.sampled_from([64, 128, 256]), compact=st.booleans())
@example(m=2.0, s=0.05, eps=0.0, delta=0.0, mu=0.0, n=256, compact=False)
@example(m=2.0, s=0.1, eps=0.0, delta=0.0, mu=0.05, n=64, compact=True)
# two fallbacks at stage 1, which redo their steps at no extra evaluation
@example(m=2.0, s=0.0625, eps=0.0, delta=0.0, mu=0.03125, n=64, compact=True)
def test_rkl_runs_conserve_mass_and_stay_nonnegative(m, s, eps, delta, mu, n, compact):
    """Runs at m >= 2, where stiff steps are RKL1 steps, conserve mass to
    roundoff, keep every frame nonnegative and charge every step to one
    limit; `flux_evaluations` counts exactly the pressure applications
    the run made, fallbacks included."""
    p = ModelParams(m, s, eps=eps, delta=delta, mu=mu)
    g = make_grid(8.0, n)
    u0 = (compact_bump(g, 1.0, radius=1.5) if compact
          else gaussian_bump(g, 1.0, width=0.5))
    with mock.patch.object(evolve, "_apply_rows", wraps=evolve._apply_rows) as spy:
        traj = simulate_density(u0, p, 0.3, np.linspace(0.0, 0.3, 7))
    mass0 = traj.diagnostics[0].mass
    for d, snap in zip(traj.diagnostics, traj.snapshots):
        assert abs(d.mass - mass0) <= 1e-12 * mass0
        assert snap.values.min() >= 0.0
    assert sum(traj.limits.values()) == traj.steps
    assert traj.flux_evaluations == spy.call_count


def test_rkl_fallback_redoes_the_step_as_euler():
    """A stage with a negative cell sends its step back to Euler.  With
    mu > 0 the empty cells around a compact bump are mobile, and RKL1's
    unlimited stages overdraw them where the Euler limiter would cut the
    outflow.  Oracle: `_public_loop`, bit for bit, with its evaluation
    and fallback counts; the redone steps are charged to stiffness."""
    p = ModelParams(2.0, 0.1, mu=0.1)
    g = make_grid(8.0, 64)
    u0 = compact_bump(g, 1.0, radius=1.5)
    snap_times = [0.0, 0.1, 0.3]
    traj = simulate_density(u0, p, 0.3, snap_times)
    frames, dts, clipped, evaluations, fallbacks = _public_loop(u0, p, 0.3, snap_times)
    assert traj.fallback_steps == fallbacks > 0
    assert traj.flux_evaluations == evaluations
    assert traj.limits["stiffness"] >= fallbacks
    assert traj.clipped_mass == clipped
    for snap, frame in zip(traj.snapshots, frames):
        assert np.array_equal(snap.values, frame)


def test_rkl_fallback_after_later_stages_is_the_euler_step(monkeypatch):
    """An RKL1 step thrown away after all its stages, whose pressure
    evaluations overwrote the workspace's face flux, is redone as the
    Euler step bit for bit.  Every RKL1 step is made to fail at its last
    stage; oracle: the public cfl_dt / step_density loop alone."""
    import nlpme.evolve as evolve

    real = evolve._rkl_step
    stage_counts = []

    def failing_rkl_step(u, J, dt, stages, *args):
        stage_counts.append(real(u, J, dt, stages, *args)[1])
        return None, stages

    monkeypatch.setattr(evolve, "_rkl_step", failing_rkl_step)
    p = ModelParams(2.0, 0.1)
    u0 = gaussian_bump(make_grid(8.0, 256), 1.0, width=0.7)
    snap_times = [0.0, 0.13, 0.31, 1.0]
    traj = simulate_density(u0, p, 1.0, snap_times)
    frames, dts, _, _, _ = _public_loop(u0, p, 1.0, snap_times, rkl=False)
    assert traj.fallback_steps == len(stage_counts) == traj.steps - 1
    assert min(stage_counts) > 1
    assert traj.flux_evaluations == 1 + sum(stage_counts)  # the last step is Euler
    assert traj.steps == len(dts)
    for snap, frame in zip(traj.snapshots, frames):
        assert np.array_equal(snap.values, frame)


def test_rkl_fallback_at_stage_two_reuses_u_pressure():
    """A stage-2 fallback met in an unforced run (m = 2.5, s = 0.05,
    mu = 0.01) costs its two stage evaluations and no third: u's pressure
    gradient from the top of the step is reused.  `flux_evaluations`
    equals the pressure applications made, and the redone step is
    bitwise step_density from the same state with the same dt."""
    p = ModelParams(2.5, 0.05, mu=0.01)
    g = make_grid(10.0, 64)
    u0 = gaussian_bump(g, 2.0, width=0.4)
    real_rkl, real_flux = evolve._rkl_step, evolve._apply_flux
    stage_counts, failed, redone = [], [], []

    def recording_rkl_step(u, *args):
        y, evals = real_rkl(u, *args)
        stage_counts.append(evals)
        if y is None:
            failed.append((evals, u.copy()))
        return y, evals

    def recording_apply_flux(u, J, dt, *args):
        u_new, clipped, limited = real_flux(u, J, dt, *args)
        if failed and len(redone) < len(failed):
            redone.append((u.copy(), dt, u_new.copy()))
        return u_new, clipped, limited

    with mock.patch.object(evolve, "_rkl_step", recording_rkl_step), \
         mock.patch.object(evolve, "_apply_flux", recording_apply_flux), \
         mock.patch.object(evolve, "_apply_rows", wraps=evolve._apply_rows) as spy:
        traj = simulate_density(u0, p, 0.2, [0.0, 0.1, 0.2])
    assert failed[0][0] == 2 and traj.fallback_steps == len(failed)
    # one evaluation per Euler step, one per stage an RKL1 step ran
    assert traj.flux_evaluations == spy.call_count == (
        traj.steps - len(stage_counts) + sum(stage_counts))
    (_, u), (u_in, dt, u_new) = failed[0], redone[0]
    assert np.array_equal(u_in, u)
    assert np.array_equal(u_new, step_density(Field(g, u), p, dt)[0].values)


def test_rkl_stage_not_finite_loses_the_step(monkeypatch):
    """A stage that is not finite raises SimulationUnstable at the time
    before its step, and the partial trajectory counts no evaluation of
    the lost step.  The first step is RKL1; its third pressure
    evaluation, at stage 3, returns NaN."""
    real = evolve._apply_rows
    calls = []

    def nan_on_third(u, sym):
        calls.append(1)
        w = real(u, sym)
        return np.full_like(w, np.nan) if len(calls) == 3 else w

    monkeypatch.setattr(evolve, "_apply_rows", nan_on_third)
    u0 = gaussian_bump(make_grid(8.0, 256), 1.0, width=0.7)
    with pytest.raises(SimulationUnstable) as info:
        simulate_density(u0, ModelParams(2.0, 0.2), 1.0, [0.0, 0.5, 1.0])
    assert len(calls) == 3
    assert info.value.t_last == 0.0
    partial = info.value.partial
    assert list(partial.times) == [0.0]
    assert np.array_equal(partial.snapshots[0].values, u0.values)
    assert partial.steps == partial.flux_evaluations == partial.fallback_steps == 0


def test_rkl_stages_are_capped():
    """A state at rest has no advective limit, so only the horizon would
    bound an RKL1 step (about 400 stages here); MAX_STAGES caps each
    step's flux evaluations, and a capped step is charged to stiffness.
    The state stays at rest."""
    g = make_grid(8.0, 64)
    u0 = Field(g, np.full(g.n, 0.5))
    traj = simulate_density(u0, ModelParams(2.0, 0.2), 1e4, [0.0, 1e4])
    assert traj.limits["stiffness"] == traj.steps - 1 > 0
    assert traj.steps < traj.flux_evaluations <= MAX_STAGES * traj.steps
    assert np.max(np.abs(traj.snapshots[-1].values - 0.5)) < 1e-12


@pytest.mark.parametrize("s", [0.2, 0.3])
def test_rkl_matches_barenblatt_m2(s):
    """RKL1 steps lose no accuracy against the exact m = 2 solution while
    evaluating fewer fluxes than Euler takes steps.  Oracle:
    similarity.barenblatt_m2 (L = 15, mass 2, n = 2048) evolved from
    t = 1 to t = 1.5, and the Euler run of the public cfl_dt / step_density."""
    g = make_grid(15.0, 2048)
    p = ModelParams(2.0, s)
    u0 = barenblatt_m2(g, 2.0, 1.0, s)
    exact = barenblatt_m2(g, 2.0, 1.5, s).values
    traj = simulate_density(u0, p, 0.5, [0.0, 0.5])
    u, t, steps = u0, 0.0, 0
    while t < 0.5 - 1e-14:
        dt = cfl_dt(u, p, cap=0.5 - t)
        u, _ = step_density(u, p, dt)
        t, steps = t + dt, steps + 1
    error = g.spacing * np.abs(traj.snapshots[-1].values - exact).sum()
    assert error <= 1.1 * g.spacing * np.abs(u.values - exact).sum()
    assert traj.fallback_steps == 0
    assert traj.steps < traj.flux_evaluations < steps


def _stepped_max_eigenvalue(g, p):
    """Largest eigenvalue of v -> D_-(avg(pressure_gradient(v))): the
    pressure symbol Lambda(k) times sin(kh)/(kh), over k_j, j = 1..n/2-1."""
    n = g.n
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.spacing)[1:n // 2]
    lam = (_symbol(g.half_length, g.n, p.s, p.eps)[1:n // 2] if p.eps > 0.0
           else k ** (2.0 - 2.0 * p.s))
    kh = 2.0 * np.pi * np.arange(1, n // 2) / n
    return float(np.max(lam * (np.sin(kh) / kh)))


def _advective_speed(J, a, w_face, p):
    """max|J|, and at least (m-1) (max u + mu)^(m-2) max|w_face|, with
    (max u + mu)^(m-2) taken as max(a)^((m-2)/(m-1))."""
    speed = float(np.max(np.abs(J)))
    amax = float(np.max(a))
    if amax > 0.0:
        wmax = float(np.max(np.abs(w_face)))
        speed = max(speed, (p.m - 1.0) * amax ** ((p.m - 2.0) / (p.m - 1.0)) * wmax)
    return speed


def _reference_step(u, p, dt, w):
    """The density step as first written: np.roll shifts, the limiter
    factor through nested np.where under errstate, then the viscous
    substeps (`_roll_viscosity`)."""
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
    new, visc_clipped, _ = _roll_viscosity(new, dt, h, p.delta)
    clipped += visc_clipped
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
    bound = min(g.spacing / _advective_speed(vel, a, w_face, p),
                2.0 / (np.max(a) * _stepped_max_eigenvalue(g, p)))
    if p.delta > 0.0:
        bound = min(bound, MAX_STAGES * g.spacing * g.spacing / (2.0 * p.delta))
    assert dt == CFL_SAFETY * bound

    if factor == 200.0 and p.delta > 0.0:
        # 200 CFL steps (dt = 30.8) need 493 viscous substeps; the
        # MAX_STAGES capped ones would each take dt/S = 3.1 h^2/(2 delta),
        # where the three-point update overshoots (to max u = 1.6e42), so
        # the step raises instead of returning that state
        with pytest.raises(SimulationUnstable):
            step_density(u, p, factor * dt)
        with pytest.raises(SimulationUnstable):
            _reference_step(u, p, factor * dt, w.values)
        return
    out, clipped = step_density(u, p, factor * dt)
    ref, ref_clipped, limited, overdrawn = _reference_step(u, p, factor * dt, w.values)
    assert np.array_equal(out.values, ref)
    assert clipped == ref_clipped
    if p.mu > 0.0:
        # (u + mu)^(m-1) > 0 in the empty cells around the bump, whose
        # outflow the limiter must cut to zero
        assert limited
    if factor == 200.0:
        # the limiter keeps the flux update nonnegative, and nothing else
        # of the step at delta = 0 can go negative
        assert overdrawn and limited
        assert clipped == 0.0


def test_unstable_step_raises_simulation_unstable():
    g = make_grid(8.0, 64)
    u = compact_bump(g, 1.0, radius=1.5)
    with pytest.raises(SimulationUnstable), np.errstate(all="ignore"):
        step_density(u, ModelParams(2.0, 0.5, delta=1e300), 1e10)


@settings(max_examples=60, deadline=None)
@given(m=st.floats(1.05, 3.5), s=st.floats(0.1, 0.9),
       delta=st.floats(-3.0, 2.0).map(lambda e: 10.0**e), mu=_regularization,
       n=st.sampled_from([32, 64, 128]),
       data=st.sampled_from(["gaussian", "compact", "random"]),
       seed=st.integers(0, 2**32 - 1), reach=st.floats(0.0, 1.0))
@example(m=2.0, s=0.5, delta=100.0, mu=0.0, n=128, data="compact", seed=0, reach=1.0)
@example(m=1.05, s=0.1, delta=1e-3, mu=0.2, n=32, data="random", seed=1, reach=0.0)
def test_viscous_substeps_keep_positivity_and_mass(m, s, delta, mu, n, data, seed,
                                                   reach):
    """A viscous part of any step up to the viscosity limit, CFL_SAFETY *
    MAX_STAGES * h^2/(2 delta), takes the substeps of `_roll_viscosity`
    (at most MAX_STAGES) bit for bit, keeps u >= 0, clips nothing and
    conserves mass to roundoff.  A run takes
    1 to MAX_STAGES substeps a step, conserves mass, stays nonnegative,
    and charges a step to the viscosity limit only where that limit binds:
    no step is longer, and those steps have exactly its length."""
    p = ModelParams(m, s, delta=delta, mu=mu)
    g = make_grid(8.0, n)
    h = g.spacing
    if data == "gaussian":
        u0 = gaussian_bump(g, 1.0, width=0.5)
    elif data == "compact":
        u0 = compact_bump(g, 1.0, radius=1.5)
    else:
        rng = np.random.default_rng(seed)
        u0 = Field(g, rng.random(n) * (rng.random(n) < 0.7))  # some empty cells
    mass0 = h * u0.values.sum()
    limit = CFL_SAFETY * (MAX_STAGES * h * h / (2.0 * delta))

    ws = evolve._Workspace(n)
    v = u0.values.copy()
    assert evolve._finish_step(v, reach * limit, h, p, ws) == 0.0
    ref, _, substeps = _roll_viscosity(u0.values, reach * limit, h, delta)
    assert np.array_equal(v, ref)
    assert 1 <= ws.substeps == substeps <= MAX_STAGES
    assert v.min() >= 0.0
    assert abs(h * v.sum() - mass0) <= 1e-12 * mass0

    t_end = 4.0 * cfl_dt(u0, p)
    traj = simulate_density(u0, p, t_end, [0.0, t_end])
    assert traj.steps <= traj.viscosity_substeps <= MAX_STAGES * traj.steps
    for d, snap in zip(traj.diagnostics, traj.snapshots):
        assert abs(d.mass - mass0) <= 1e-12 * mass0
        assert snap.values.min() >= 0.0
    assert traj.dt_max <= limit
    assert traj.limits["viscosity"] == 0 or traj.dt_max == limit


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
    t_end, k = 2.0, 5
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

    def apply_flux(u, J, dt, h, p, ws):
        calls.append(dt)
        if len(calls) == k and abort == "nan":
            raise SimulationUnstable(0.0)
        u_new, clipped, limited = real(u, J, dt, h, p, ws)
        return u_new, (1.0 if len(calls) == k else clipped), limited

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
    assert partial.flux_evaluations == done  # Euler steps, one each


@pytest.mark.parametrize("p, bound", [
    (ModelParams(2.0, 0.2), "stiffness"),
    (ModelParams(2.0, 0.9), "advective"),
    # the viscosity limit, MAX_STAGES * h^2/(2 delta), binds only at a delta
    # where 64 safe three-point substeps fall short of the advective step
    (ModelParams(2.0, 0.5, delta=5.0), "viscosity"),
    (ModelParams(1.5, 0.2), "stiffness"),
])
def test_step_telemetry(p, bound):
    """Every step is charged to exactly one limit; which one follows the
    regime: small s is stiff, s near 1 advective, large delta viscous.  Only
    the last, horizon-capped step is charged to the cap.  A stiff step at
    m >= 2 is an RKL1 step of several flux evaluations, charged to the
    advective limit its stages reach; at m < 2 it stays one Euler step."""
    g = make_grid(15.0, 256)
    traj = simulate_density(gaussian_bump(g, 2.0, width=1.0), p, 0.5,
                            snap_times=np.linspace(0.0, 0.5, 5))
    assert set(traj.limits) == set(STEP_LIMITS)
    assert sum(traj.limits.values()) == traj.steps > 1
    assert traj.limits["cap"] == 1
    assert traj.fallback_steps == 0
    if p.m >= 2.0 and bound == "stiffness":
        assert traj.flux_evaluations > traj.steps
        assert traj.limits["advective"] == traj.steps - 1
    else:
        assert traj.flux_evaluations == traj.steps
        assert traj.limits[bound] == traj.steps - 1
    assert 0.0 < traj.dt_min <= traj.dt_median <= traj.dt_max


def test_step_telemetry_without_steps():
    g = make_grid(8.0, 64)
    traj = simulate_density(gaussian_bump(g, 1.0), ModelParams(2.0, 0.5), 0.0,
                            snap_times=[0.0])
    assert traj.steps == 0 and sum(traj.limits.values()) == 0
    assert math.isnan(traj.dt_min) and math.isnan(traj.dt_max)
    assert math.isnan(traj.dt_median)


def _explicit_fpme_relaxation(u0, q, sigma, tau_end):
    """The FPME relaxation with an explicit upwind drift and its CFL bound
    h/(beta1 L): np.roll shifts and a Field plus frac_laplacian call per
    step.  Its fixed point is a different O(h) approximation of the same
    profile, so it is an oracle for the steady state."""
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


def _reference_fpme_relaxation(u0, q, sigma, tau_end, tol=STATIONARY_TOL):
    """fpme_profile_by_rescaling as a plain loop: explicit fractional
    diffusion through a Field and frac_laplacian, the positivity clip, then
    the drift as the dilation of the primitive at the cell faces, until
    tau_end or the first step of size dt that moves u by less than
    tol * dt * M in L1.  Returns (u, steps, tau reached); tol = 0 is the
    loop to tau_end."""
    grid = u0.grid
    beta1 = 1.0 / ((q - 1.0) + 2.0 * sigma)
    h = grid.spacing
    mass = float(h * u0.values.sum())
    u = np.maximum(u0.values.copy(), 0.0)
    kmax_pow = (math.pi / h) ** (2.0 * sigma)
    faces = grid.nodes[0] - 0.5 * h + h * np.arange(grid.n + 1)
    tau, steps = 0.0, 0
    while tau < tau_end:
        umax = float(u.max())
        dt_diff = 2.0 / (kmax_pow * q * max(umax, 1e-12) ** (q - 1.0))
        dt = CFL_SAFETY * min(dt_diff, (tau_end - tau) / CFL_SAFETY)
        diff = frac_laplacian(Field(grid, u**q), FracOrder(sigma)).values
        new = np.maximum(u - dt * diff, 0.0)
        primitive = np.r_[0.0, h * np.cumsum(new)]
        new = np.diff(np.interp(np.exp(beta1 * dt) * faces, faces, primitive)) / h
        total = h * new.sum()
        if total > 0.0:
            new *= mass / total
        stationary = h * np.abs(new - u).sum() < tol * dt * mass
        u, tau, steps = new, tau + dt, steps + 1
        if stationary:
            break
    return u, steps, tau


@pytest.mark.parametrize("n, q, sigma, tau_end", [
    (64, 2.0, 0.5, 14.0),
    (512, 2.0, 0.5, 3.0),
    (64, 1.5, 0.3, 6.0),
])
def test_fpme_relaxation_equals_reference_loop(n, q, sigma, tau_end, monkeypatch):
    """The relaxation and the reference loop give the same profile bit for
    bit and stop after the same step, at the same tau (the first case
    stops at tau = 8.8, the others reach tau_end).  With STATIONARY_TOL =
    0 no step is stationary: the relaxation runs to tau_end and is the
    loop without a stop bit for bit, as it was before the stop."""
    g = make_grid(15.0, n)
    u0 = gaussian_bump(g, 2.0, width=1.0)
    got, stats = fpme_profile_by_rescaling(u0, q, sigma, tau_end)
    ref, steps, tau = _reference_fpme_relaxation(u0, q, sigma, tau_end)
    assert np.array_equal(got.values, ref)
    assert (stats["steps"], stats["tau"]) == (steps, tau)
    monkeypatch.setattr(evolve, "STATIONARY_TOL", 0.0)
    got, stats = fpme_profile_by_rescaling(u0, q, sigma, tau_end)
    ref, steps, tau = _reference_fpme_relaxation(u0, q, sigma, tau_end, tol=0.0)
    assert np.array_equal(got.values, ref)
    assert stats["steps"] == steps and abs(stats["tau"] - tau_end) < 1e-12


@settings(max_examples=30, deadline=None)
@given(q=st.floats(1.1, 3.0), sigma=st.floats(0.1, 0.9),
       n=st.sampled_from([32, 64, 128]), tau_end=st.floats(0.05, 14.0))
@example(q=2.0, sigma=0.5, n=128, tau_end=14.0)
def test_fpme_relaxation_stops_within_tau_end_keeping_mass_and_sign(q, sigma, n,
                                                                    tau_end):
    """Over q, sigma and n the relaxation takes at least one step, stops
    at or before tau_end (to rounding), keeps the mass to roundoff and
    phi >= 0; moved onto the grid of twice the resolution, as
    transform-check seeds its fine relaxation, the profile keeps both."""
    g = make_grid(15.0, n)
    u0 = gaussian_bump(g, 2.0, width=1.0)
    profile, stats = fpme_profile_by_rescaling(u0, q, sigma, tau_end)
    phi = profile.values
    assert stats["steps"] >= 1
    assert 0.0 < stats["tau"] <= tau_end * (1.0 + 1e-15)
    assert np.all(phi >= 0.0)
    assert abs(g.spacing * phi.sum() - 2.0) < 1e-13
    fine = make_grid(15.0, 2 * n)
    seed = _prolong(profile, fine).values
    assert np.all(seed >= 0.0)
    assert abs(fine.spacing * seed.sum() - 2.0) < 1e-13


def test_seeded_fine_relaxation_is_the_gaussian_started_profile(monkeypatch):
    """At the benchmark's transform-check config (n = 1024, q = 2,
    sigma = 1/2, mass 2) the fine relaxation seeded with the coarse
    profile, stopped at stationarity, lies within 2e-4 relative L1 of the
    profile relaxed from the Gaussian to tau = 14 without a stop (8.8e-5
    measured when the stop came in), in a third of its steps."""
    q, sigma = 2.0, 0.5
    fine = make_grid(15.0, 1024)
    coarse_profile, _ = fpme_profile_by_rescaling(
        gaussian_bump(make_grid(15.0, 512), 2.0, width=1.0), q, sigma)
    seeded, stats = fpme_profile_by_rescaling(_prolong(coarse_profile, fine), q, sigma)
    monkeypatch.setattr(evolve, "STATIONARY_TOL", 0.0)
    full, full_stats = fpme_profile_by_rescaling(gaussian_bump(fine, 2.0, width=1.0),
                                                 q, sigma, 14.0)
    distance = np.abs(seeded.values - full.values).sum() / np.abs(full.values).sum()
    assert distance < 2e-4
    assert stats["tau"] < 14.0 and 3 * stats["steps"] < full_stats["steps"]


@pytest.mark.parametrize("q, sigma, tau_end", [(2.0, 0.5, 14.0), (3.0, 0.7, 12.0)])
def test_fpme_relaxation_beats_and_approaches_the_explicit_oracle(q, sigma, tau_end):
    """The dilation drift and the explicit upwind drift relax to different
    O(h) approximations of the same profile.  The dilation's profile has
    the smaller stationary residual at each n, and the L1 distance between
    the two falls at first order in h: to 0.51 of itself at q = 2 and 0.39
    at q = 3 when h halves, checked against 0.55 (measured when the scheme
    changed: residuals 3.6e-2 vs 4.7e-2 and 1.9e-2 vs 2.5e-2 at q = 2,
    0.154 vs 0.159 and 8.9e-2 vs 9.2e-2 at q = 3)."""
    distances = []
    for n in (256, 512):
        g = make_grid(15.0, n)
        u0 = gaussian_bump(g, 2.0, width=1.0)
        profile, stats = fpme_profile_by_rescaling(u0, q, sigma, tau_end)
        phi = profile.values
        explicit = _explicit_fpme_relaxation(u0, q, sigma, tau_end)
        fpme = ProfileFamily.FPME
        assert (residual_report(Field(g, phi), fpme, q, sigma).relative
                < residual_report(Field(g, explicit), fpme, q, sigma).relative)
        distances.append(g.spacing * np.abs(phi - explicit).sum())
        assert list(stats) == ["steps", "tau", "dt_min", "dt_median", "dt_max",
                               "clip_steps"]
        assert stats["clip_steps"] == 0
        assert np.all(phi >= 0.0)
        assert abs(g.spacing * phi.sum() - 2.0) < 1e-14
    assert distances[1] <= 0.55 * distances[0]


def test_fpme_relaxation_with_an_underflowing_diffusion_bound():
    """At q = 30 and mass 1e-20, max(u)^(q-1) underflows to 0, so the
    diffusion sets no bound (it divided by zero before); the dilation drift
    needs none, and the relaxation takes one step to tau_end.  A step so
    long that dt or exp(beta1*dt) overflows is unstable at tau = 0, not a
    NaN profile."""
    g = make_grid(15.0, 64)
    u0 = gaussian_bump(g, 1e-20, width=1.0)
    profile, stats = fpme_profile_by_rescaling(u0, 30.0, 0.5, 1.0)
    phi = profile.values
    assert stats["steps"] == 1 and stats["dt_max"] == 1.0
    assert np.all(phi >= 0.0)
    assert abs(g.spacing * phi.sum() - 1e-20) < 1e-34
    with pytest.raises(SimulationUnstable) as err:
        fpme_profile_by_rescaling(u0, 30.0, 0.5, 1e308)
    assert err.value.t_last == 0.0


@pytest.mark.parametrize("stretch", [1.0, 1.001, 31.6, 1e3])
@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([16, 64, 256]), seed=st.integers(0, 2**32 - 1))
@example(n=256, seed=0)
def test_dilation_keeps_mass_and_sign(stretch, n, seed):
    """Nonnegative cell masses with runs of zeros stay nonnegative and keep
    their total to roundoff under any stretch; stretch 1 changes no bit."""
    rng = np.random.default_rng(seed)
    masses = rng.random(n) * (rng.random(n) < 0.6)  # isolated zeros
    start = rng.integers(n)
    masses[start:start + n // 4] = 0.0  # and a long zero run
    g = make_grid(15.0, n)
    faces = g.nodes[0] - 0.5 * g.spacing + g.spacing * np.arange(n + 1)
    primitive = np.r_[0.0, np.cumsum(masses)]
    out = _dilate(primitive, faces, stretch)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - masses.sum()) <= 1e-13 * masses.sum()
    if stretch == 1.0:
        assert np.array_equal(out, np.diff(primitive))


# --- workspace step ------------------------------------------------------


def _roll_face_flux(u, w, p):
    """_face_flux as written with fresh arrays and np.roll shifts."""
    a = (u + p.mu) ** (p.m - 1.0)
    w_face = 0.5 * (w + np.roll(w, -1))
    a_up = np.where(w_face < 0.0, a, np.roll(a, -1))
    return -a_up * w_face, a, w_face


def _roll_stable_dt(J, a, w_face, grid, p, cap, stiffness=True):
    """cfl_dt's step as written with np.abs: the three limits in order, or
    the advective and viscosity limits alone.  The viscosity limit is
    MAX_STAGES * h^2/(2 delta), where MAX_STAGES substeps of the safe
    three-point step fall short."""
    h = grid.spacing
    dt, limit = math.inf, "cap"
    vmax = _advective_speed(J, a, w_face, p)
    if vmax > 0.0:
        dt, limit = h / vmax, "advective"
    amax = float(np.max(a))
    if stiffness and amax > 0.0:
        stiff = 2.0 / (amax * _stepped_max_eigenvalue(grid, p))
        if stiff < dt:
            dt, limit = stiff, "stiffness"
    if p.delta > 0.0:
        visc = MAX_STAGES * h * h / (2.0 * p.delta)
        if visc < dt:
            dt, limit = visc, "viscosity"
    dt = CFL_SAFETY * dt
    if cap < dt:
        return float(cap), "cap"
    return float(dt), limit


def _roll_apply_flux(u, J, dt, h, p):
    """_apply_flux as written with fresh arrays, np.roll shifts, the
    limiter pass always run and the viscous substeps of `_roll_viscosity`;
    also returns whether any factor is below 1."""
    out_right = np.maximum(J, 0.0)
    out_left = np.maximum(-np.roll(J, 1), 0.0)
    outflow = (dt / h) * (out_right + out_left)
    factor = np.ones_like(u)
    np.divide(POSITIVITY_HEADROOM * u, outflow, out=factor, where=outflow > 0.0)
    np.minimum(1.0, factor, out=factor)
    J = J * np.where(J > 0.0, factor, np.roll(factor, -1))
    u_new = u - (dt / h) * (J - np.roll(J, 1))
    clipped = 0.0
    if np.any(u_new < 0.0):
        clipped = float(-h * u_new[u_new < 0.0].sum())
        u_new = np.maximum(u_new, 0.0)
    u_new, visc_clipped, _ = _roll_viscosity(u_new, dt, h, p.delta)
    clipped += visc_clipped
    return u_new, clipped, J, bool(np.any(factor < 1.0))


def _bits(a):
    """The raw bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=80, deadline=None)
@given(m=st.floats(1.01, 3.5), s=st.floats(0.05, 0.9), eps=_regularization,
       delta=_regularization, mu=_regularization,
       n=st.sampled_from([32, 64, 128]),
       data=st.sampled_from(["gaussian", "compact", "random"]),
       seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([1.0, 30.0, 200.0]))
@example(m=1.01, s=0.05, eps=0.0, delta=0.0, mu=0.0, n=128, data="compact",
         seed=0, factor=200.0)
@example(m=3.5, s=0.05, eps=0.2, delta=0.2, mu=0.2, n=32, data="random",
         seed=1, factor=30.0)
@example(m=1.5, s=0.9, eps=0.0, delta=0.0, mu=0.0, n=64, data="gaussian",
         seed=2, factor=1.0)
def test_workspace_step_equals_roll_pieces(m, s, eps, delta, mu, n, data, seed, factor):
    """The workspace pieces give the np.roll pieces' J, a, dt, limit, new
    state and clipped mass bit for bit, signs of zero included, from 1 to
    200 times the CFL step.  `limited` is exactly "some factor < 1", the
    predicate of the skipped limiter pass, and J is limited in place."""
    import nlpme.evolve as evolve

    p = ModelParams(m, s, eps=eps, delta=delta, mu=mu)
    g = make_grid(8.0, n)
    if data == "gaussian":
        u = gaussian_bump(g, 1.0, width=0.5)
    elif data == "compact":
        u = compact_bump(g, 1.0, radius=1.5)
    else:
        rng = np.random.default_rng(seed)
        vals = rng.random(n) * (rng.random(n) < 0.7)  # some empty cells
        u = Field(g, vals)
    w = pressure_gradient(u, p).values

    ws = evolve._Workspace(n)
    J, a, w_face = evolve._face_flux(u.values, w, p, ws)
    J_ref, a_ref, w_face_ref = _roll_face_flux(u.values, w, p)
    assert np.array_equal(_bits(J), _bits(J_ref))
    assert np.array_equal(_bits(a), _bits(a_ref))
    assert np.array_equal(_bits(w_face), _bits(w_face_ref))

    cap = 10.0
    dt, limit = evolve._safe_dt(evolve._step_bounds(J, a, w_face, g, p), cap)
    assert (dt, limit) == _roll_stable_dt(J_ref, a_ref, w_face_ref, g, p, cap)
    assert limit in STEP_LIMITS

    dt = factor * dt
    with np.errstate(over="ignore"):  # past the bound the update may overflow
        try:
            new_ref, clipped_ref, J_lim_ref, limited_ref = _roll_apply_flux(
                u.values, J_ref, dt, g.spacing, p)
        except SimulationUnstable:  # past MAX_STAGES positive viscous substeps
            new_ref = np.full(n, np.nan)
        if not np.all(np.isfinite(new_ref)):
            with pytest.raises(SimulationUnstable):
                evolve._apply_flux(u.values, J, dt, g.spacing, p, ws)
            return
        new, clipped, limited = evolve._apply_flux(u.values, J, dt, g.spacing, p, ws)
    assert np.array_equal(_bits(new), _bits(new_ref))
    assert clipped == clipped_ref
    assert math.copysign(1.0, clipped) == math.copysign(1.0, clipped_ref)
    assert limited == limited_ref
    assert np.array_equal(_bits(J), _bits(J_lim_ref))
    if limited:  # the flux mass the cut kept in place
        cut = dt * np.abs(J_ref - J_lim_ref).sum()
        assert abs(ws.cut - cut) <= 1e-12 * dt * np.abs(J_ref).sum()
    assert any(new is buf for buf in ws.states)


def test_snapshots_share_no_memory(monkeypatch):
    """No stored snapshot aliases another snapshot or any workspace buffer,
    so the alternating state buffers cannot overwrite a stored frame."""
    import nlpme.evolve as evolve

    made = []

    class RecordingWorkspace(evolve._Workspace):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(evolve, "_Workspace", RecordingWorkspace)
    g = make_grid(8.0, 128)
    u0 = compact_bump(g, 1.0, radius=1.5)
    # repeated times, two frames inside one step, frames steps apart
    snap_times = [0.0, 0.0, 0.01, 0.02, 0.02, 0.25, 0.5, 1.0]
    traj = simulate_density(u0, ModelParams(2.0, 0.5, delta=0.01), 1.0, snap_times)
    assert len(made) == 1 and traj.steps > 5
    ws = made[0]
    buffers = [ws.a, ws.J, ws.w_face, ws.b1, ws.b2, ws.b3, *ws.states]
    snaps = [snap.values for snap in traj.snapshots]
    assert len(snaps) == len(snap_times)
    for i, snap in enumerate(snaps):
        assert not np.shares_memory(snap, u0.values)
        for other in snaps[i + 1:]:
            assert not np.shares_memory(snap, other)
        for buf in buffers:
            assert not np.shares_memory(snap, buf)
    # the stored frames are still the run's: the first is u0, bit for bit
    assert np.array_equal(snaps[0], u0.values)
    assert np.array_equal(snaps[1], u0.values)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_density_run_checks_each_snapshot_not_each_step(monkeypatch, eps):
    """Steps apply the pressure symbol on arrays: the Field check and the
    operators' finiteness check run once per stored snapshot (its Field and
    its diagnostics' energy), never once per step."""
    import nlpme.operators as operators

    u0 = gaussian_bump(make_grid(8.0, 256), 4.0, width=0.3)
    counts = {"field": 0, "finite": 0}
    field_check, finite_check = Field.__post_init__, operators._check_finite

    def counting_field_check(self):
        counts["field"] += 1
        field_check(self)

    def counting_finite_check(values):
        counts["finite"] += 1
        finite_check(values)

    monkeypatch.setattr(Field, "__post_init__", counting_field_check)
    monkeypatch.setattr(operators, "_check_finite", counting_finite_check)
    snap_times = [0.0, 0.1, 0.5]
    traj = simulate_density(u0, ModelParams(2.0, 0.5, eps=eps), 0.5, snap_times)
    assert traj.steps > 10 * len(snap_times)
    assert counts == {"field": len(snap_times), "finite": len(snap_times)}


def test_limiter_steps_telemetry():
    """limiter_steps counts the steps whose limiter cut an outflow: none in
    a CFL run from a Gaussian, every step when mu > 0 leaves the empty
    cells around a compact bump mobile."""
    g = make_grid(8.0, 128)
    quiet = simulate_density(gaussian_bump(g, 1.0, width=1.0), ModelParams(2.0, 0.5),
                             1.0, [0.0, 1.0])
    assert quiet.steps > 1 and quiet.limiter_steps == 0
    assert quiet.limited_flux_mass == 0.0
    busy = simulate_density(compact_bump(g, 1.0, radius=1.5),
                            ModelParams(1.2, 0.6, mu=0.05), 1.0, [0.0, 1.0])
    assert busy.steps > 1 and busy.limiter_steps == busy.steps
    assert busy.limited_flux_mass > 0.0


# --- step bounds ---------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("s", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_max_symbol_is_the_stepped_operator_spectrum(n, s, eps):
    """The stiffness limit's eigenvalue is that of the operator the update
    steps.  Oracle: the dense matrix of v -> D_-(avg(pressure_gradient(v))),
    built column by column from unit vectors; its eigenvalues are real and
    nonpositive, and the largest modulus is _max_symbol."""
    import nlpme.evolve as evolve

    g = make_grid(10.0, n)
    p = ModelParams(2.0, s, eps=eps)
    matrix = np.empty((n, n))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        w = pressure_gradient(Field(g, unit), p).values
        w_face = 0.5 * (w + np.roll(w, -1))
        matrix[:, j] = (w_face - np.roll(w_face, 1)) / g.spacing
    eig = np.linalg.eigvals(matrix)
    largest = np.max(np.abs(eig))
    assert np.max(np.abs(eig.imag)) <= 1e-12 * largest
    assert np.max(eig.real) <= 1e-12 * largest
    got = evolve._max_symbol(g.half_length, n, s, eps)
    assert got == pytest.approx(largest, rel=1e-12, abs=0.0)
    # the continuum symbol at Nyquist overstates it
    assert got < (math.pi / g.spacing) ** (2.0 - 2.0 * s)


def _failed_checks(traj):
    """The checks of standard_checks (bound CHECK_TOL = 1e-8) that fail,
    with their values."""
    failed = {}
    for name, check in standard_checks(traj).items():
        if not check.passed:
            failed[name] = check.value
    return failed


@pytest.mark.parametrize("s", [0.7, 0.9])
@pytest.mark.parametrize("m", [1.5, 1.8, 2.0, 3.0, 4.0])
def test_strong_pressure_runs_keep_norms_monotone(m, s):
    """The advective limit bounds the flux's characteristic speed at the
    largest density, so the sup, L2 and L4 norms and the second energy
    decrease and mass is conserved on every kind of initial data.  With
    max|J| alone as the speed, the sup norm rose by 1.5e-2 (m = 3,
    s = 0.7, compact), 3.6e-2 (m = 3, s = 0.9, mollified Dirac),
    4.0e-2 (m = 4, s = 0.9, compact) and 1.4e-2 (m = 1.5, s = 0.7,
    compact), and by 9.4e-3 (m = 1.8, s = 0.7, compact) once the
    stiffness limit no longer bound those steps."""
    g = make_grid(20.0, 512)
    p = ModelParams(m, s)
    snap_times = np.linspace(0.0, 2.0, 201)
    for u0 in (gaussian_bump(g, 1.0), compact_bump(g, 1.0), mollified_dirac(g, 1.0)):
        traj = simulate_density(u0, p, 2.0, snap_times)
        assert _failed_checks(traj) == {}


# L1 errors at t = 2 of the m = 2 Barenblatt solution started at t = 1
# (L = 15, mass 1) under the former step bound, which used max|J| as the
# speed and the continuum symbol at Nyquist; n = 1024, 2048, 4096
_FORMER_BOUND_L1_ERRORS = {0.5: (1.36e-2, 7.68e-3, 4.07e-3),
                           0.3: (8.51e-3, 4.61e-3, 2.38e-3)}


@pytest.mark.parametrize("s", [0.5, 0.3])
def test_barenblatt_m2_error_and_order(s):
    """The exact m = 2 solution gauges the scheme: its L1 error does not
    exceed the former bound's at any n, and it falls at order >= 0.8.
    Oracle: similarity.barenblatt_m2 sampled at t = 1 (rescaled to
    discrete mass 1), evolved for one time unit and compared at t = 2."""
    ns = (1024, 2048, 4096)
    errors = []
    for n in ns:
        g = make_grid(15.0, n)
        u0 = barenblatt_m2(g, 1.0, 1.0, s).values
        u0 = Field(g, u0 / (g.spacing * u0.sum()))
        u1 = simulate_density(u0, ModelParams(2.0, s), 1.0, [0.0, 1.0]).snapshots[-1]
        exact = barenblatt_m2(g, 1.0, 2.0, s).values
        errors.append(g.spacing * np.abs(u1.values - exact).sum())
    for err, former in zip(errors, _FORMER_BOUND_L1_ERRORS[s]):
        assert err <= former
    order = -np.polyfit(np.log(ns), np.log(errors), 1)[0]
    assert order >= 0.8
