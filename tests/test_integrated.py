"""Integrated-model scheme, primitives, and barrier machinery.

Oracles: np.gradient for the differentiation round trip, adaptive
quadrature of the smooth convolution for the bump's fractional tail, the
density solver for the duality check, and direct formula substitution for
the barrier exponents and parabola values.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from nlpme import integrated
from nlpme.evolve import ModelParams, simulate_density
from nlpme.grid import Field, FracOrder, make_grid
from nlpme.initial_data import compact_bump, gaussian_bump
from nlpme.operators import frac_laplacian
from nlpme.integrated import (
    BarrierBump,
    BarrierParams,
    PrimitiveField,
    RepairStats,
    _check_rows,
    _one_sided_slopes,
    _step_rows,
    barrier_exponents,
    barrier_subsolution,
    comparison_sweep,
    contact_check,
    differentiate_primitive,
    heaviside_primitive,
    infinite_speed_witness,
    integrate_density,
    integrated_cfl_dt,
    make_barrier_bump,
    parabola_supersolution,
    simulate_integrated,
    step_integrated,
    subsolution_inequality_check,
)


def test_integrate_zero_density():
    g = make_grid(10.0, 128)
    v = integrate_density(Field(g, np.zeros(g.n)))
    assert v.total_mass == 0.0
    assert np.all(v.values == 0.0)


def test_integrate_rejects_negative_density():
    g = make_grid(10.0, 128)
    vals = np.zeros(g.n)
    vals[5] = -1.0
    with pytest.raises(ValueError):
        integrate_density(Field(g, vals))


def test_narrow_bump_integrates_to_step():
    """A narrow unit-mass bump at 0 integrates to a near-Heaviside."""
    g = make_grid(10.0, 1024)
    u = compact_bump(g, mass=1.0, radius=0.2)
    v = integrate_density(u)
    assert np.isclose(v.total_mass, 1.0)
    left = g.nodes < -0.5
    right = g.nodes > 0.5
    assert np.max(np.abs(v.values[left])) < 1e-12
    assert np.max(np.abs(v.values[right] - 1.0)) < 1e-12


def test_differentiate_matches_gradient_oracle():
    """differentiate_primitive(integrate_density(u)) vs np.gradient of the
    cumulative: the same mathematical operation computed independently."""
    g = make_grid(10.0, 512)
    u = gaussian_bump(g, 1.0, width=0.9)
    v = integrate_density(u)
    ours = differentiate_primitive(v).values
    oracle = np.gradient(v.values, g.spacing)
    assert np.abs(ours - oracle).sum() * g.spacing < 1e-8
    # and the round trip recovers the density to truncation accuracy
    assert np.abs(ours - u.values).sum() * g.spacing < 1e-3


def test_differentiate_constant_and_ramp():
    from nlpme.integrated import PrimitiveField

    g = make_grid(10.0, 256)
    const = PrimitiveField(g, np.zeros(g.n), 0.0)  # flat primitive
    d = differentiate_primitive(const)
    assert np.max(np.abs(d.values)) < 1e-12

    # ramp of slope c on an interval differentiates back to c inside
    c = 0.35
    vals = np.clip(c * (g.nodes + 2.0), 0.0, c * 4.0)
    pf = PrimitiveField(g, vals, float(c * 4.0))
    mid = np.abs(g.nodes) < 1.0
    d = differentiate_primitive(pf)
    assert np.max(np.abs(d.values[mid] - c)) < 1e-10


def test_primitive_validation():
    g = make_grid(10.0, 128)
    bad = np.linspace(0.0, 1.0, g.n)
    bad[50] = bad[49] - 1e-3  # non-monotone
    from nlpme.integrated import PrimitiveField

    with pytest.raises(ValueError):
        PrimitiveField(g, bad, 1.0)
    with pytest.raises(ValueError):
        PrimitiveField(g, np.linspace(0.2, 1.0, g.n), 1.0)  # wrong left edge


def test_step_constant_primitive_unchanged():
    from nlpme.integrated import PrimitiveField

    g = make_grid(10.0, 128)
    v = PrimitiveField(g, np.zeros(g.n), 0.0)  # flat: slope factor vanishes
    out = step_integrated(v, 1.5, FracOrder(0.5), 1e-3)
    assert np.array_equal(out.values, v.values)
    # a step primitive is valid input and stays in range
    step = heaviside_primitive(g, 1.0, -2.0)
    out = step_integrated(step, 1.5, FracOrder(0.5), 1e-4)
    assert out.values.min() >= 0.0 and out.values.max() <= 1.0


def test_step_preserves_range_and_monotonicity():
    g = make_grid(10.0, 512)
    v = integrate_density(gaussian_bump(g, 2.0, width=0.8))
    stats = RepairStats()
    m, al = 1.5, FracOrder(0.5)
    for _ in range(50):
        dt = integrated_cfl_dt(v, m, al)
        v = step_integrated(v, m, al, dt, stats)
    assert np.min(np.diff(v.values)) >= -1e-12
    assert v.values.min() >= 0.0 and v.values.max() <= v.total_mass
    assert stats.monotonicity_mass + stats.clamp_mass < 1e-6 * v.total_mass


def test_ordered_pairs_stay_ordered():
    """Comparison principle at the discrete level, mass-matched pairs."""
    rng = np.random.default_rng(11)
    g = make_grid(10.0, 256)
    m, al = 1.5, FracOrder(0.5)
    worst = 0.0
    for _ in range(10):
        u = np.zeros(g.n)
        for _ in range(int(rng.integers(1, 4))):
            c, w, a = rng.uniform(-4, 4), rng.uniform(0.4, 1.2), rng.uniform(0.2, 1.0)
            u += a * np.exp(-0.5 * ((g.nodes - c) / w) ** 2)
        shift = rng.uniform(0.3, 1.2)
        ush = np.interp(g.nodes + shift, g.nodes, u, left=0.0, right=0.0)
        ush *= u.sum() / ush.sum()
        v = integrate_density(Field(g, u))
        V = integrate_density(Field(g, ush))
        V.values = np.maximum(V.values, v.values)
        for _ in range(100):
            dt = min(integrated_cfl_dt(v, m, al), integrated_cfl_dt(V, m, al))
            v = step_integrated(v, m, al, dt)
            V = step_integrated(V, m, al, dt)
            worst = max(worst, float(np.max(v.values - V.values)))
    assert worst < 1e-8


def _ordered_pairs(g, rng, count):
    """Mass-matched ordered pairs v <= V, drawn as the integrated pipeline
    draws them."""
    pairs = []
    for _ in range(count):
        u = np.zeros(g.n)
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(-0.4 * g.half_length, 0.4 * g.half_length)
            w, a = rng.uniform(0.4, 1.2), rng.uniform(0.2, 1.0)
            u += a * np.exp(-0.5 * ((g.nodes - c) / w) ** 2)
        shift = rng.uniform(0.2, 1.5)
        ush = np.interp(g.nodes + shift, g.nodes, u, left=0.0, right=0.0)
        ush *= u.sum() / ush.sum()
        v = integrate_density(Field(g, u))
        V = integrate_density(Field(g, ush))
        V.values = np.maximum(V.values, v.values)
        pairs.append((v, V))
    return pairs


def _reference_slopes(values, h):
    dminus = np.maximum((values - np.roll(values, 1)) / h, 0.0)
    dplus = np.maximum((np.roll(values, -1) - values) / h, 0.0)
    dminus[0] = dplus[0] = max(values[1] - values[0], 0.0) / h
    dminus[-1] = dplus[-1] = max(values[-1] - values[-2], 0.0) / h
    return dminus, dplus


def _reference_cfl(v, m, al):
    """One primitive's CFL step written out with np.roll and scalars."""
    h = v.grid.spacing
    dminus, dplus = _reference_slopes(v.values, h)
    gmax = float(np.max(np.maximum(dminus, dplus)) ** (m - 1.0))
    if gmax <= 0.0:
        return np.inf
    dt = 0.4 * h ** (2.0 * al.alpha) / gmax
    dt *= min(1.0, 2.0 / np.pi ** (2.0 * al.alpha))
    return float(dt)


def _reference_step(v, m, al, dt, stats):
    """One primitive's step written out on its own: ramp, frac_laplacian,
    upwind slope, neighbour clip, frozen band, cumulative max, clamp."""
    g, x = v.grid, v.values
    ramp = v.total_mass * (g.nodes + g.half_length) / (2.0 * g.half_length)
    A = frac_laplacian(Field(g, x - ramp), al).values
    dminus, dplus = _reference_slopes(x, g.spacing)
    new = x - dt * np.where(A > 0.0, dminus, dplus) ** (m - 1.0) * A
    new = np.clip(new, np.roll(x, 1), np.roll(x, -1))
    new[0], new[-1] = x[0], x[-1]
    frozen = np.abs(g.nodes) > 0.96 * g.half_length
    new[frozen] = x[frozen]
    mono = np.maximum.accumulate(new)
    clamped = np.clip(mono, 0.0, v.total_mass)
    stats.monotonicity_mass += float(g.spacing * np.sum(np.abs(mono - new)))
    stats.clamp_mass += float(g.spacing * np.sum(np.abs(clamped - mono)))
    return PrimitiveField(g, clamped, v.total_mass)


def _reference_sweep(pairs, m, al, n_steps):
    worst, lower, upper = 0.0, [], []
    for v, V in pairs:
        for _ in range(n_steps):
            dt = min(_reference_cfl(v, m, al), _reference_cfl(V, m, al))
            v = _reference_step(v, m, al, dt, RepairStats())
            V = _reference_step(V, m, al, dt, RepairStats())
            worst = max(worst, float(np.max(v.values - V.values)))
        lower.append(v.values)
        upper.append(V.values)
    return worst, np.stack(lower + upper)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("m", [1.5, 2.5])
@pytest.mark.parametrize("s", [0.2, 0.5])
def test_comparison_sweep_equals_hand_loop_bitwise(n, m, s):
    """The stacked sweep against stepping each pair alone, in the public
    1-D functions and in the written-out reference."""
    g = make_grid(10.0, n)
    al = FracOrder(1.0 - s)
    for seed in (1, 2, 3):
        pairs = _ordered_pairs(g, np.random.default_rng(seed), 4)
        worst, final = comparison_sweep(pairs, m, al, 25)

        ref_worst, lower, upper = 0.0, [], []
        for v, V in pairs:
            for _ in range(25):
                dt = min(integrated_cfl_dt(v, m, al), integrated_cfl_dt(V, m, al))
                v = step_integrated(v, m, al, dt)
                V = step_integrated(V, m, al, dt)
                ref_worst = max(ref_worst, float(np.max(v.values - V.values)))
            lower.append(v.values)
            upper.append(V.values)
        assert worst == ref_worst
        assert np.array_equal(final, np.stack(lower + upper))
        ref_worst, ref_final = _reference_sweep(pairs, m, al, 25)
        assert worst == ref_worst
        assert np.array_equal(final, ref_final)


def test_comparison_sweep_matches_reference_at_pipeline_size():
    """The integrated pipeline's grid and seeded pairs, a few steps: a
    per-row CFL power taken as an array ** 0.5 differs here by one ulp."""
    g = make_grid(15.0, 1024)
    al = FracOrder(0.5)
    pairs = _ordered_pairs(g, np.random.default_rng(1), 50)
    worst, final = comparison_sweep(pairs, 1.5, al, 3)
    ref_worst, ref_final = _reference_sweep(pairs, 1.5, al, 3)
    assert worst == ref_worst
    assert np.array_equal(final, ref_final)


def test_comparison_sweep_without_pairs():
    worst, final = comparison_sweep([], 1.5, FracOrder(0.5), 10)
    assert worst == 0.0 and final.size == 0


def test_stack_step_equals_separate_steps_bitwise():
    """Rows with their own masses and steps, including steps far above the
    CFL bound so that the monotone and range repairs engage; the repair
    totals accumulate over both calls."""
    g = make_grid(10.0, 256)
    m, al = 1.5, FracOrder(0.5)
    rows = [v for pair in _ordered_pairs(g, np.random.default_rng(1), 3)
            for v in pair]
    rows += [heaviside_primitive(g, 1.3, -1.0), PrimitiveField(g, np.zeros(g.n), 0.0)]
    dts = np.array([integrated_cfl_dt(v, m, al) for v in rows[:-1]] + [1e-3])
    X = np.stack([v.values for v in rows])
    M = np.array([v.total_mass for v in rows])
    stack_stats, row_stats, ref_stats = RepairStats(), RepairStats(), RepairStats()
    for factor in (40.0, 400.0, 1.0):
        out = _step_rows(X, _one_sided_slopes(X, g.spacing), M, g, m, al,
                         factor * dts, stack_stats)
        for b, (v, dt) in enumerate(zip(rows, dts)):
            one = step_integrated(v, m, al, factor * dt, row_stats)
            ref = _reference_step(v, m, al, factor * dt, ref_stats)
            assert np.array_equal(out[b], one.values)
            assert np.array_equal(out[b], ref.values)
        for stats in (row_stats, ref_stats):
            assert stack_stats.monotonicity_mass == stats.monotonicity_mass
            assert stack_stats.clamp_mass == stats.clamp_mass
    assert stack_stats.monotonicity_mass > 0.0  # the large step did repair


def test_scalar_bump_path_equals_array_path():
    g = make_grid(10.0, 64)
    bump = BarrierBump(field=Field(g, np.zeros(g.n)), center=2.3, radius=1.1,
                       height=0.7, cap=0.7, tail_coef=0.0,
                       probe_nodes=np.empty(0), probe_values=np.empty(0))
    lo, hi = bump.center - bump.radius, bump.center + bump.radius
    points = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo),
              np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
              bump.center, -5.0, 9.0, *np.linspace(lo, hi, 101)]
    for x in points:
        fast = bump(float(x))
        slow = bump(np.array([x]))
        assert fast == slow[0]
        assert fast == bump(np.asarray(x))  # 0-d array: the array path
    assert bump(float(bump.center)) == bump.height


def test_row_validator_rejects_what_primitive_field_rejects():
    g = make_grid(10.0, 128)
    good = np.linspace(0.0, 1.0, g.n)
    nonmono = good.copy()
    nonmono[50] = nonmono[49] - 1e-3
    below = good.copy()
    below[0] = -1e-3
    above = good.copy()
    above[-2:] = [1.0 + 1e-3, 1.0 + 1e-3]
    cases = [nonmono, below, above,
             np.linspace(0.2, 1.0, g.n),   # left boundary value
             np.linspace(0.0, 0.8, g.n)]   # right boundary value
    # tolerances scale with each row's own mass: the heavy first row's
    # band would admit every violation below
    heavy = 1e6 * good
    masses = np.array([1e6, 1.0, 1.0])
    _check_rows(np.stack([heavy, good, good]), masses)
    for bad in cases:
        with pytest.raises(ValueError) as field_error:
            PrimitiveField(g, bad, 1.0)
        with pytest.raises(ValueError) as rows_error:
            _check_rows(np.stack([heavy, bad, good]), masses)
        assert str(rows_error.value) == str(field_error.value)
    with pytest.raises(ValueError):
        PrimitiveField(g, good[:-1], 1.0)  # shape is checked by the field


def test_steps_are_deterministic():
    g = make_grid(10.0, 256)
    v1 = integrate_density(gaussian_bump(g, 1.0, width=0.8))
    v2 = integrate_density(gaussian_bump(g, 1.0, width=0.8))
    m, al = 1.5, FracOrder(0.5)
    for _ in range(20):
        dt = integrated_cfl_dt(v1, m, al)
        v1 = step_integrated(v1, m, al, dt)
        v2 = step_integrated(v2, m, al, dt)
    assert np.array_equal(v1.values, v2.values)


def _integrated_hand_loop(v0, m, al, t_end, snap_times):
    """simulate_integrated's schedule written with the public
    integrated_cfl_dt and step_integrated: the frame at t = 0 is v0, each
    later frame interpolates linearly inside the step that crosses it.

    Returns (times, frame values, stats, thetas of the crossed frames).
    """
    stats = RepairStats()
    v, t = v0, 0.0
    times, frames, thetas = [0.0], [v0.values], []
    pending = list(snap_times[1:])
    while t < t_end - 1e-14 and pending:
        dt = integrated_cfl_dt(v, m, al, cap=t_end - t)
        v_next = step_integrated(v, m, al, dt, stats)
        while pending and pending[0] <= t + dt + 1e-14:
            ts = pending.pop(0)
            theta = min(max((ts - t) / dt, 0.0), 1.0)
            times.append(ts)
            frames.append((1 - theta) * v.values + theta * v_next.values)
            thetas.append(theta)
        v, t = v_next, t + dt
    return times, frames, stats, thetas


@pytest.mark.parametrize("n, m, safety", [
    (128, 1.5, None), (128, 2.5, None), (512, 1.5, None), (512, 2.5, None),
    (512, 1.5, 4.0),  # ten times the safe step: the monotone repair engages
])
def test_simulate_integrated_equals_hand_loop_bitwise(monkeypatch, n, m, safety):
    """States, times and repair totals of simulate_integrated, bit for bit.

    Oracle: the same schedule stepped with the public one-primitive
    functions.  The inner frames fall strictly inside steps, so they are
    true interpolations.
    """
    if safety is not None:
        monkeypatch.setattr(integrated, "CFL_SAFETY", safety)
    g = make_grid(8.0, n)
    v0 = integrate_density(compact_bump(g, 1.0, radius=1.5))
    al = FracOrder(0.6)
    t_end = 0.2
    snap_times = [0.0, 0.0123, 0.0871, 0.151, t_end]
    times, states, stats = simulate_integrated(v0, m, al, t_end, snap_times)

    ref_times, frames, ref_stats, thetas = _integrated_hand_loop(
        v0, m, al, t_end, snap_times)
    assert all(0.0 < theta < 1.0 for theta in thetas[:-1])
    assert np.array_equal(times, ref_times)
    assert len(states) == len(frames)
    for state, frame in zip(states, frames):
        assert state.total_mass == v0.total_mass
        assert np.array_equal(state.values, frame)
    assert stats == ref_stats
    assert (stats.monotonicity_mass > 0.0) == (safety is not None)


@pytest.mark.parametrize("snap_times", [[0.0, 0.2], [-0.05, 0.1], []])
def test_simulate_integrated_rejects_bad_snapshot_times(snap_times):
    g = make_grid(8.0, 64)
    v0 = integrate_density(gaussian_bump(g, 1.0, width=0.8))
    with pytest.raises(ValueError):
        simulate_integrated(v0, 1.5, FracOrder(0.5), 0.1, snap_times)


def test_duality_with_density_solver():
    """d/dx of the evolved primitive tracks the density run within 5%."""
    g = make_grid(15.0, 1024)
    u0 = gaussian_bump(g, 1.0, width=0.8)
    p = ModelParams(1.5, 0.5)
    traj = simulate_density(u0, p, 0.5, snap_times=[0.0, 0.5])
    _, states, _ = simulate_integrated(integrate_density(u0), 1.5,
                                       FracOrder(0.5), 0.5,
                                       snap_times=[0.0, 0.5])
    du = differentiate_primitive(states[-1]).values
    uref = traj.snapshots[-1].values
    rel = np.abs(du - uref).sum() / np.abs(uref).sum()
    assert rel < 0.05


# --- barriers -------------------------------------------------------------


def test_barrier_exponents_substitution():
    gamma, b = barrier_exponents(1.5, 0.5)
    assert gamma == (1.5 + 1.0) / 0.5 == 5.0
    assert np.isclose(b, 1.0 / (0.5 + 1.0))
    with pytest.raises(ValueError):
        barrier_exponents(2.0, 0.5)


def test_make_barrier_bump_against_quadrature_oracle():
    """The measured tail matches adaptive quadrature of the convolution."""
    g = make_grid(15.0, 512)
    s, x0 = 0.5, -1.0
    bump = make_barrier_bump(g, x0, s)
    assert bump.cap == pytest.approx(1.0, abs=1e-6)
    assert bump.tail_coef > 0.0
    from nlpme.operators import frac_constant

    C = frac_constant(s)
    a, b = bump.center - bump.radius, bump.center + bump.radius
    for xi, li in zip(bump.probe_nodes[::50], bump.probe_values[::50]):
        oracle, _ = quad(lambda y: bump(y) * abs(xi - y) ** (-1 - 2 * s), a, b)
        assert np.isclose(li, -C * oracle, rtol=1e-8)
        assert li < 0.0


def test_zero_bump_fails_verification():
    g = make_grid(15.0, 256)
    with pytest.raises(ValueError):
        make_barrier_bump(g, -1.0, 0.5, height=0.0)


def test_barrier_formula_and_monotonicity_in_eps():
    g = make_grid(15.0, 256)
    bump = make_barrier_bump(g, -1.0, 0.5)
    gamma, b = barrier_exponents(1.5, 0.5)

    def params(eps_b):
        xi = (-1.0 + eps_b ** (-1.0 / gamma)) * 1.001
        return BarrierParams(x0=-1.0, xi=xi, eps_b=eps_b, tau=1.0,
                             cap=bump.cap, tail_coef=bump.tail_coef,
                             gamma=gamma, b=b)

    bp = params(1e-6)
    i0 = int(np.argmin(np.abs(g.nodes - (-1.0))))
    phi0 = barrier_subsolution(bp, bump.field, 0.0)
    # with xi > x0 + eps^(-1/gamma) the barrier starts below the step height
    assert phi0.values[i0] < 1.0
    # pointwise nonincreasing in eps_b at fixed xi and tau
    big = BarrierParams(x0=-1.0, xi=bp.xi, eps_b=2e-6, tau=1.0, cap=bump.cap,
                        tail_coef=bump.tail_coef, gamma=gamma, b=b)
    lo = barrier_subsolution(big, bump.field, 0.3)
    hi = barrier_subsolution(bp, bump.field, 0.3)
    assert np.all(lo.values <= hi.values + 1e-15)


def test_subsolution_inequality_holds_for_calibrated_barrier():
    g = make_grid(15.0, 512)
    s, m = 0.5, 1.5
    alpha = 1.0 - s
    gamma, b = barrier_exponents(m, alpha)
    bump = make_barrier_bump(g, -1.0, s, height=0.5)
    eps_b = 1e-8
    xi = (-1.0 + eps_b ** (-1.0 / gamma)) * 1.001
    bp = BarrierParams(x0=-1.0, xi=xi, eps_b=eps_b, tau=1.0, cap=bump.cap,
                       tail_coef=bump.tail_coef, gamma=gamma, b=b)
    out = subsolution_inequality_check(bp, bump, m, alpha)
    assert out["passed"]
    assert out["max_lhs"] <= 0.0


def test_parabola_values_and_support():
    g = make_grid(8.0, 256)  # h = 1/16 so that 2 - h is a grid node
    U0 = parabola_supersolution(1.0, 2.0, 0.0, g)
    outside = np.abs(g.nodes) > 2.0
    assert np.all(U0.values[outside] == 0.0)
    h = g.spacing
    i = int(np.argmin(np.abs(g.nodes - (2.0 - h))))
    assert np.isclose(g.nodes[i], 2.0 - h, atol=1e-12)
    assert np.isclose(U0.values[i], h**2, rtol=1e-10)
    # support radius at time t is b + C t
    Ut = parabola_supersolution(0.7, 2.0, 1.0, g)
    radius = np.max(np.abs(g.nodes[Ut.values > 0]))
    assert abs(radius - 2.7) <= h


def test_contact_check_trivials():
    g = make_grid(10.0, 256)
    U = parabola_supersolution(1.0, 2.0, 0.5, g)
    zero = Field(g, np.zeros(g.n))
    rep = contact_check(zero, U)
    assert rep.strict
    assert rep.margin == 0.0  # outside the parabola's support both vanish
    assert rep.margin_interior > 0.0
    same = contact_check(U, U)
    assert same.margin == 0.0 and not same.strict


def test_parabola_dominates_finite_speed_run():
    """An m=2 run stays strictly under a calibrated moving parabola."""
    g = make_grid(10.0, 512)
    u0 = compact_bump(g, mass=1.0, radius=0.75)
    traj = simulate_density(u0, ModelParams(2.0, 0.25), 1.0,
                            snap_times=np.linspace(0.0, 1.0, 11))
    height = max(float(np.max(s.values)) for s in traj.snapshots)
    worst = np.inf
    for t, snap in zip(traj.times, traj.snapshots):
        U = parabola_supersolution(1.5, 1.5, t, g)
        scaled = snap.with_values(snap.values / (2.0 * height))
        worst = min(worst, contact_check(scaled, U).margin_interior)
    assert worst > 0.0


def test_infinite_speed_witness_full_chain():
    g = make_grid(15.0, 1024)
    u0 = compact_bump(g, mass=2.0, radius=1.25, center=-2.25)
    rep = infinite_speed_witness(integrate_density(u0), 1.5, 0.5, -1.0,
                                 t_probe=0.1)
    assert rep.passed
    assert rep.inequality["max_lhs"] <= 0.0
    assert rep.v_at_probe > 0.0
    assert 0.0 < rep.barrier_at_probe <= rep.v_at_probe
    # probe strictly left of the initial support
    left_edge = g.nodes[np.argmax(u0.values > 0)]
    assert rep.probe_x < left_edge


@pytest.mark.parametrize("mass, x0", [(2.0, -11.9), (1e6, -1.0)])
def test_witness_calibration_keeps_xi_positive(mass, x0):
    """eps_b starts below |x0|^(-gamma), so xi > 0 for every x0 whose bump
    fits and however large v is at the probe."""
    g = make_grid(15.0, 256)
    u0 = compact_bump(g, mass=mass, radius=1.25, center=-2.25)
    rep = infinite_speed_witness(integrate_density(u0), 1.5, 0.5, x0)
    assert rep.params.xi > 0.0
    assert rep.params.eps_b < abs(x0) ** -rep.params.gamma
