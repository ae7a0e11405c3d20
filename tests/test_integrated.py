"""Integrated-model scheme, primitives, and barrier machinery.

Oracles: np.gradient for the differentiation round trip, tight adaptive
quadrature for the fixed-rule whole-line fractional Laplacians (the bump's
smooth convolution and the power profile's split second difference), the
density solver for the duality check, and direct formula substitution for
the barrier exponents and parabola values.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlpme import integrated
from nlpme.evolve import ModelParams, simulate_density
from nlpme.grid import Field, FracOrder, make_grid
from nlpme.initial_data import compact_bump, gaussian_bump
from nlpme.operators import frac_constant, frac_laplacian, line_frac_laplacian
from nlpme.operators import line_frac_laplacian_outside
from nlpme.integrated import (
    BarrierBump,
    BarrierParams,
    PrimitiveField,
    RepairStats,
    _RowWorkspace,
    _cfl_rows,
    _check_barrier_range,
    _check_rows,
    _step_rows,
    barrier_exponents,
    barrier_subsolution,
    comparison_sweep,
    contact_check,
    differentiate_primitive,
    infinite_speed_witness,
    integrate_density,
    integrated_cfl_dt,
    make_barrier_bump,
    parabola_supersolution,
    simulate_integrated,
    step_integrated,
    subsolution_inequality_check,
)


def heaviside_primitive(grid, mass: float, x0: float) -> PrimitiveField:
    """Step primitive: 0 left of x0, `mass` to the right of it."""
    vals = np.where(grid.nodes > x0, float(mass), 0.0)
    return PrimitiveField(grid, vals, float(mass))


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
    # NaN passes every comparison of the monotonicity and range checks
    for value in (math.nan, math.inf):
        v = np.linspace(0.0, 1.0, g.n)
        v[50] = value
        with pytest.raises(ValueError, match="finite"):
            PrimitiveField(g, v, 1.0)
    with pytest.raises(ValueError, match="finite"):
        PrimitiveField(g, np.linspace(0.0, 1.0, g.n), math.nan)


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
    """Each pair stepped alone by the references; returns (worst, final
    stack, every pair step's dt)."""
    worst, lower, upper, dts = 0.0, [], [], []
    for v, V in pairs:
        for _ in range(n_steps):
            dt = min(_reference_cfl(v, m, al), _reference_cfl(V, m, al))
            v = _reference_step(v, m, al, dt, RepairStats())
            V = _reference_step(V, m, al, dt, RepairStats())
            worst = max(worst, float(np.max(v.values - V.values)))
            dts.append(dt)
        lower.append(v.values)
        upper.append(V.values)
    return worst, np.stack(lower + upper), dts


def _bits(a):
    """The raw bit patterns, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.uint64)


def _assert_sweep_stats(stats, n_steps, dts):
    assert stats.steps == n_steps
    assert _bits(stats.dt_min) == _bits(min(dts))
    assert _bits(stats.dt_median) == _bits(np.median(dts))
    assert _bits(stats.dt_max) == _bits(max(dts))


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
        worst, final, stats = comparison_sweep(pairs, m, al, 25)

        ref_worst, lower, upper = 0.0, [], []
        for v, V in pairs:
            for _ in range(25):
                dt = min(integrated_cfl_dt(v, m, al), integrated_cfl_dt(V, m, al))
                v = step_integrated(v, m, al, dt)
                V = step_integrated(V, m, al, dt)
                ref_worst = max(ref_worst, float(np.max(v.values - V.values)))
            lower.append(v.values)
            upper.append(V.values)
        assert _bits(worst) == _bits(ref_worst)
        assert np.array_equal(_bits(final), _bits(np.stack(lower + upper)))
        ref_worst, ref_final, ref_dts = _reference_sweep(pairs, m, al, 25)
        assert _bits(worst) == _bits(ref_worst)
        assert np.array_equal(_bits(final), _bits(ref_final))
        _assert_sweep_stats(stats, 25, ref_dts)
        assert 0 <= stats.repair_steps <= 25


def test_comparison_sweep_matches_reference_at_pipeline_size():
    """The integrated pipeline's grid and seeded pairs, a few steps: a
    per-row CFL power taken as an array ** 0.5 differs here by one ulp."""
    g = make_grid(15.0, 1024)
    al = FracOrder(0.5)
    pairs = _ordered_pairs(g, np.random.default_rng(1), 50)
    worst, final, stats = comparison_sweep(pairs, 1.5, al, 3)
    ref_worst, ref_final, ref_dts = _reference_sweep(pairs, 1.5, al, 3)
    assert _bits(worst) == _bits(ref_worst)
    assert np.array_equal(_bits(final), _bits(ref_final))
    _assert_sweep_stats(stats, 3, ref_dts)


def test_comparison_sweep_without_pairs():
    worst, final, stats = comparison_sweep([], 1.5, FracOrder(0.5), 10)
    assert worst == 0.0 and final.size == 0
    assert stats.steps == 0 and stats.repair_steps == 0
    assert math.isnan(stats.dt_min) and math.isnan(stats.dt_max)


def test_comparison_sweep_pair_with_no_speed_stays_unchanged():
    """A pair whose slope power is 0 has an infinite step bound: it steps
    by 0, without a warning, and stays bitwise as it is, while the other
    pairs are bitwise what they are swept without it and the dt record
    spans theirs alone (nan when no pair moves)."""
    g = make_grid(10.0, 64)
    al = FracOrder(0.5)
    moving = _ordered_pairs(g, np.random.default_rng(1), 2)
    still = PrimitiveField(g, np.zeros(g.n), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worst, final, stats = comparison_sweep(
            [moving[0], (still, still), moving[1]], 1.5, al, 10)
        ref_worst, ref_final, ref_stats = comparison_sweep(moving, 1.5, al, 10)
        _, _, none_moved = comparison_sweep([(still, still)], 1.5, al, 10)
    assert _bits(worst) == _bits(ref_worst)
    assert np.array_equal(_bits(final[[1, 4]]), _bits(np.zeros((2, g.n))))
    assert np.array_equal(_bits(final[[0, 2, 3, 5]]), _bits(ref_final))
    assert stats == ref_stats
    assert math.isnan(none_moved.dt_min) and math.isnan(none_moved.dt_max)


def _stack_step(rows, m, al, dts, stats):
    """One kernel step of the stacked rows; also checks that the
    workspace is left holding the new stack's differences."""
    X = np.stack([v.values for v in rows])
    ws = _RowWorkspace(X, np.array([v.total_mass for v in rows]), rows[0].grid)
    ws.face_slopes()
    out, repaired = _step_rows(X, ws, m, al, dts, stats)
    assert np.array_equal(_bits(ws.F[:, :-1]), _bits(np.diff(out, axis=-1)))
    assert np.array_equal(_bits(ws.F[:, -1]), _bits(ws.F[:, -2]))
    return out, repaired


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
    stack_stats, row_stats, ref_stats = RepairStats(), RepairStats(), RepairStats()
    for factor in (40.0, 400.0, 1.0):
        out, repaired = _stack_step(rows, m, al, factor * dts, stack_stats)
        assert repaired == (factor > 1.0)
        for b, (v, dt) in enumerate(zip(rows, dts)):
            one = step_integrated(v, m, al, factor * dt, row_stats)
            ref = _reference_step(v, m, al, factor * dt, ref_stats)
            assert np.array_equal(_bits(out[b]), _bits(one.values))
            assert np.array_equal(_bits(out[b]), _bits(ref.values))
        for stats in (row_stats, ref_stats):
            assert _bits(stack_stats.monotonicity_mass) == _bits(stats.monotonicity_mass)
            assert _bits(stack_stats.clamp_mass) == _bits(stats.clamp_mass)
    assert stack_stats.monotonicity_mass > 0.0  # the large step did repair


ROW_KINDS = ("gaussian", "compact", "heaviside", "random")


def _row(g, kind, rng, signed_zeros, edge):
    """A primitive of one kind with random mass and shape.  With
    `signed_zeros` each of its zero entries gets a random sign; an `edge`
    of "low" puts its left value, "high" its right value, just outside
    [0, M], inside the validation band, so that the clamp engages."""
    mass = rng.uniform(0.1, 3.0)
    center = rng.uniform(-0.3, 0.3) * g.half_length
    if kind == "heaviside":
        vals = heaviside_primitive(g, mass, center).values
    else:
        if kind == "gaussian":
            u = gaussian_bump(g, mass, rng.uniform(0.2, 1.5), center).values
        elif kind == "compact":
            u = compact_bump(g, mass, rng.uniform(0.3, 2.0), center).values
        else:  # flat runs between random rises
            u = rng.random(g.n) * (rng.random(g.n) < 0.5)
        # the cumulative trapezoid, its last value the row's mass
        vals = np.concatenate([[0.0], np.cumsum(u[1:] + u[:-1])])
        vals *= mass / max(vals[-1], 1e-300)
    if signed_zeros:
        zeros = vals == 0.0
        vals[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    if edge == "low":
        vals[0] = -1e-9
    mass = float(vals[-1]) * (1.0 - 1e-9 if edge == "high" else 1.0)
    return PrimitiveField(g, vals, mass)


@settings(max_examples=60, deadline=None)
@given(m=st.floats(1.05, 3.5), s=st.floats(0.05, 0.95),
       n=st.sampled_from([32, 64, 128]),
       kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
       signed_zeros=st.booleans(), edge=st.sampled_from(["exact", "low", "high"]),
       seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([1.0, 40.0, 400.0]))
@example(m=2.0, s=0.5, n=64, kinds=["heaviside", "random", "compact"],
         signed_zeros=True, edge="exact", seed=0, factor=400.0)
@example(m=1.5, s=0.05, n=128, kinds=list(ROW_KINDS), signed_zeros=True,
         edge="exact", seed=1, factor=40.0)
@example(m=3.0, s=0.95, n=32, kinds=["random", "random"], signed_zeros=False,
         edge="exact", seed=2, factor=1.0)
@example(m=1.5, s=0.5, n=64, kinds=["gaussian", "compact"], signed_zeros=False,
         edge="low", seed=3, factor=1.0)
@example(m=2.5, s=0.3, n=64, kinds=["compact", "heaviside"], signed_zeros=True,
         edge="high", seed=4, factor=1.0)
def test_row_kernel_equals_roll_references(m, s, n, kinds, signed_zeros, edge, seed,
                                           factor):
    """The workspace kernel against the np.roll references, bit for bit:
    each row's CFL step, the rows and repair totals of one step at 1, 40
    and 400 times it (where the cumulative max and clamp engage), and the
    worst gap, final stack and dt range of a short sweep over the rows
    paired up.  Zero entries may carry either sign, and boundary values may
    sit just outside [0, M]."""
    g = make_grid(8.0, n)
    al = FracOrder(1.0 - s)
    rng = np.random.default_rng(seed)
    rows = [_row(g, kind, rng, signed_zeros, edge) for kind in kinds]

    X = np.stack([v.values for v in rows])
    ws = _RowWorkspace(X, np.array([v.total_mass for v in rows]), g)
    dts = _cfl_rows(ws.face_slopes(), g.spacing, m, al)
    for v, dt in zip(rows, dts):
        assert _bits(dt) == _bits(_reference_cfl(v, m, al))

    stats, ref_stats = RepairStats(), RepairStats()
    out, _ = _stack_step(rows, m, al, factor * dts, stats)
    for v, dt, row in zip(rows, dts, out):
        ref = _reference_step(v, m, al, factor * dt, ref_stats)
        assert np.array_equal(_bits(row), _bits(ref.values))
    assert _bits(stats.monotonicity_mass) == _bits(ref_stats.monotonicity_mass)
    assert _bits(stats.clamp_mass) == _bits(ref_stats.clamp_mass)

    P = len(rows) // 2
    if P:
        pairs = list(zip(rows[:P], rows[P:2 * P]))
        worst, final, sweep = comparison_sweep(pairs, m, al, 3)
        ref_worst, ref_final, ref_dts = _reference_sweep(pairs, m, al, 3)
        assert _bits(worst) == _bits(ref_worst)
        assert np.array_equal(_bits(final), _bits(ref_final))
        _assert_sweep_stats(sweep, 3, ref_dts)


def test_sweep_step_allocates_no_stack_array(monkeypatch):
    """After a warm-up step, one step of the sweep at the pipeline's
    (100, 1024) stack allocates no array of the stack's size, in the
    spectral operator or out of it: the FFT writes its spectrum and result
    into the workspace.  Outside the operator call the traced peak stays
    within a margin of one numpy iterator buffer of doubles (64 KB, which
    the broadcast of dt over the rows takes) plus 32 KB, so a reintroduced
    full-stack temporary (800 KB) or boolean mask (100 KB) fails.  The
    operator call stays within one iterator buffer of complex doubles
    (128 KB, which the real symbol's cast and broadcast over the rows
    take) plus 32 KB, so a fresh spectrum (821 KB) or result (800 KB)
    fails.  The window runs from the second step's CFL bound to the
    third's: one whole step, its validation and its gap included."""
    g = make_grid(15.0, 1024)
    pairs = _ordered_pairs(g, np.random.default_rng(1), 50)
    cfl_rows, frac_laplacian_rows = integrated._cfl_rows, integrated._frac_laplacian_rows
    calls, outside, inside, results = [], [], [], []

    def cfl_spy(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            tracemalloc.start()
        elif len(calls) == 3:
            outside.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return cfl_rows(*args, **kwargs)

    def operator_spy(*args, **kwargs):
        if tracemalloc.is_tracing():
            outside.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
        A = frac_laplacian_rows(*args, **kwargs)
        if tracemalloc.is_tracing():
            inside.append(tracemalloc.get_traced_memory()[1] - before)
            results.append(A is kwargs.get("out"))
            tracemalloc.reset_peak()
        return A

    monkeypatch.setattr(integrated, "_cfl_rows", cfl_spy)
    monkeypatch.setattr(integrated, "_frac_laplacian_rows", operator_spy)
    try:
        comparison_sweep(pairs, 1.5, FracOrder(0.5), 3)
    finally:
        tracemalloc.stop()
    margin = 8 * np.getbufsize() + 32 * 1024
    assert len(outside) == 2 and max(outside) < margin
    assert len(inside) == 1 and inside[0] < 16 * np.getbufsize() + 32 * 1024
    assert results == [True]  # the result is the buffer the step handed in


def test_scalar_bump_path_equals_array_path():
    g = make_grid(10.0, 64)
    bump = BarrierBump(field=Field(g, np.zeros(g.n)), center=2.3, radius=1.1,
                       height=0.7, tail_coef=0.0,
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
    assert np.array_equal(_bits(times), _bits(ref_times))
    assert len(states) == len(frames)
    for state, frame in zip(states, frames):
        assert state.total_mass == v0.total_mass
        assert np.array_equal(_bits(state.values), _bits(frame))
    assert _bits(stats.monotonicity_mass) == _bits(ref_stats.monotonicity_mass)
    assert _bits(stats.clamp_mass) == _bits(ref_stats.clamp_mass)
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
    assert bump.height == pytest.approx(1.0, abs=1e-6)
    assert bump.tail_coef > 0.0
    C = frac_constant(s)
    a, b = bump.center - bump.radius, bump.center + bump.radius
    for xi, li in zip(bump.probe_nodes[::50], bump.probe_values[::50]):
        oracle, _ = quad(lambda y: bump(y) * abs(xi - y) ** (-1 - 2 * s), a, b)
        assert np.isclose(li, -C * oracle, rtol=1e-8)
        assert li < 0.0


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_line_frac_laplacian_outside_against_tight_quadrature(s):
    """The 128-node rule matches quad at epsrel 1e-13 on the bench bump."""
    g = make_grid(15.0, 1024)
    bump = make_barrier_bump(g, -1.0, s)
    a, b = bump.center - bump.radius, bump.center + bump.radius
    probes = bump.probe_nodes[::25]
    got = line_frac_laplacian_outside(bump, (a, b), probes, s)
    for x, value in zip(probes, got):
        oracle, _ = quad(lambda y: bump(y) * abs(x - y) ** (-1 - 2 * s), a, b,
                         epsabs=0.0, epsrel=1e-13, limit=200)
        assert value == pytest.approx(-frac_constant(s) * oracle, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError, match="inside the support"):
        line_frac_laplacian_outside(bump, (a, b), np.array([-5.0, a + 0.5]), s)


def _power_profile_oracle(x, xi, gam, alpha):
    """Tight quad of (-Delta)^alpha (|y| + xi)^(-gam) at x < 0.

    Split at c = min(1, |x|) and at the kink z = |x|.  On [0, c] the second
    difference over z^2 is summed from its Taylor series in u = z/(|x| + xi),
    free of the cancellation that the direct difference suffers near z = 0,
    and quad's algebraic weight supplies z^(1-2 alpha); on [|x|, inf) only
    the decaying terms f(x +- z) go through quad.
    """
    f = lambda y: (abs(y) + xi) ** (-gam)
    a, big_a = abs(x), abs(x) + xi
    c = min(1.0, a)

    def over_z2(z):
        u2, k = (z / big_a) ** 2, 1
        term, total = gam * (gam + 1.0) / 2.0, 0.0
        while abs(term) > 1e-18 * abs(total) or total == 0.0:
            total += term
            term *= (gam + 2 * k) * (gam + 2 * k + 1) / ((2 * k + 1) * (2 * k + 2)) * u2
            k += 1
        return -2.0 * big_a ** (-gam - 2.0) * total

    def direct(z):
        return (2.0 * f(x) - f(x + z) - f(x - z)) * z ** (-1.0 - 2.0 * alpha)

    tight = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    total = quad(over_z2, 0.0, c, weight="alg", wvar=(1.0 - 2.0 * alpha, 0.0), **tight)[0]
    if a > c:
        total += quad(direct, c, a, **tight)[0]
    # beyond the kink the constant 2 f(x) integrates in closed form
    total += 2.0 * f(x) * a ** (-2.0 * alpha) / (2.0 * alpha)
    total -= quad(lambda z: (f(x + z) + f(x - z)) * z ** (-1.0 - 2.0 * alpha),
                  a, np.inf, **tight)[0]
    return frac_constant(alpha) * total


# (alpha, gamma, xi): the barrier exponent gamma of m = 1.2, 1.5, 1.8 at each
# alpha with a moderate xi, then the bench barrier-check's own parameters
LINE_CASES = [(alpha, barrier_exponents(m, alpha)[0], 3.0)
              for alpha in (0.1, 0.5, 0.9) for m in (1.2, 1.5, 1.8)]
LINE_CASES.append((0.5, 5.0, 41.674348743254228))


@pytest.mark.parametrize("alpha, gam, xi", LINE_CASES)
def test_line_frac_laplacian_against_split_quadrature(alpha, gam, xi):
    """Fixed rules match the tight split quad to 1e-7 of the largest value."""
    probes = np.array([-14.9, -9.0, -3.57, -1.5, -1.0, -0.4])
    got = line_frac_laplacian(lambda y: (np.abs(y) + xi) ** (-gam), probes, alpha)
    want = np.array([_power_profile_oracle(x, xi, gam, alpha) for x in probes])
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


def test_line_frac_laplacian_rejects_the_kink_point():
    with pytest.raises(ValueError, match="kink"):
        line_frac_laplacian(np.abs, np.array([-1.0, 0.0]), 0.5)


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
                             cap=bump.height, tail_coef=bump.tail_coef,
                             gamma=gamma, b=b)

    bp = params(1e-6)
    i0 = int(np.argmin(np.abs(g.nodes - (-1.0))))
    phi0 = barrier_subsolution(bp, bump.field, 0.0)
    # with xi > x0 + eps^(-1/gamma) the barrier starts below the step height
    assert phi0.values[i0] < 1.0
    # pointwise nonincreasing in eps_b at fixed xi and tau
    big = BarrierParams(x0=-1.0, xi=bp.xi, eps_b=2e-6, tau=1.0, cap=bump.height,
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
    bp = BarrierParams(x0=-1.0, xi=xi, eps_b=eps_b, tau=1.0, cap=bump.height,
                       tail_coef=bump.tail_coef, gamma=gamma, b=b)
    out = subsolution_inequality_check(bp, bump, m, alpha)
    assert out.passed
    assert out.value <= 0.0


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
    assert list(rep.checks) == ["bump_tail_coefficient", "subsolution_inequality",
                                "initial_domination", "right_domination",
                                "positivity_at_probe"]
    assert all(c.passed for c in rep.checks.values())
    assert rep.passed == all(c.passed for c in rep.checks.values())
    assert rep.passed
    assert rep.checks["subsolution_inequality"].value <= 0.0
    assert rep.v_at_probe > 0.0
    assert 0.0 < rep.barrier_at_probe <= rep.v_at_probe
    # probe strictly left of the initial support
    left_edge = g.nodes[np.argmax(u0.values > 0)]
    assert rep.probe_x < left_edge


def test_witness_measures_its_bump_tail_at_the_integrated_order():
    """The barrier is a subsolution of the integrated equation, whose order
    is alpha = 1 - s, so the witness verifies its bump at alpha: at s = 0.3
    the tail constant is that of order 0.7, not of order 0.3."""
    g = make_grid(15.0, 1024)
    u0 = compact_bump(g, mass=2.0, radius=1.25, center=-2.25)
    rep = infinite_speed_witness(integrate_density(u0), 1.5, 0.3, -1.0,
                                 t_probe=0.1)
    bump = make_barrier_bump(g, -1.0, 0.7, height=rep.params.cap)
    assert rep.params.tail_coef == bump.tail_coef
    assert rep.checks["bump_tail_coefficient"].value == bump.tail_coef
    assert make_barrier_bump(g, -1.0, 0.3, height=rep.params.cap).tail_coef \
        != pytest.approx(bump.tail_coef, rel=0.1)


@pytest.mark.parametrize("mass, x0", [(2.0, -11.9), (1e6, -1.0)])
def test_witness_calibration_keeps_xi_positive(mass, x0):
    """eps_b starts below |x0|^(-gamma), so xi > 0 for every x0 whose bump
    fits and however large v is at the probe."""
    g = make_grid(15.0, 256)
    u0 = compact_bump(g, mass=mass, radius=1.25, center=-2.25)
    rep = infinite_speed_witness(integrate_density(u0), 1.5, 0.5, x0)
    assert rep.params.xi > 0.0
    assert rep.params.eps_b < abs(x0) ** -rep.params.gamma


@pytest.mark.parametrize("s, x0", [(0.5, -1.0), (0.01, -0.05), (0.99, -11.9)])
def test_witness_runs_in_floats_up_to_the_range_check(s, x0):
    """gamma grows without bound as m -> 2.  At the largest m that
    _check_barrier_range admits the witness forms no overflow (warnings
    are errors here); just above it the witness refuses to start."""
    lo, hi = 1.5, 2.0 - 1e-9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            _check_barrier_range(mid, s, x0, 0.1)
            lo = mid
        except ValueError:
            hi = mid
    g = make_grid(15.0, 256)
    v0 = integrate_density(compact_bump(g, mass=2.0, radius=1.25, center=-2.25))
    rep = infinite_speed_witness(v0, lo, s, x0, t_probe=0.1)
    assert np.isfinite(rep.checks["subsolution_inequality"].value)
    assert np.isfinite(rep.barrier_at_probe)
    with pytest.raises(ValueError, match="float range"):
        infinite_speed_witness(v0, hi, s, x0, t_probe=0.1)
