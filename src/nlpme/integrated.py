"""The integrated one-dimensional model and its barrier constructions.

For monotone primitives v(x) = integral of the density up to x, the flow

    v_t = -|v_x|^(m-1) (-Delta)^alpha v,     alpha = 1 - s,

is advanced by a monotone explicit scheme.  The primitive runs from 0 to
the total mass M across the box, so it is not periodic; the linear ramp
matching those boundary values is subtracted before the spectral operator
is applied (the whole-line fractional Laplacian of an affine function is
zero) and boundary cells are frozen so the wrap region never feeds back
into measurements.

The scheme is written once, over rows: its CFL bound, its step and the
validation of primitives act on a C-contiguous (B, n) stack with per-row
masses and steps, and the public one-primitive functions are the B = 1
case.  The comparison sweep (ordered pairs v <= V stepped side by side)
is then one batched call, :func:`comparison_sweep`, whose rows are bitwise
what stepping each pair alone gives.  An adaptive run of one primitive,
:func:`simulate_integrated`, steps a B = 1 stack through the density
solver's time-loop driver, which also fills its snapshot frames.

The barrier side implements the comparison machinery used to witness
infinite propagation speed for m < 2: a decaying power profile plus a
compactly supported bump whose fractional Laplacian has a strictly
negative power tail on the far left.  The subsolution inequality for the
combined barrier is checked numerically rather than assumed, with fixed
Gauss rules on the whole real line (:func:`line_frac_laplacian` and
:func:`line_frac_laplacian_outside`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .evolve import CFL_SAFETY, SimulationUnstable, _march, _roll1
from .grid import Field, FracOrder, Grid1D
from .operators import (
    _frac_laplacian_rows,
    line_frac_laplacian,
    line_frac_laplacian_outside,
)

__all__ = [
    "PrimitiveField",
    "BarrierParams",
    "BarrierBump",
    "integrate_density",
    "differentiate_primitive",
    "heaviside_primitive",
    "integrated_cfl_dt",
    "step_integrated",
    "comparison_sweep",
    "simulate_integrated",
    "make_barrier_bump",
    "barrier_subsolution",
    "barrier_exponents",
    "subsolution_inequality_check",
    "parabola_supersolution",
    "contact_check",
    "ContactReport",
    "infinite_speed_witness",
    "WitnessReport",
]

MONOTONE_TOL = 1e-12
BOUNDARY_TOL = 1e-6
FROZEN_FRACTION = 0.96  # cells with |x| > this fraction of L never move


def _check_rows(X: np.ndarray, M: np.ndarray) -> None:
    """Validate a (B, n) stack of primitives, row b running from 0 to M[b].

    Every row must be nondecreasing within MONOTONE_TOL, stay inside
    [0, M] and match the boundary values 0 and M, each up to a tolerance
    relative to max(M, 1).
    """
    scale = np.maximum(M, 1.0)
    if np.any(np.min(np.diff(X, axis=-1), axis=-1) < -MONOTONE_TOL * scale):
        raise ValueError("primitive is not monotone within tolerance")
    band = BOUNDARY_TOL * scale
    if np.any(X.min(axis=-1) < -band) or np.any(X.max(axis=-1) > M + band):
        raise ValueError("primitive leaves [0, M]")
    if np.any(np.abs(X[:, 0]) > band) or np.any(np.abs(X[:, -1] - M) > band):
        raise ValueError("primitive does not match its boundary values 0 and M")


@dataclass
class PrimitiveField:
    """Nondecreasing primitive running from ~0 at -L to ~M at +L."""

    grid: Grid1D
    values: np.ndarray
    total_mass: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError("values do not match grid size")
        _check_rows(v[None, :], np.array([self.total_mass], dtype=float))
        self.values = v

    def copy(self) -> "PrimitiveField":
        return PrimitiveField(self.grid, self.values.copy(), self.total_mass)


def integrate_density(u: Field) -> PrimitiveField:
    """Cumulative trapezoid of a nonnegative density from the left edge."""
    if np.any(u.values < -1e-13):
        raise ValueError("integrate_density requires a nonnegative density")
    v = np.asarray(u.values, dtype=float)
    h = u.grid.spacing
    cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (v[1:] + v[:-1]))])
    total = float(h * v.sum())
    # snap the cumulative into [0, total]; the wrap cell carries the rest
    cum = np.clip(cum, 0.0, total)
    return PrimitiveField(u.grid, cum, total)


def differentiate_primitive(v: PrimitiveField) -> Field:
    """Centered finite difference of the primitive (one-sided at the ends)."""
    dv = np.gradient(v.values, v.grid.spacing)
    if dv.min() < -1e-9 * max(v.total_mass, 1.0):
        raise ValueError("primitive is not monotone enough to differentiate")
    return Field(v.grid, np.maximum(dv, 0.0))


def heaviside_primitive(grid: Grid1D, mass: float, x0: float) -> PrimitiveField:
    """Step primitive: 0 left of x0, `mass` to the right of it."""
    vals = np.where(grid.nodes > x0, float(mass), 0.0)
    return PrimitiveField(grid, vals, float(mass))


def _one_sided_slopes(X: np.ndarray, h: float):
    """Backward and forward difference quotients of monotone primitive rows.

    The wrap faces see the 0 -> M jump of the primitive; they are replaced
    by the interior one-sided values (those cells sit inside the frozen
    boundary band anyway).
    """
    dminus = np.maximum((X - _roll1(X, 1)) / h, 0.0)
    dplus = np.maximum((_roll1(X, -1) - X) / h, 0.0)
    dminus[:, 0] = dplus[:, 0] = np.maximum(X[:, 1] - X[:, 0], 0.0) / h
    dminus[:, -1] = dplus[:, -1] = np.maximum(X[:, -1] - X[:, -2], 0.0) / h
    return dminus, dplus


def _godunov_slope(slopes, A: np.ndarray) -> np.ndarray:
    """Upwinded slope magnitude for the factor |v_x|^(m-1).

    Where the nonlocal term pushes v down (A > 0) the backward difference
    is used, where it pushes v up the forward difference: the motion of a
    cell then stalls as it approaches the neighbor it would cross, which is
    what makes the scheme order-preserving, while degenerate feet keep the
    forward slope and stay mobile (the infinite-propagation creep).
    `slopes` is the pair returned by :func:`_one_sided_slopes`.
    """
    dminus, dplus = slopes
    return np.where(A > 0.0, dminus, dplus)


def _cfl_rows(slopes, h: float, m: float, alpha: FracOrder,
              cap: float = math.inf) -> np.ndarray:
    """Stable step of each row of a (B, n) stack of primitives, from the
    stack's :func:`_one_sided_slopes`."""
    dminus, dplus = slopes
    base = CFL_SAFETY * h ** (2.0 * alpha.alpha)
    damp = min(1.0, 2.0 / math.pi ** (2.0 * alpha.alpha))
    dts = np.empty(len(dminus))
    for b, smax in enumerate(np.max(np.maximum(dminus, dplus), axis=-1)):
        # one scalar pow per row: numpy's array power (a sqrt fast path for
        # 0.5, a vectorized loop otherwise) can differ from it in the last bit
        gmax = float(smax ** (m - 1.0))
        dts[b] = cap if gmax <= 0.0 else min(base / gmax * damp, cap)
    return dts


def integrated_cfl_dt(v: PrimitiveField, m: float, alpha: FracOrder,
                      cap: float = math.inf) -> float:
    """Stable step: safety * h^(2 alpha) / max|v_x|^(m-1), with the spectral
    stability factor min(1, 2/pi^(2 alpha)) folded in."""
    h = v.grid.spacing
    slopes = _one_sided_slopes(v.values[None, :], h)
    return float(_cfl_rows(slopes, h, m, alpha, cap)[0])


@dataclass
class RepairStats:
    monotonicity_mass: float = 0.0  # L1 size of cumulative-max repairs
    clamp_mass: float = 0.0


def _step_rows(X: np.ndarray, slopes, M: np.ndarray, grid: Grid1D, m: float,
               alpha: FracOrder, dt: np.ndarray,
               stats: RepairStats | None = None) -> np.ndarray:
    """One explicit step of every row of a (B, n) stack; row b has mass M[b]
    and step dt[b], and `slopes` is the stack's :func:`_one_sided_slopes`.
    Returns the new stack, not yet validated; raises
    :class:`SimulationUnstable` if the update is not finite."""
    if m <= 1.0:
        raise ValueError(f"m must exceed 1, got {m}")
    h = grid.spacing
    L = grid.half_length
    W = X - M[:, None] * (grid.nodes + L) / (2.0 * L)  # ramp removed
    A = _frac_laplacian_rows(W, grid, alpha)
    slope = _godunov_slope(slopes, A) ** (m - 1.0)
    new = X - dt[:, None] * slope * A
    if not np.all(np.isfinite(new)):
        raise SimulationUnstable(0.0)

    new = np.clip(new, _roll1(X, 1), _roll1(X, -1))
    new[:, 0], new[:, -1] = X[:, 0], X[:, -1]
    frozen = np.abs(grid.nodes) > FROZEN_FRACTION * L
    new[:, frozen] = X[:, frozen]

    mono = np.maximum.accumulate(new, axis=-1)
    clamped = np.clip(mono, 0.0, M[:, None])
    if stats is not None:
        repair = h * np.sum(np.abs(mono - new), axis=-1)
        clamp = h * np.sum(np.abs(clamped - mono), axis=-1)
        for b in range(len(X)):  # row order, as B separate 1-D steps add up
            stats.monotonicity_mass += float(repair[b])
            stats.clamp_mass += float(clamp[b])
    return clamped


def step_integrated(v: PrimitiveField, m: float, alpha: FracOrder, dt: float,
                    stats: RepairStats | None = None) -> PrimitiveField:
    """One explicit step of v_t = -|v_x|^(m-1) (-Delta)^alpha v.

    The ramp matching the boundary values is subtracted before the spectral
    operator (its own whole-line fractional Laplacian is zero), the slope
    factor is the upwinded one-sided difference of :func:`_godunov_slope`,
    each cell's update is bracketed by its neighbors' previous values so
    cells cannot cross, boundary cells stay frozen, and the result is
    re-monotonized by a cumulative max and clamped to [0, M] with any
    repaired mass recorded.
    """
    M = np.array([v.total_mass], dtype=float)
    X = v.values[None, :]
    new = _step_rows(X, _one_sided_slopes(X, v.grid.spacing), M, v.grid, m,
                     alpha, np.array([dt], dtype=float), stats)
    return PrimitiveField(v.grid, new[0], v.total_mass)


def comparison_sweep(pairs, m: float, alpha: FracOrder, n_steps: int):
    """Step P ordered pairs (v, V) together; return (worst, final stack).

    The 2P primitives run as one (2P, n) stack, lower members first.  Each
    pair steps with its own dt = min(cfl(v), cfl(V)), every row is
    validated after every step, and `worst` is the largest max(v - V) seen
    over all pairs and steps (0 if the order always held).  Each row is
    bitwise what stepping its pair alone with :func:`step_integrated`
    gives.
    """
    if not pairs:
        return 0.0, np.empty((0, 0))
    grid = pairs[0][0].grid
    if any(v.grid != grid or V.grid != grid for v, V in pairs):
        raise ValueError("comparison_sweep requires every primitive on one grid")
    P = len(pairs)
    X = np.stack([v.values for v, _ in pairs] + [V.values for _, V in pairs])
    M = np.array([v.total_mass for v, _ in pairs]
                 + [V.total_mass for _, V in pairs], dtype=float)
    _check_rows(X, M)
    worst = 0.0
    for _ in range(n_steps):
        slopes = _one_sided_slopes(X, grid.spacing)  # shared by bound and step
        dts = _cfl_rows(slopes, grid.spacing, m, alpha)
        dt = np.minimum(dts[:P], dts[P:])
        X = _step_rows(X, slopes, M, grid, m, alpha, np.concatenate((dt, dt)))
        _check_rows(X, M)
        worst = max(worst, float(np.max(X[:P] - X[P:])))
    return worst, X


def simulate_integrated(v0: PrimitiveField, m: float, alpha: FracOrder,
                        t_end: float, snap_times):
    """Adaptive-step evolution of the primitive; returns (times, states, stats).

    The snapshot times must lie in [0, t_end]; each state is interpolated
    linearly between the bracketing steps.  Every step is bitwise
    :func:`integrated_cfl_dt` followed by :func:`step_integrated`, every
    new primitive is validated, and `stats` sums the repairs of all steps.
    A step that is not finite raises :class:`SimulationUnstable` carrying
    the time reached before it.
    """
    grid, h = v0.grid, v0.grid.spacing
    M = np.array([v0.total_mass], dtype=float)
    stats = RepairStats()

    def step(X, t, cap):
        slopes = _one_sided_slopes(X, h)  # shared by bound and step
        dt = _cfl_rows(slopes, h, m, alpha, cap)
        try:
            X = _step_rows(X, slopes, M, grid, m, alpha, dt, stats)
        except SimulationUnstable:
            raise SimulationUnstable(t) from None
        _check_rows(X, M)
        return X, float(dt[0])

    times, states = [], []
    for _, frames in _march(v0.values[None, :], t_end, snap_times, step):
        for ts, X in frames:
            times.append(ts)
            states.append(PrimitiveField(grid, X[0], v0.total_mass))
    return np.asarray(times), states, stats


# --- barriers ------------------------------------------------------------


def barrier_exponents(m: float, alpha: float) -> tuple[float, float]:
    """Decay and time exponents (gamma, b) of the self-similar barrier.

    gamma = (m + 2 alpha)/(2 - m) requires m < 2; b = 1/(m - 1 + 2 alpha).
    """
    if not 1.0 < m < 2.0:
        raise ValueError(f"the barrier construction needs 1 < m < 2, got {m}")
    gamma = (m + 2.0 * alpha) / (2.0 - m)
    b = 1.0 / (m - 1.0 + 2.0 * alpha)
    return gamma, b


@dataclass(frozen=True)
class BarrierParams:
    """Parameters of the moving subsolution barrier.

    Phi(x, t) = (t + tau)^(b*gamma) * ((|x| + xi)^(-gamma) + G(x)) - eps_b,
    where G is the verified right-side bump.  `cap` bounds G from above and
    `tail_coef` is the measured strength of the negative tail of its
    fractional Laplacian left of x0.
    """

    x0: float
    xi: float
    eps_b: float
    tau: float
    cap: float
    tail_coef: float
    gamma: float
    b: float

    def __post_init__(self):
        if self.xi <= 0 or self.eps_b <= 0 or self.tau <= 0:
            raise ValueError("xi, eps_b and tau must be positive")
        if self.gamma <= 0 or self.b <= 0:
            raise ValueError("gamma and b must be positive (requires m < 2)")


@dataclass
class BarrierBump:
    """Compact bump G plus the measured constants of its left tail."""

    field: Field
    center: float
    radius: float
    height: float
    cap: float        # sup G
    tail_coef: float  # inf over probes of |x|^(1+2s) * (-(-Delta)^s G)
    probe_nodes: np.ndarray
    probe_values: np.ndarray  # (-Delta)^s G at the probes

    def __call__(self, x):
        y = (np.asarray(x, dtype=float) - self.center) / self.radius
        out = np.zeros_like(y)
        inside = np.abs(y) < 1.0
        out[inside] = self.height * np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
        return out


def _bump_support(x0: float) -> tuple[float, float]:
    """Centre and radius of the barrier bump for x0: support [-x0+1, -x0+3]."""
    return -x0 + 1.0 + 1.0, 1.0


def make_barrier_bump(grid: Grid1D, x0: float, s: float,
                      height: float = 1.0) -> BarrierBump:
    """Place a smooth bump right of -x0 and verify its left fractional tail.

    The bump exp(1 - 1/(1-y^2)) is supported on [-x0+1, -x0+3].
    The construction is accepted only if the whole-line (-Delta)^s of the
    bump is strictly negative at every grid node left of x0, in which case
    the measured decay constant tail_coef = min |x|^(1+2s) |(-Delta)^s G| is
    returned with the bump.  Fails for a zero bump (no negative tail).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not -grid.half_length < x0 < 0.0:
        raise ValueError(f"x0 must be negative and inside the grid, got {x0}")
    center, radius = _bump_support(x0)
    if center + radius >= grid.half_length:
        raise ValueError("bump support leaves the grid")
    bump = BarrierBump(
        field=Field(grid, np.zeros(grid.n)),
        center=center,
        radius=radius,
        height=height,
        cap=0.0,
        tail_coef=0.0,
        probe_nodes=np.empty(0),
        probe_values=np.empty(0),
    )
    values = bump(grid.nodes)
    bump.field = Field(grid, values)
    # the bump attains exactly `height` at its center, so the sup bound is
    # the height itself rather than the sampled maximum
    bump.cap = float(height)
    if bump.cap <= 0.0:
        raise ValueError("bump verification failed: zero bump has no negative tail")

    probes = grid.nodes[grid.nodes < x0]
    lap = line_frac_laplacian_outside(
        bump, (center - radius, center + radius), probes, s
    )
    if np.any(lap >= 0.0):
        raise ValueError("bump verification failed: sign check of (-Delta)^s G")
    coef = np.abs(probes) ** (1.0 + 2.0 * s) * (-lap)
    bump.tail_coef = float(coef.min())
    bump.probe_nodes = probes
    bump.probe_values = lap
    return bump


def barrier_subsolution(bp: BarrierParams, G: Field, t: float) -> Field:
    """Evaluate the barrier on the grid at time t."""
    x = G.grid.nodes
    core = (np.abs(x) + bp.xi) ** (-bp.gamma) + G.values
    return Field(G.grid, (t + bp.tau) ** (bp.b * bp.gamma) * core - bp.eps_b)


def subsolution_inequality_check(
    bp: BarrierParams, bump: BarrierBump, m: float, alpha: float,
    times=(0.0, 0.05, 0.1),
) -> dict:
    """Numerically check Phi_t + |Phi_x|^(m-1) (-Delta)^alpha Phi <= 0 left of x0.

    The time derivative and slope are analytic; the nonlocal term adds the
    whole-line fractional Laplacians of the power part
    (:func:`line_frac_laplacian`) and of the bump, which vanishes there
    (:func:`line_frac_laplacian_outside`), at up to 40 evenly spread grid
    nodes left of x0.  Returns the worst value found and per-time maxima.
    """
    grid = bump.field.grid
    probes = grid.nodes[grid.nodes < bp.x0]
    if len(probes) > 40:
        idx = np.linspace(0, len(probes) - 1, 40).astype(int)
        probes = probes[idx]

    def power_part(y):
        return (np.abs(y) + bp.xi) ** (-bp.gamma)

    lap_power = line_frac_laplacian(power_part, probes, alpha)
    lap_bump = line_frac_laplacian_outside(
        bump, (bump.center - bump.radius, bump.center + bump.radius), probes, alpha
    )
    core = power_part(probes)  # G vanishes left of x0
    slope_core = bp.gamma * (np.abs(probes) + bp.xi) ** (-bp.gamma - 1.0)

    worst = -math.inf
    per_time = {}
    for t in times:
        tb = (t + bp.tau) ** (bp.b * bp.gamma)
        phi_t = bp.b * bp.gamma * (t + bp.tau) ** (bp.b * bp.gamma - 1.0) * core
        phi_x = tb * slope_core
        lap = tb * (lap_power + lap_bump)
        lhs = phi_t + np.abs(phi_x) ** (m - 1.0) * lap
        per_time[t] = float(lhs.max())
        worst = max(worst, per_time[t])
    return {"max_lhs": worst, "per_time": per_time, "passed": worst <= 0.0,
            "n_probes": len(probes)}


def parabola_supersolution(C: float, b: float, t: float, grid: Grid1D) -> Field:
    """Truncated parabola ((C t - (|x| - b))_+)^2; support radius b + C t."""
    if C <= 0 or b <= 0:
        raise ValueError("C and b must be positive")
    core = np.maximum(C * t - (np.abs(grid.nodes) - b), 0.0)
    return Field(grid, core**2)


@dataclass
class ContactReport:
    margin: float            # min(U - u) over all nodes
    margin_interior: float   # min(U - u) where U > 0
    location: float          # node of the overall minimum
    strict: bool             # interior margin strictly positive


def contact_check(u: Field, U: Field) -> ContactReport:
    """Report the minimal gap between a solution and a supersolution."""
    if u.grid != U.grid:
        raise ValueError("contact_check requires fields on the same grid")
    diff = U.values - u.values
    i = int(np.argmin(diff))
    inside = U.values > 0.0
    margin_int = float(diff[inside].min()) if np.any(inside) else float(diff.min())
    return ContactReport(
        margin=float(diff.min()),
        margin_interior=margin_int,
        location=float(u.grid.nodes[i]),
        strict=bool(margin_int > 0.0),
    )


@dataclass
class WitnessReport:
    """Outcome of the infinite-propagation barrier witness."""

    params: BarrierParams
    probe_x: float
    probe_time: float
    v_at_probe: float
    barrier_at_probe: float
    initial_domination: bool   # Phi(x,0) <= v(x,0) everywhere
    right_domination: bool     # Phi <= v on x >= x0 for sampled times
    inequality: dict           # subsolution_inequality_check output
    passed: bool


def _check_barrier_range(m: float, s: float, x0: float, t_probe: float) -> None:
    """Raise ValueError when the witness's barrier would pass every float.

    The witness's eps_b never exceeds |x0|^(-gamma)/2, so
    xi = 1.0001 (x0 + eps_b^(-1/gamma)) is at least
    1.0001 |x0| (2^(1/gamma) - 1).  The barrier peaks at the origin at
    t_probe, at most at (t_probe + 1)^(b gamma) xi^(-gamma) (tau = 1).  gamma grows without
    bound as m -> 2, so this peak, checked in logarithms with a margin of
    1e8 for the products formed with it, bounds how close to 2 m can be.
    """
    gamma, b = barrier_exponents(m, 1.0 - s)
    xi = 1.0001 * -x0 * math.expm1(math.log(2.0) / gamma)
    log_peak = b * gamma * math.log1p(t_probe) - gamma * math.log(xi)
    if not log_peak < math.log(sys.float_info.max / 1e8):
        raise ValueError(f"the barrier peaks at 10^{log_peak / math.log(10.0):.0f} "
                         f"(gamma = {gamma:.3g}), past the float range; take m "
                         f"farther from 2 or |x0| larger")


def infinite_speed_witness(
    v0: PrimitiveField, m: float, s: float, x0: float,
    t_probe: float = 0.1,
) -> WitnessReport:
    """Run the integrated flow and verify the barrier witness chain.

    Checks, in order: the bump verification, the subsolution inequality on
    the probe region, domination of the barrier by v at t = 0 and on the
    right region over [0, t_probe], and finally positivity of both v and
    the barrier at a probe strictly left of the initial support.  The
    barrier's time shift is tau = 1; the probe, the bump height and eps_b
    are calibrated from the run, eps_b to sit below the measured v at the
    probe.  Raises ValueError before the run when the barrier could pass
    the float range (:func:`_check_barrier_range`).
    """
    _check_barrier_range(m, s, x0, t_probe)
    alpha = 1.0 - s
    gamma, b = barrier_exponents(m, alpha)
    grid = v0.grid

    times, states, _ = simulate_integrated(
        v0, m, FracOrder(alpha), t_probe, snap_times=np.linspace(0, t_probe, 6)
    )
    v_end = states[-1]

    tol0 = 1e-12 * max(v0.total_mass, 1.0)
    left_edge = float(grid.nodes[np.argmax(v0.values > tol0)])
    # pick a node strictly left of the initial support but well inside the
    # region the scheme has already invaded, so v there is sizable
    invaded = np.argmax(v_end.values > 0.0)
    x_inv = float(grid.nodes[invaded])
    if x_inv < left_edge - grid.spacing:
        probe_x = left_edge - 0.25 * (left_edge - x_inv)
    else:
        probe_x = left_edge - grid.spacing
    probe_i = int(np.argmin(np.abs(grid.nodes - probe_x)))
    probe_x = float(grid.nodes[probe_i])
    v_probe = float(v_end.values[probe_i])

    # right-region floor of v over the run, used to size the bump height
    right = grid.nodes >= x0
    k1 = min(float(st.values[right].min()) for st in states)
    bump = make_barrier_bump(grid, x0, s, height=0.5 * k1 if k1 > 0 else 0.5)

    def build(eb: float) -> BarrierParams:
        xi = (x0 + eb ** (-1.0 / gamma)) * 1.0001
        return BarrierParams(x0=x0, xi=xi, eps_b=eb, tau=1.0, cap=bump.cap,
                             tail_coef=bump.tail_coef, gamma=gamma, b=b)

    # shrink eps_b geometrically until the barrier is positive at the probe
    # yet still below the measured v there, from below |x0|^(-gamma), under
    # which xi is positive
    eps_b = min(max(v_probe * 1e-3, 1e-60), 0.5 * (-x0) ** -gamma)
    for _ in range(60):
        bp_try = build(eps_b)
        val = float(barrier_subsolution(bp_try, bump.field, t_probe).values[probe_i])
        if 0.0 < val <= max(v_probe, 0.0):
            break
        eps_b *= 0.1
    bp = build(eps_b)

    ineq = subsolution_inequality_check(bp, bump, m, alpha,
                                        times=(0.0, 0.5 * t_probe, t_probe))

    phi0 = barrier_subsolution(bp, bump.field, 0.0)
    initial_dom = bool(np.all(phi0.values <= v0.values + 1e-15))
    right_dom = True
    for t, st in zip(times, states):
        phi = barrier_subsolution(bp, bump.field, t)
        if not np.all(phi.values[right] <= st.values[right] + 1e-15):
            right_dom = False
            break

    phi_probe = float(barrier_subsolution(bp, bump.field, t_probe).values[probe_i])
    passed = (
        ineq["passed"]
        and initial_dom
        and right_dom
        and v_probe > 0.0
        and phi_probe > 0.0
        and v_probe >= phi_probe
    )
    return WitnessReport(
        params=bp,
        probe_x=probe_x,
        probe_time=t_probe,
        v_at_probe=v_probe,
        barrier_at_probe=phi_probe,
        initial_domination=initial_dom,
        right_domination=right_dom,
        inequality=ineq,
        passed=passed,
    )
