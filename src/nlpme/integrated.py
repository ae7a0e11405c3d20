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

Every step runs in one :class:`_RowWorkspace`, built once per sweep or run
(once per call in `step_integrated`): the ramp is formed once, the
slopes come from one difference pass whose shifts give the backward and
forward slopes, neighbours are read as shifts of the flattened stack,
each new stack goes to one of two state buffers and the FFT writes its
spectrum and result into workspace buffers, so a step allocates no array
the size of the stack.  The difference of the new stack is formed once; it
validates the stack and becomes the next step's slopes.  The cumulative
max and [0, M] clamp that repair a step are skipped when they cannot
change a bit: every difference, and the first value, has a clear sign
bit and the last value is <= M, so each row is nondecreasing from +0.0
with no -0.0 in it and both passes would return it unchanged
(:func:`_step_rows` gives the argument, signed zeros included).  At CFL
steps the repair is skipped on nearly every step.

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

from .diagnostics import CheckResult
from .evolve import CFL_SAFETY, RunAborted, SimulationUnstable, _dt_span, _march
from .grid import Field, FracOrder, Grid1D
from .initial_data import _bump
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


def _check_rows(X: np.ndarray, M: np.ndarray, D: np.ndarray | None = None) -> None:
    """Validate a (B, n) stack of primitives, row b running from 0 to M[b].

    Every row must be nondecreasing within MONOTONE_TOL, stay inside
    [0, M] and match the boundary values 0 and M, each up to a tolerance
    relative to max(M, 1).  `D`, when given, holds the stack's differences
    X[:, 1:] - X[:, :-1], already formed by the step, each row's last one
    possibly repeated.
    """
    scale = np.maximum(M, 1.0)
    if D is None:
        D = np.diff(X, axis=-1)
    if np.any(np.min(D, axis=-1) < -MONOTONE_TOL * scale):
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
        if not (np.all(np.isfinite(v)) and math.isfinite(self.total_mass)):
            raise ValueError("primitive values and total mass must be finite")
        _check_rows(v[None, :], np.array([self.total_mass], dtype=float))
        self.values = v


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


class _RowWorkspace:
    """Preallocated buffers of the primitive step for one (B, n) stack.

    A sweep or run builds one from its starting stack X and row masses M
    and hands it to every step; :func:`step_integrated` builds one per
    call.  `F` holds the differences of the current stack,
    F[b, j] = X[b, j + 1] - X[b, j], its last column a copy of the one
    before, so that it validates that stack and :meth:`face_slopes` then
    turns it in place into the forward slopes of the next step.  `ramp` is
    the affine primitive of each row's boundary values, `G` and `mask`
    are scratch, `spectrum` holds the stack's real FFT, and each new stack
    is written to the one of the two `states` buffers that does not hold
    the current one, which holds the spectral operator's result until
    then; so a step allocates no (B, n) array.  Every pass over
    a whole stack runs on contiguous memory: neighbours are read as shifts
    of the flattened stack, and what a shift carries across a row boundary
    lands in an end cell, which is then overwritten.
    """

    def __init__(self, X: np.ndarray, M: np.ndarray, grid: Grid1D):
        B, n = X.shape
        L = grid.half_length
        self.grid, self.M = grid, M
        self.ramp = M[:, None] * (grid.nodes + L)
        self.ramp /= 2.0 * L
        self.F = np.empty((B, n))
        self.differences(X)
        self.G = np.empty((B, n))
        self.mask = np.empty((B, n), dtype=bool)
        self.spectrum = np.empty((B, n // 2 + 1), dtype=complex)
        self.states = (np.empty((B, n)), np.empty((B, n)))
        # |x| grows away from the centre node x = 0, so the cells that move
        # are one run [lo, hi); the end cells never move either
        moving = np.flatnonzero(np.abs(grid.nodes) <= FROZEN_FRACTION * L)
        self.lo, self.hi = max(int(moving[0]), 1), min(int(moving[-1]) + 1, n - 1)
        # a clamp to M = -0.0 would turn a final +0.0 into -0.0
        self.signed_mass = bool(np.any(np.signbit(M)))

    def next_state(self, X: np.ndarray) -> np.ndarray:
        """The state buffer that does not hold X."""
        return self.states[1] if X is self.states[0] else self.states[0]

    def differences(self, X: np.ndarray) -> None:
        """Store the differences of the stack X in F."""
        flat = X.reshape(-1)
        np.subtract(flat[1:], flat[:-1], out=self.F.reshape(-1)[:-1])
        self.F[:, -1] = self.F[:, -2]  # in place of the step across rows

    def face_slopes(self) -> np.ndarray:
        """Turn the stored differences into forward slopes; return F.

        F / h and then max 0, in place.  F[b, i] is then cell i's forward
        difference quotient and F[b, i - 1] its backward one; the two end
        cells, whose wrap faces see the 0 -> M jump of the primitive, take
        their interior one-sided value for both (they are frozen anyway).
        """
        F = self.F
        F /= self.grid.spacing
        np.maximum(F, 0.0, out=F)
        return F

    def monotone(self, new: np.ndarray) -> bool:
        """Whether the repair of :func:`_step_rows` would leave `new` as it
        is, read from its differences in F."""
        return not (self.signed_mass
                    or np.signbit(self.F, out=self.mask).any()
                    or np.signbit(new[:, 0]).any()
                    or not np.all(new[:, -1] <= self.M))


def _cfl_rows(F: np.ndarray, h: float, m: float, alpha: FracOrder,
              cap: float = math.inf) -> np.ndarray:
    """Stable step of each row of a stack of primitives, from the row
    maxima of its forward slopes F (:meth:`_RowWorkspace.face_slopes`)."""
    base = CFL_SAFETY * h ** (2.0 * alpha.alpha)
    damp = min(1.0, 2.0 / math.pi ** (2.0 * alpha.alpha))
    dts = np.empty(len(F))
    for b, smax in enumerate(F.max(axis=-1)):
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
    F = np.maximum(np.diff(v.values) / h, 0.0)[None, :]
    return float(_cfl_rows(F, h, m, alpha, cap)[0])


@dataclass
class RepairStats:
    monotonicity_mass: float = 0.0  # L1 size of cumulative-max repairs
    clamp_mass: float = 0.0


def _step_rows(X: np.ndarray, ws: _RowWorkspace, m: float, alpha: FracOrder,
               dt: np.ndarray, stats: RepairStats | None = None):
    """One explicit step of every row of the stack X that `ws` holds; row b
    has mass ws.M[b] and step dt[b], and ws.F holds the forward slopes of
    X (:meth:`_RowWorkspace.face_slopes`).

    Returns (new stack, whether the repair ran), not yet validated, and
    leaves the new stack's differences in ws.F.  Raises
    :class:`SimulationUnstable` if the update is not finite.

    Where the nonlocal term A pushes v down (A > 0) the slope factor takes
    the backward difference, where it pushes v up the forward one (Godunov
    upwinding): the motion of a cell then stalls as it approaches the
    neighbour it would cross, which is what makes the scheme
    order-preserving, while degenerate feet keep the forward slope and stay
    mobile (the infinite-propagation creep).  Each interior cell is then
    bracketed by its neighbours' previous values with np.maximum and
    np.minimum, which give np.clip's bits for array bounds, and the frozen
    band, end cells included, is restored from X.

    The cumulative max and the [0, M] clamp are skipped when they cannot
    change a bit: no difference has its sign bit set, the first column has
    it clear and the last column is <= M (with no M = -0.0).  A finite
    difference x[j+1] - x[j] has its sign bit clear exactly when
    x[j+1] > x[j], or the two are equal and not x[j] = +0.0, x[j+1] = -0.0;
    so such a row is nondecreasing from x[0] >= +0.0 and, by induction,
    holds no -0.0.  Equal entries of it then have equal bits, and whichever
    operand np.maximum returns on a tie (maximum.accumulate([0.0, -0.0])
    may keep the -0.0), the cumulative max returns the row itself; so does
    the clamp, as +0.0 <= x <= M.
    """
    if m <= 1.0:
        raise ValueError(f"m must exceed 1, got {m}")
    G, mask, F = ws.G, ws.mask, ws.F
    # the operator's result lives in the spare state buffer until `new` does
    A = _frac_laplacian_rows(np.subtract(X, ws.ramp, out=G), ws.grid, alpha,
                             out=ws.next_state(X), spectrum=ws.spectrum)
    np.copyto(G, F)
    backward = np.greater(A, 0.0, out=mask).reshape(-1)[1:]
    np.copyto(G.reshape(-1)[1:], F.reshape(-1)[:-1], where=backward)
    G[:, 0] = F[:, 0]  # in place of the row above's last slope
    G **= m - 1.0
    G *= dt[:, None]
    G *= A
    new = np.subtract(X, G, out=ws.next_state(X))
    if not np.isfinite(new, out=mask).all():
        raise SimulationUnstable(0.0)

    flat, old = new.reshape(-1)[1:-1], X.reshape(-1)
    np.maximum(flat, old[:-2], out=flat)
    np.minimum(flat, old[2:], out=flat)
    lo, hi = ws.lo, ws.hi
    new[:, :lo] = X[:, :lo]  # the frozen band
    new[:, hi:] = X[:, hi:]
    ws.differences(new)
    if ws.monotone(new):
        return new, False

    mono = np.maximum.accumulate(new, axis=-1, out=G)
    h = ws.grid.spacing
    if stats is not None:
        repair = np.subtract(mono, new, out=new)
        repair = h * np.sum(np.abs(repair, out=repair), axis=-1)
    for b in range(len(X)):
        # scalar bounds, as for a row stepped alone: on a tie np.clip's
        # scalar-bound loop keeps a -0.0 that its array-bound loop does not
        np.clip(mono[b], 0.0, ws.M[b], out=new[b])
    if stats is not None:
        clamp = np.subtract(new, mono, out=mono)
        clamp = h * np.sum(np.abs(clamp, out=clamp), axis=-1)
        for b in range(len(X)):  # row order, as B separate 1-D steps add up
            stats.monotonicity_mass += float(repair[b])
            stats.clamp_mass += float(clamp[b])
    ws.differences(new)
    return new, True


def step_integrated(v: PrimitiveField, m: float, alpha: FracOrder, dt: float,
                    stats: RepairStats | None = None) -> PrimitiveField:
    """One explicit step of v_t = -|v_x|^(m-1) (-Delta)^alpha v.

    The ramp matching the boundary values is subtracted before the spectral
    operator (its own whole-line fractional Laplacian is zero), the slope
    factor is the upwinded one-sided difference, each cell's update is
    bracketed by its neighbors' previous values so cells cannot cross,
    boundary cells stay frozen, and the result is re-monotonized by a
    cumulative max and clamped to [0, M] with any repaired mass recorded
    (see :func:`_step_rows`).
    """
    X = v.values[None, :]
    ws = _RowWorkspace(X, np.array([v.total_mass], dtype=float), v.grid)
    ws.face_slopes()
    new, _ = _step_rows(X, ws, m, alpha, np.array([dt], dtype=float), stats)
    return PrimitiveField(v.grid, new[0], v.total_mass)


@dataclass(frozen=True)
class SweepStats:
    """Telemetry of :func:`comparison_sweep`: the steps taken, the range
    and median of the pair steps dt of the pairs that moved (nan if none
    did), and the number of steps in which the cumulative max or clamp
    ran."""

    steps: int
    dt_min: float
    dt_median: float
    dt_max: float
    repair_steps: int


def comparison_sweep(pairs, m: float, alpha: FracOrder, n_steps: int):
    """Step P ordered pairs (v, V) together; return (worst, final stack,
    :class:`SweepStats`).

    The 2P primitives run as one (2P, n) stack, lower members first, over
    one :class:`_RowWorkspace`.  Each pair steps with its own
    dt = min(cfl(v), cfl(V)), every row is validated after every step, and
    `worst` is the largest max(v - V) seen over all pairs and steps (0 if
    the order always held).  Each row is bitwise what stepping its pair
    alone with :func:`step_integrated` gives.  A pair with no speed (its
    slope power is 0, or so small that its step bound is infinite) steps
    by dt = 0 and stays bitwise as it is; that bound is left out of the dt
    record.  A step that is not finite, an overflowing slope power's
    among them, raises :class:`RunAborted` naming it.
    """
    if not pairs:
        return 0.0, np.empty((0, 0)), SweepStats(0, math.nan, math.nan, math.nan, 0)
    grid = pairs[0][0].grid
    if any(v.grid != grid or V.grid != grid for v, V in pairs):
        raise ValueError("comparison_sweep requires every primitive on one grid")
    P = len(pairs)
    X = np.stack([v.values for v, _ in pairs] + [V.values for _, V in pairs])
    M = np.array([v.total_mass for v, _ in pairs]
                 + [V.total_mass for _, V in pairs], dtype=float)
    ws = _RowWorkspace(X, M, grid)
    _check_rows(X, M, ws.F)
    worst = 0.0
    dts = np.empty((n_steps, P))
    repair_steps = 0
    # an overflowing slope power gives a step that _step_rows finds not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            row_dts = _cfl_rows(ws.face_slopes(), grid.spacing, m, alpha)
            dt = np.minimum(row_dts[:P], row_dts[P:], out=dts[k])
            dt = np.where(np.isinf(dt), 0.0, dt)
            try:
                X, repaired = _step_rows(X, ws, m, alpha, np.concatenate((dt, dt)))
            except SimulationUnstable:  # the pairs share no clock: name the step
                raise RunAborted(f"comparison sweep step {k + 1} of {n_steps} "
                                 "is not finite") from None
            repair_steps += repaired
            _check_rows(X, M, ws.F)
            gap = np.subtract(X[:P], X[P:], out=ws.G[:P])
            worst = max(worst, float(gap.max()))
    return worst, X, SweepStats(n_steps, *_dt_span(dts[np.isfinite(dts)]), repair_steps)


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
    # the states alternate between the workspace's two buffers; _march's
    # frames are fresh arrays, so no stored state aliases them
    X0 = v0.values[None, :]
    ws = _RowWorkspace(X0, M, grid)

    def step(X, t, cap):
        dt = _cfl_rows(ws.face_slopes(), h, m, alpha, cap)
        try:
            X, _ = _step_rows(X, ws, m, alpha, dt, stats)
        except SimulationUnstable:
            raise SimulationUnstable(t) from None
        _check_rows(X, M, ws.F)
        return X, float(dt[0])

    times, states = [], []
    # an overflowing slope power gives a step that _step_rows finds not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for _, frames in _march(X0, t_end, snap_times, step):
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
    where G is the verified right-side bump; `cap` (its height, sup G) and
    `tail_coef` are copied from the :class:`BarrierBump`.
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


@dataclass(frozen=True)
class BarrierBump:
    """Compact bump G, whose sup `height` it attains at its centre, plus
    the constants of its left tail measured at the order alpha it was
    verified with."""

    field: Field
    center: float
    radius: float
    height: float
    tail_coef: float  # min over probes of |x|^(1+2 alpha) * (-(-Delta)^alpha G)
    probe_nodes: np.ndarray
    probe_values: np.ndarray  # (-Delta)^alpha G at the probes

    def __call__(self, x):
        return _bump(x, self.center, self.radius, self.height)


def _bump_support(x0: float) -> tuple[float, float]:
    """Centre and radius of the barrier bump for x0: support [-x0+1, -x0+3]."""
    return -x0 + 1.0 + 1.0, 1.0


def make_barrier_bump(grid: Grid1D, x0: float, alpha: float,
                      height: float = 1.0) -> BarrierBump:
    """Place a smooth bump right of -x0 and verify its left fractional tail.

    The bump height * exp(1 - 1/(1-y^2)) is supported on [-x0+1, -x0+3].
    alpha is the order the barrier is used at, 1 - s for the integrated
    model.  The bump is accepted only if its whole-line (-Delta)^alpha is
    strictly negative at every grid node left of x0; it is returned with
    tail_coef = min |x|^(1+2 alpha) |(-Delta)^alpha G| over those nodes.
    Fails for a zero or negative bump (no negative tail).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not -grid.half_length < x0 < 0.0:
        raise ValueError(f"x0 must be negative and inside the grid, got {x0}")
    center, radius = _bump_support(x0)
    if center + radius >= grid.half_length:
        raise ValueError("bump support leaves the grid")

    probes = grid.nodes[grid.nodes < x0]
    lap = line_frac_laplacian_outside(
        lambda y: _bump(y, center, radius, height),
        (center - radius, center + radius), probes, alpha
    )
    if np.any(lap >= 0.0):
        raise ValueError("bump verification failed: sign check of (-Delta)^alpha G")
    coef = np.abs(probes) ** (1.0 + 2.0 * alpha) * (-lap)
    return BarrierBump(
        field=Field(grid, _bump(grid.nodes, center, radius, height)),
        center=center,
        radius=radius,
        height=float(height),
        tail_coef=float(coef.min()),
        probe_nodes=probes,
        probe_values=lap,
    )


def barrier_subsolution(bp: BarrierParams, G: Field, t: float) -> Field:
    """Evaluate the barrier on the grid at time t."""
    x = G.grid.nodes
    core = (np.abs(x) + bp.xi) ** (-bp.gamma) + G.values
    return Field(G.grid, (t + bp.tau) ** (bp.b * bp.gamma) * core - bp.eps_b)


def subsolution_inequality_check(
    bp: BarrierParams, bump: BarrierBump, m: float, alpha: float,
    times=(0.0, 0.05, 0.1),
) -> CheckResult:
    """Numerically check Phi_t + |Phi_x|^(m-1) (-Delta)^alpha Phi <= 0 left of x0.

    The time derivative and slope are analytic; the nonlocal term adds the
    whole-line fractional Laplacians of the power part
    (:func:`line_frac_laplacian`) and of the bump, which vanishes there
    (:func:`line_frac_laplacian_outside`), at up to 40 evenly spread grid
    nodes left of x0.  Returns the check `subsolution_inequality`, whose
    value is the worst left-hand side over the probes and times.
    """
    grid = bump.field.grid
    probes = grid.nodes[grid.nodes < bp.x0]
    if len(probes) > 40:
        probes = probes[np.linspace(0, len(probes) - 1, 40).astype(int)]

    def power_part(y):
        return (np.abs(y) + bp.xi) ** (-bp.gamma)

    lap_power = line_frac_laplacian(power_part, probes, alpha)
    lap_bump = line_frac_laplacian_outside(
        bump, (bump.center - bump.radius, bump.center + bump.radius), probes, alpha
    )
    core = power_part(probes)  # G vanishes left of x0
    slope_core = bp.gamma * (np.abs(probes) + bp.xi) ** (-bp.gamma - 1.0)

    worst = -math.inf
    for t in times:
        tb = (t + bp.tau) ** (bp.b * bp.gamma)
        phi_t = bp.b * bp.gamma * (t + bp.tau) ** (bp.b * bp.gamma - 1.0) * core
        phi_x = tb * slope_core
        lap = tb * (lap_power + lap_bump)
        lhs = phi_t + np.abs(phi_x) ** (m - 1.0) * lap
        worst = max(worst, float(lhs.max()))
    return CheckResult("subsolution_inequality", worst <= 0.0, worst,
                       f"max over {len(probes)} probes and {len(times)} times")


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
    strict: bool             # interior margin strictly positive


def contact_check(u: Field, U: Field) -> ContactReport:
    """Report the minimal gap between a solution and a supersolution."""
    if u.grid != U.grid:
        raise ValueError("contact_check requires fields on the same grid")
    diff = U.values - u.values
    inside = U.values > 0.0
    margin_int = float(diff[inside].min()) if np.any(inside) else float(diff.min())
    return ContactReport(
        margin=float(diff.min()),
        margin_interior=margin_int,
        strict=bool(margin_int > 0.0),
    )


@dataclass
class WitnessReport:
    """Outcome of the infinite-propagation barrier witness: `checks` maps
    each link of the chain (:func:`infinite_speed_witness`) to its
    CheckResult, in manifest order, and it passes when all of them do."""

    params: BarrierParams
    probe_x: float
    v_at_probe: float
    barrier_at_probe: float
    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


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

    The report's checks, in order: bump_tail_coefficient (the bump
    verified at alpha = 1 - s), subsolution_inequality on the probe
    region, initial_domination (Phi <= v at t = 0), right_domination
    (Phi <= v on x >= x0 over [0, t_probe]) and positivity_at_probe
    (v >= Phi > 0 at a probe strictly left of the initial support).  The
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
    x_inv = float(grid.nodes[np.argmax(v_end.values > 0.0)])
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
    bump = make_barrier_bump(grid, x0, alpha, height=0.5 * k1 if k1 > 0 else 0.5)

    def build(eb: float) -> BarrierParams:
        xi = (x0 + eb ** (-1.0 / gamma)) * 1.0001
        return BarrierParams(x0=x0, xi=xi, eps_b=eb, tau=1.0, cap=bump.height,
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

    def below(t, v, where=slice(None)) -> bool:
        return bool(np.all(barrier_subsolution(bp, bump.field, t).values[where]
                           <= v.values[where] + 1e-15))

    phi_probe = float(barrier_subsolution(bp, bump.field, t_probe).values[probe_i])
    checks = [
        CheckResult("bump_tail_coefficient", bp.tail_coef > 0, bp.tail_coef),
        subsolution_inequality_check(bp, bump, m, alpha,
                                     times=(0.0, 0.5 * t_probe, t_probe)),
        CheckResult("initial_domination", below(0.0, v0), 0.0),
        CheckResult("right_domination",
                    all(below(t, st, right) for t, st in zip(times, states)), 0.0),
        CheckResult("positivity_at_probe", v_probe >= phi_probe > 0.0, v_probe,
                    f"barrier {phi_probe:.3e} at x={probe_x:.3g}"),
    ]
    return WitnessReport(
        params=bp,
        probe_x=probe_x,
        v_at_probe=v_probe,
        barrier_at_probe=phi_probe,
        checks={c.name: c for c in checks},
    )
