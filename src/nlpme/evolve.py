"""Time integration of the nonlocal-pressure porous medium flow.

The density equation

    u_t = delta * Lap(u) + d/dx( (u + mu)^(m-1) * d/dx (-Delta)^(-s) u )

is advanced with a conservative explicit scheme: the pressure gradient is
spectral, the advective factor (u + mu)^(m-1) is upwinded by the transport
direction at each face, and face fluxes telescope so the box mass is
conserved to roundoff.  Outgoing fluxes are limited so that no cell can be
driven negative (the limiter only engages at degenerate front cells where
the naive update would overdraw); whatever tiny negatives remain from the
viscosity term are clipped and the clipped mass is tracked.

A step is three array pieces: `_face_flux` (the advective factor, face
average and upwind choice), `_stable_dt` (the step bound, which also
names the limit that set it; `cfl_dt` explains its three limits, each
read off the operator actually stepped) and `_apply_flux` (limiter,
update, viscosity, clipping, NaN check).  `simulate_density` runs them
on plain arrays after one pressure evaluation per step and keeps step
telemetry; the public `cfl_dt` and `step_density` are the same pieces
behind Field checks.  The pieces write every intermediate into a `_Workspace` of
preallocated length-n buffers (one per run, or one per public call),
read neighbours by slices plus the wrap element, and write each new state
into whichever of the workspace's two state buffers does not hold the
current one, so a step allocates no length-n array outside the pressure
evaluation.  The limiter's factor pass runs only when some cell has
POSITIVITY_HEADROOM * u < outflow: otherwise every factor is exactly 1.0
(see `_apply_flux`) and skipping the multiply changes no bit.

`_march` is the one time loop of this solver, the integrated scheme and
the FPME relaxation: snapshot schedule, horizon cap, interpolation of the
frames a step crosses and the step-count guard; each supplies its step.
"""

from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.ma  # np.median's NaN check loads it on first use; set-up pays here

from .grid import Field, FracOrder, Grid1D
from .operators import (
    _CACHE_SIZE,
    _even_symbol,
    _frac_laplacian_rows,
    _symbol,
    mollified_riesz_gradient,
    neg_half_order_norm,
    riesz_gradient,
)

__all__ = [
    "ModelParams",
    "SnapshotDiagnostics",
    "Trajectory",
    "SimulationUnstable",
    "RunAborted",
    "pressure_gradient",
    "cfl_dt",
    "step_density",
    "simulate_density",
    "continuation_limit",
    "ContinuationReport",
    "fpme_profile_by_rescaling",
]

CFL_SAFETY = 0.4
POSITIVITY_HEADROOM = 0.9  # a cell may lose at most this fraction per step
# the bounds of the density step size, in the order they are applied
STEP_LIMITS = ("advective", "stiffness", "viscosity", "cap")
MAX_STEPS = 2_000_000  # a run that needs more steps is stuck, not slow


@dataclass(frozen=True)
class ModelParams:
    """Exponents and regularization parameters of the approximation chain.

    m > 1 is the nonlinearity, s in (0,1) the pressure order.  eps mollifies
    the nonlocal operator, delta adds vanishing viscosity, mu shifts the
    degeneracy; all default to zero (the unregularized problem).  N is kept
    for the exponent formulas; the evolution solvers require N = 1.
    """

    m: float
    s: float
    N: int = 1
    eps: float = 0.0
    delta: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if not self.m > 1.0:
            raise ValueError(f"m must exceed 1, got {self.m}")
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.eps < 0 or self.delta < 0 or self.mu < 0:
            raise ValueError("eps, delta, mu must be nonnegative")
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")


@dataclass
class SnapshotDiagnostics:
    mass: float
    sup_norm: float
    l2_norm: float
    l4_norm: float
    second_energy: float
    boundary_tail: float  # mass beyond |x| > 0.9 L, truncation watchdog


@dataclass
class Trajectory:
    """Time-stamped snapshots of a run plus per-snapshot diagnostics.

    The step telemetry covers every completed step: its count, the
    smallest, largest and median dt (NaN before the first step),
    `limits`, how many steps each bound of STEP_LIMITS set, and
    `limiter_steps`, in how many steps the positivity limiter cut at least
    one cell's outflow.
    """

    params: ModelParams
    times: np.ndarray
    snapshots: list
    diagnostics: list
    clipped_mass: float = 0.0
    steps: int = 0
    dt_min: float = math.nan
    dt_max: float = math.nan
    dt_median: float = math.nan
    limits: dict = field(default_factory=lambda: dict.fromkeys(STEP_LIMITS, 0))
    limiter_steps: int = 0

    @property
    def grid(self) -> Grid1D:
        return self.snapshots[0].grid

    def snapshot_at(self, t: float) -> Field:
        """Snapshot linearly interpolated in time between stored frames."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise ValueError(f"time {t} outside trajectory range [{times[0]}, {times[-1]}]")
        j = int(np.searchsorted(times, t, side="right") - 1)
        j = min(max(j, 0), len(times) - 2) if len(times) > 1 else 0
        if len(times) == 1 or times[j + 1] == times[j]:
            return self.snapshots[j].copy()
        theta = (t - times[j]) / (times[j + 1] - times[j])
        theta = min(max(theta, 0.0), 1.0)
        vals = (1 - theta) * self.snapshots[j].values + theta * self.snapshots[j + 1].values
        return self.snapshots[j].with_values(vals)


class RunAborted(RuntimeError):
    """Raised when a run cannot reach its horizon for a reason other than
    instability (too many steps, a box too small for the data); carries
    the time reached."""

    def __init__(self, message: str, t_last: float = 0.0):
        super().__init__(message)
        self.t_last = t_last


class SimulationUnstable(RuntimeError):
    """Raised when a step produces NaN; carries the last stable time."""

    def __init__(self, t_last: float, partial: "Trajectory | None" = None):
        super().__init__(f"simulation went unstable; last stable time t={t_last:.6g}")
        self.t_last = t_last
        self.partial = partial


def pressure_gradient(u: Field, p: ModelParams) -> Field:
    """d/dx (-Delta)^(-s) u, or its mollified counterpart when eps > 0.

    For eps > 0 the factorization d/dx (-Delta)^(-1) L_eps is used, i.e. the
    spectral inverse-Laplacian gradient composed with the mollified operator
    of order 1-s (one multiplier, i*lambda(k)/k), which restores the
    spectral route as eps -> 0.
    """
    if p.eps > 0.0:
        return mollified_riesz_gradient(u, p.s, p.eps)
    return riesz_gradient(u, p.s)


def _roll1(a: np.ndarray, shift: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.roll(a, shift, axis=-1) for shift = +1 or -1, written by slices.

    Bitwise the same result, for one field or a (B, n) stack of them,
    without np.roll's generic-axis overhead, which costs more than the copy
    on the grids used here.  The result goes into `out` when given, into a
    new array otherwise.
    """
    if out is None:
        out = np.empty_like(a, order="C")
    if shift == 1:
        out[..., 1:] = a[..., :-1]
        out[..., 0] = a[..., -1]
    else:
        out[..., :-1] = a[..., 1:]
        out[..., -1] = a[..., 0]
    return out


class _Workspace:
    """Preallocated length-n buffers of the density step.

    A run builds one and hands it to every step; :func:`cfl_dt` and
    :func:`step_density` build one per call.  `a`, `J` and `w_face` hold
    the outputs of :func:`_face_flux`, `b1`..`b3` and `mask` are scratch,
    and each new state is written to the one of the two `states` buffers
    that does not hold the current state, so a step allocates no length-n
    array.
    """

    def __init__(self, n: int):
        self.a, self.J, self.w_face, self.b1, self.b2, self.b3 = (
            np.empty(n) for _ in range(6))
        self.mask = np.empty(n, dtype=bool)
        self.states = (np.empty(n), np.empty(n))

    def next_state(self, u: np.ndarray) -> np.ndarray:
        """The state buffer that does not hold u."""
        return self.states[1] if u is self.states[0] else self.states[0]


def _face_flux(u: np.ndarray, w: np.ndarray, p: ModelParams, ws: _Workspace):
    """Face fluxes J, advective factor a = (u + mu)^(m-1) and face-averaged
    pressure gradient w_face of one state.

    Face i+1/2 sits between nodes i and i+1 (periodic wrap).  J[i] is the
    mass flux through it, J = -a_up * w_face; mass moves rightward when
    w_face < 0, so the advective factor is taken from the left node for
    w_face < 0 and from the right node otherwise.  The step bound reads
    all three arrays and the update reads J; they are the workspace's `J`,
    `a` and `w_face`.
    """
    a = np.add(u, p.mu, out=ws.a)
    a **= p.m - 1.0  # in place, through the same scalar-power fast paths as `**`
    w_face = _roll1(w, -1, ws.w_face)
    w_face += w
    w_face *= 0.5
    J = _roll1(a, -1, ws.J)
    np.copyto(J, a, where=np.less(w_face, 0.0, out=ws.mask))  # upwind a
    np.negative(J, out=J)
    J *= w_face
    return J, a, w_face


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _max_symbol(half_length: float, n: int, s: float, eps: float) -> float:
    """Largest eigenvalue of the linear operator the update steps.

    Linearized at a constant advective factor, the flux update applies
    v -> D_-(avg(pressure_gradient(v))): the backward difference of the
    face average of the spectral pressure gradient.  The difference and
    the average multiply the gradient's symbol i*k*Lambda(k)/k^2 by
    i*sin(k h)/h, so the operator is circulant with the real eigenvalues
    -Lambda(k_j) sin(k_j h)/(k_j h) <= 0, j = 0..n/2 (the zero and Nyquist
    modes give 0).  Lambda is |k|^(2-2s), or the mollified symbol when
    eps > 0.  The factor sin(kh)/(kh) falls to 0 at Nyquist, so the
    maximum sits well inside the spectrum, below Lambda(pi/h).
    """
    lam = (_symbol(half_length, n, s, eps) if eps > 0.0
           else _even_symbol(half_length, n, 2.0 - 2.0 * s))[1:n // 2]
    kh = 2.0 * np.pi * np.arange(1, n // 2) / n  # k_j h, j = 1..n/2-1
    return float(np.max(lam * (np.sin(kh) / kh)))


def _stable_dt(J: np.ndarray, a: np.ndarray, w_face: np.ndarray, grid: Grid1D,
               p: ModelParams, cap: float):
    """Stable step from the face fluxes; returns (dt, binding limit).

    The limits are those of :func:`cfl_dt`.  The characteristic speed
    takes (max u + mu)^(m-2) as max(a)^((m-2)/(m-1)), so its one extra
    reduction is over w_face.  The limit is the name in STEP_LIMITS
    of the bound that set dt; a tie goes to the earlier one, and "cap"
    also covers a state with no limit at all.
    """
    h = grid.spacing
    dt, limit = math.inf, "cap"
    vmax = max(float(J.max()), -float(J.min()))  # max|J|; NaN if J has one
    amax = float(np.max(a))
    if amax > 0.0:
        wmax = max(float(w_face.max()), -float(w_face.min()))
        vmax = max(vmax, (p.m - 1.0) * amax ** ((p.m - 2.0) / (p.m - 1.0)) * wmax)
    if vmax > 0.0:
        dt, limit = h / vmax, "advective"
    if amax > 0.0:
        stiff = 2.0 / (amax * _max_symbol(grid.half_length, grid.n, p.s, p.eps))
        if stiff < dt:
            dt, limit = stiff, "stiffness"
    if p.delta > 0.0:
        visc = h * h / (2.0 * p.delta)
        if visc < dt:
            dt, limit = visc, "viscosity"
    dt = CFL_SAFETY * dt
    if cap < dt:
        return float(cap), "cap"
    return float(dt), limit


def cfl_dt(
    u: Field, p: ModelParams, cap: float = math.inf, w: Field | None = None
) -> float:
    """Stable explicit step for the density scheme.

    Three limits are combined with the safety factor CFL_SAFETY:

    * advective, h/speed.  speed is max|J| over the face fluxes
      J = -a_up * w_face, a = (u+mu)^(m-1), or the characteristic speed
      (m-1) (max u + mu)^(m-2) max|w_face| of the upwinded flux
      f(u) = (u+mu)^(m-1) w at the largest density, whichever is larger:
      the speed an upwind CFL bound is about.  For m >= 2 that is the
      largest f' over the state.  For m < 2, f' is unbounded as u -> 0,
      so the bulk's speed is taken and the positivity limiter keeps
      emptying cells nonnegative.
    * stiffness, 2/(max a * lambda).  Frozen at a constant advective
      factor, the update is explicit Euler on u_t = a * D_-(avg(w(u))),
      whose eigenvalues are -a * Lambda(k) sin(kh)/(kh), with
      Lambda = |k|^(2-2s) or the mollified symbol for eps > 0 (see
      `_max_symbol`).  lambda is the largest of their moduli, so the
      limit is the exact Euler stability bound of that operator; above
      it the high modes grow even when the advective limit holds.
    * viscosity, h^2/(2 delta), which keeps the three-point diffusion
      step a positive map.

    With zero velocity and delta = 0 the returned step is just `cap` (the
    configured horizon).  `w` is the pressure gradient of u when the
    caller already has it; it is computed otherwise.
    """
    if np.any(u.values < 0):
        raise ValueError("cfl_dt requires a nonnegative field")
    if w is None:
        w = pressure_gradient(u, p)
    J, a, w_face = _face_flux(u.values, w.values, p, _Workspace(u.grid.n))
    return _stable_dt(J, a, w_face, u.grid, p, cap)[0]


def _apply_flux(u: np.ndarray, J: np.ndarray, dt: float, h: float, p: ModelParams,
                ws: _Workspace):
    """One conservative step from the face fluxes.

    Returns (new values, clipped mass, limited); the new values are the
    workspace's state buffer that does not hold u, and J is overwritten
    with the limited fluxes.  Outgoing fluxes are scaled per donor cell so
    no cell loses more than POSITIVITY_HEADROOM of its content in one
    step; the scaling is applied to the shared face flux, so conservation
    is exact.  `limited` tells whether it cut any cell's outflow.  The
    viscosity term uses the three-point Laplacian: it conserves mass by
    telescoping and keeps u >= 0 under the delta CFL bound, whereas the
    spectral Laplacian rings negative at degenerate fronts and burns the
    clipping budget.  The result is nonnegative; raises
    :class:`SimulationUnstable` on NaN.
    """
    r = dt / h
    outflow = _roll1(J, 1, ws.b1)
    np.negative(outflow, out=outflow)
    np.maximum(outflow, 0.0, out=outflow)       # leaves cell i through face i-1/2
    outflow += np.maximum(J, 0.0, out=ws.b2)    # leaves cell i through face i+1/2
    outflow *= r
    room = np.multiply(u, POSITIVITY_HEADROOM, out=ws.b2)
    # The factor min(1, room / outflow) where outflow > 0 (1 elsewhere) is
    # below 1 exactly where room < outflow: for 0 <= x < y the rounded x/y
    # is at most the double below 1.  Without such a cell every factor is
    # 1.0 and J * 1.0 is J, so the pass is skipped.
    limited = bool(np.less(room, outflow, out=ws.mask).any())
    if limited:
        factor = ws.b3
        factor.fill(1.0)
        np.divide(room, outflow, out=factor, where=np.greater(outflow, 0.0, out=ws.mask))
        np.minimum(1.0, factor, out=factor)
        # the donor of face i+1/2 is cell i when J>0, cell i+1 when J<0
        donor = _roll1(factor, -1, ws.b1)
        np.copyto(donor, factor, where=np.greater(J, 0.0, out=ws.mask))
        J *= donor

    div = np.subtract(J, _roll1(J, 1, ws.b1), out=ws.b1)
    div *= r
    u_new = np.subtract(u, div, out=ws.next_state(u))
    clipped = 0.0
    negative = np.less(u_new, 0.0, out=ws.mask)
    if negative.any():
        clipped = float(-h * u_new[negative].sum())
        np.maximum(u_new, 0.0, out=u_new)
    if p.delta > 0.0:
        # applied to the post-flux field: (I + dt*delta*Lap_h) preserves
        # nonnegativity on its own under the delta CFL bound, so the two
        # substeps cannot jointly overdraw a cell
        visc = _roll1(u_new, -1, ws.b1)
        visc -= np.multiply(u_new, 2.0, out=ws.b2)
        visc += _roll1(u_new, 1, ws.b2)
        visc /= h**2
        visc *= dt * p.delta
        u_new += visc
        negative = np.less(u_new, 0.0, out=ws.mask)
        if negative.any():
            clipped += float(-h * u_new[negative].sum())
            np.maximum(u_new, 0.0, out=u_new)
    if not np.isfinite(u_new, out=ws.mask).all():
        raise SimulationUnstable(0.0)
    return u_new, clipped, limited


def step_density(
    u: Field, p: ModelParams, dt: float, w: Field | None = None
) -> tuple[Field, float]:
    """One explicit conservative step of the density equation.

    Returns the stepped field and the mass clipped to keep it nonnegative.
    Requires u >= 0 and dt within the CFL bound of :func:`cfl_dt`; `w` is
    the pressure gradient of u if already computed (see :func:`cfl_dt`).
    The step is the positivity-limited flux update followed by the
    three-point viscosity term.  Raises :class:`SimulationUnstable` on NaN.
    """
    if np.any(u.values < 0):
        raise ValueError("step_density requires a nonnegative field")
    if w is None:
        w = pressure_gradient(u, p)
    ws = _Workspace(u.grid.n)
    J, _, _ = _face_flux(u.values, w.values, p, ws)
    u_new, clipped, _ = _apply_flux(u.values, J, dt, u.grid.spacing, p, ws)
    return u.with_values(u_new), clipped


def _diagnose(u: Field, p: ModelParams) -> SnapshotDiagnostics:
    g = u.grid
    h = g.spacing
    v = u.values
    tail = float(h * v[np.abs(g.nodes) > 0.9 * g.half_length].sum())
    return SnapshotDiagnostics(
        mass=float(h * v.sum()),
        sup_norm=float(np.max(np.abs(v))),
        l2_norm=float((h * np.sum(v**2)) ** 0.5),
        l4_norm=float((h * np.sum(v**4)) ** 0.25),
        second_energy=neg_half_order_norm(u, p.s),
        boundary_tail=tail,
    )


def _march(u: np.ndarray, t_end: float, snap_times, step):
    """Advance the array u from t = 0 to t_end, one `step` at a time.

    `step(u, t, cap)` returns (u_next, dt) with 0 < dt <= cap = t_end - t;
    snap_times must be nonempty and lie in [0, t_end].  Yields (t, frames)
    at t = 0 and after every step: frames are the (time, values) pairs of
    the snapshot times reached, a copy of u at t = 0 and after a step the
    linear interpolation between its two states.  Stops after the last
    snapshot time; raises RunAborted past MAX_STEPS steps.
    """
    snap_times = np.sort(np.asarray(snap_times, dtype=float))
    if len(snap_times) == 0 or snap_times[0] < 0 or snap_times[-1] > t_end + 1e-12:
        raise ValueError("snapshot times must lie within [0, t_end]")
    pending = list(snap_times)
    t = 0.0
    frames = []
    while pending and abs(pending[0] - t) <= 1e-14 * max(1.0, t_end):
        frames.append((pending.pop(0), u.copy()))
    yield t, frames
    steps = 0
    while t < t_end - 1e-14 and pending:
        u_next, dt = step(u, t, t_end - t)
        t_next = t + dt
        frames = []
        while pending and pending[0] <= t_next + 1e-14:
            ts = pending.pop(0)
            theta = min(max((ts - t) / dt, 0.0), 1.0)
            frames.append((ts, (1 - theta) * u + theta * u_next))
        u, t = u_next, t_next
        yield t, frames
        steps += 1
        if steps >= MAX_STEPS:
            raise RunAborted(f"exceeded {MAX_STEPS} steps at t={t:.6g}", t)


def simulate_density(u0: Field, p: ModelParams, t_end: float, snap_times) -> Trajectory:
    """Evolve u0 with adaptive CFL steps, storing snapshots at snap_times.

    The snapshot times must lie in [0, t_end]; each is filled by linear
    interpolation between the bracketing computed states.  Clipping is
    accumulated over the whole run and the run aborts if it ever exceeds
    1e-6 of the initial mass, after the step that overspent it.  Each step
    is bitwise the one :func:`cfl_dt` and :func:`step_density` would take;
    the trajectory also records the dt range and median, the limit behind
    each step and how many steps the positivity limiter cut an outflow in.
    """
    if np.any(u0.values < 0):
        raise ValueError("initial data must be nonnegative")
    grid = u0.grid
    h = grid.spacing
    mass0 = float(h * u0.values.sum())
    clipped_mass = 0.0
    stored_times, snapshots, diags = [], [], []
    limits = dict.fromkeys(STEP_LIMITS, 0)
    dts = array.array("d")  # every step's dt, 8 bytes a step
    limiter_steps = 0

    def trajectory() -> Trajectory:
        span = ((min(dts), max(dts), float(np.median(dts))) if dts
                else (math.nan,) * 3)
        return Trajectory(p, np.asarray(stored_times), snapshots, diags,
                          clipped_mass, len(dts), *span, limits, limiter_steps)

    # Steps work on plain arrays in one workspace, the states alternating
    # between its two state buffers; _march's frames are fresh arrays, so
    # no snapshot aliases them.  Each new state leaves _apply_flux
    # nonnegative and finite, so it is neither re-checked nor wrapped in a
    # new Field: `state` is the Field handed to the pressure operator, its
    # values rebound to each state.
    ws = _Workspace(grid.n)
    np.copyto(ws.states[0], u0.values)
    state = u0.with_values(ws.states[0])

    def step(u, t, cap):
        nonlocal clipped_mass, limiter_steps
        state.values = u
        w = pressure_gradient(state, p).values  # shared by the bound and the update
        J, a, w_face = _face_flux(u, w, p, ws)
        dt, limit = _stable_dt(J, a, w_face, grid, p, cap)
        if dt <= 0.0 or not math.isfinite(dt):
            dt, limit = cap, "cap"
        try:
            u_next, clipped, limited = _apply_flux(u, J, dt, h, p, ws)
        except SimulationUnstable:
            raise SimulationUnstable(t, trajectory()) from None
        clipped_mass += clipped
        limiter_steps += limited
        limits[limit] += 1
        dts.append(dt)
        return u_next, dt

    for t, frames in _march(state.values, t_end, snap_times, step):
        for ts, values in frames:
            snap = Field(grid, values)
            stored_times.append(ts)
            snapshots.append(snap)
            diags.append(_diagnose(snap, p))
        if mass0 > 0 and clipped_mass > 1e-6 * mass0:
            raise SimulationUnstable(t, trajectory())
    return trajectory()


@dataclass
class ContinuationReport:
    """Cauchy record of the regularization-removal chain."""

    schedule: list
    checkpoint_time: float
    distances: list  # L2 distance between consecutive runs at the checkpoint
    masses: list     # final mass of each run
    decreasing: bool


def continuation_limit(
    u0: Field,
    p: ModelParams,
    schedule,
    t_end: float = 1.0,
    checkpoint: float | None = None,
):
    """Run the solver along a vanishing (eps, delta, mu) schedule.

    Each triple must be componentwise <= its predecessor and strictly
    smaller in at least every nonzero coordinate.  Returns the final run's
    trajectory (frames at five even times over [0, t_end] and at the
    checkpoint) plus a report with the L2 distances at the checkpoint time
    between consecutive runs, which should decrease as the regularization
    vanishes.
    """
    schedule = [tuple(float(x) for x in tri) for tri in schedule]
    if not schedule:
        raise ValueError("schedule must contain at least one (eps, delta, mu) triple")
    for tri in schedule:
        if any(x < 0 for x in tri):
            raise ValueError(f"schedule entries must be nonnegative, got {tri}")
    for prev, nxt in zip(schedule, schedule[1:]):
        for a, b in zip(prev, nxt):
            if not (b < a or (a == 0.0 and b == 0.0)):
                raise ValueError(
                    f"schedule must decrease strictly to zero in each coordinate: {prev} -> {nxt}"
                )
    if checkpoint is None:
        checkpoint = t_end
    snap_times = sorted(set(np.linspace(0.0, t_end, 5)) | {float(checkpoint)})

    h = u0.grid.spacing

    runs = [
        simulate_density(u0, ModelParams(p.m, p.s, p.N, eps=eps, delta=delta, mu=mu),
                         t_end, snap_times=snap_times)
        for eps, delta, mu in schedule
    ]
    checkpoints = [r.snapshot_at(checkpoint).values for r in runs]
    distances = [
        float(np.sqrt(h * np.sum((a - b) ** 2)))
        for a, b in zip(checkpoints, checkpoints[1:])
    ]
    masses = [r.diagnostics[-1].mass for r in runs]
    report = ContinuationReport(
        schedule=schedule,
        checkpoint_time=float(checkpoint),
        distances=distances,
        masses=masses,
        decreasing=all(b < a for a, b in zip(distances, distances[1:])),
    )
    return runs[-1], report


def _drift_diagonals(grid: Grid1D):
    """(lower, main, upper) diagonals of h times the upwind drift operator D.

    (D u)_i = (F_i - F_(i-1)) / h with the face flux F_i = y_i * donor_i
    at y_i = node_i + h/2, the donor being the outward neighbour (the
    transport velocity -beta1*y is inward), and no flux through the wrap
    face, so D is tridiagonal with zero column sums: I - c*h*D is an
    M-matrix with unit column sums for every c >= 0.
    """
    h = grid.spacing
    y_face = grid.nodes + 0.5 * h
    y_face[-1] = 0.0  # no transport through the wrap face
    right = np.maximum(y_face, 0.0)  # F_i = y_i u_(i+1): cell i+1 feeds cell i
    left = np.maximum(-y_face, 0.0)  # F_i = y_i u_i: cell i feeds cell i+1
    return left[:-1], -(left + np.roll(right, 1)), right[:-1]


def _relax_fpme(u0: Field, q: float, sigma: float, tau_end: float):
    """The relaxation of :func:`fpme_profile_by_rescaling` and its telemetry.

    Returns (phi, stats): the profile's values and a dict of the step
    count, the dt minimum, median and maximum, and `clip_steps`, the
    number of steps in which the positivity clip removed mass.
    """
    from scipy.linalg.lapack import dgtsv  # a cold scipy.linalg import costs ~0.2 s

    grid = u0.grid
    beta1 = 1.0 / ((q - 1.0) + 2.0 * sigma)  # N = 1
    h = grid.spacing
    mass = float(h * u0.values.sum())
    u = np.maximum(u0.values.copy(), 0.0)
    kmax_pow = (math.pi / h) ** (2.0 * sigma)
    order = FracOrder(sigma)
    lower, main, upper = _drift_diagonals(grid)
    dl, d, du = np.empty_like(lower), np.empty_like(main), np.empty_like(upper)
    dts = array.array("d")
    clip_steps = 0

    def step(u, tau, cap):
        nonlocal clip_steps
        try:
            rhs = _frac_laplacian_rows(u**q, grid, order)
        except ValueError:
            raise SimulationUnstable(tau) from None
        umax = float(u.max())
        rate = kmax_pow * q * max(umax, 1e-12) ** (q - 1.0)  # 0.0 if it underflows
        dt_diff = 2.0 / rate if rate > 0.0 else math.inf
        dt = CFL_SAFETY * min(dt_diff, cap / CFL_SAFETY)
        # (I - c h D) u_next = u - dt (-Delta)^sigma u^q, c = dt beta1 / h;
        # gtsv overwrites its four arrays, so the diagonals are refilled
        c = dt * beta1 / h
        if not math.isfinite(c):  # a step near the largest float, tau_end ~ 1e308
            raise SimulationUnstable(tau)
        np.multiply(lower, -c, out=dl)
        np.add(np.multiply(main, -c, out=d), 1.0, out=d)
        np.multiply(upper, -c, out=du)
        rhs *= -dt
        rhs += u
        u = dgtsv(dl, d, du, rhs, 1, 1, 1, 1)[3]
        clip_steps += bool(u.min() < 0.0)
        np.maximum(u, 0.0, out=u)
        total = h * u.sum()
        if total > 0.0:
            u *= mass / total
        dts.append(dt)
        return u, dt

    # an overflowing u**q is caught by the operator's finiteness check, before
    # max(u)^(q-1) could overflow in the step bound
    with np.errstate(over="ignore"):
        (_, phi), = (f for _, fs in _march(u, tau_end, [tau_end], step) for f in fs)
    dt_min, dt_median, dt_max = ((min(dts), float(np.median(dts)), max(dts)) if dts
                                 else (math.nan,) * 3)
    return phi, {"steps": len(dts), "dt_min": dt_min, "dt_median": dt_median,
                 "dt_max": dt_max, "clip_steps": clip_steps}


def fpme_profile_by_rescaling(
    u0: Field, q: float, sigma: float, tau_end: float = 14.0
) -> Field:
    """Self-similar FPME profile by relaxation in rescaled variables.

    Writing u(x, t) = t^(-N beta1) phi(x t^(-beta1), ln t) turns the flow
    into phi_tau = -(-Delta)^sigma (phi^q) + beta1 * div(y phi), whose
    steady state is the Barenblatt profile of the given mass.  Evolving the
    rescaled equation equates to evolving the original flow to time
    e^tau_end while continuously rescaling, which avoids resampling the
    slowly decaying tails through the box boundary.  Each step is
    linearly implicit: the fractional diffusion is explicit and the drift
    is backward Euler on an upwind face flux, one tridiagonal solve (a
    spectral derivative of the drift is neutrally stable and blows up
    under explicit stepping).  The drift matrix I - dt*beta1*D is an
    M-matrix with unit column sums (zero flux through the wrap face), so
    the drift keeps phi >= 0 and conserves mass to roundoff at any dt,
    and the step bound is the diffusion's alone.  The steady state solves
    the same discrete equation as an explicit drift's would; the
    renormalization each step only restores mass removed by the
    positivity clip.  The steps run through `_march`: raises
    :class:`RunAborted` past MAX_STEPS steps, and
    :class:`SimulationUnstable` at the rescaled time reached when phi^q
    or the drift matrix is not finite.
    """
    return u0.with_values(_relax_fpme(u0, q, sigma, tau_end)[0])
