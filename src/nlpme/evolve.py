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
names the limit that set it) and `_apply_flux` (limiter, update,
viscosity, clipping, NaN check).  `simulate_density` runs them on plain
arrays after one pressure evaluation per step and keeps step telemetry;
the public `cfl_dt` and `step_density` are the same pieces behind Field
checks.  The pieces write every intermediate into a `_Workspace` of
preallocated length-n buffers (one per run, or one per public call),
read neighbours by slices plus the wrap element, and write each new state
into whichever of the workspace's two state buffers does not hold the
current one, so a step allocates no length-n array outside the pressure
evaluation.  The limiter's factor pass runs only when some cell has
POSITIVITY_HEADROOM * u < outflow: otherwise every factor is exactly 1.0
(see `_apply_flux`) and skipping the multiply changes no bit.

`_march` is the one time loop of this solver and the integrated scheme:
snapshot schedule, horizon cap, interpolation of the frames a step
crosses and the step-count guard; a solver supplies only its step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, FracOrder, Grid1D
from .operators import (
    _frac_laplacian_rows,
    mollified_riesz_gradient,
    mollified_symbol,
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
    smallest and largest dt (NaN before the first step), `limits`, how
    many steps each bound of STEP_LIMITS set, and `limiter_steps`, in how
    many steps the positivity limiter cut at least one cell's outflow.
    """

    params: ModelParams
    times: np.ndarray
    snapshots: list
    diagnostics: list
    clipped_mass: float = 0.0
    steps: int = 0
    dt_min: float = math.nan
    dt_max: float = math.nan
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


def _roll1(a: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift, axis=-1) for shift = +1 or -1.

    Bitwise the same result, for one field or a (B, n) stack of them,
    without np.roll's generic-axis overhead, which costs more than the copy
    on the grids used here.
    """
    if shift == 1:
        return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


class _Workspace:
    """Preallocated length-n buffers of the density step.

    A run builds one and hands it to every step; :func:`cfl_dt` and
    :func:`step_density` build one per call.  `a` and `J` hold the outputs
    of :func:`_face_flux`, `b1`..`b3` and `mask` are scratch, and each new
    state is written to the one of the two `states` buffers that does not
    hold the current state, so a step allocates no length-n array.
    """

    def __init__(self, n: int):
        self.a, self.J, self.b1, self.b2, self.b3 = (np.empty(n) for _ in range(5))
        self.mask = np.empty(n, dtype=bool)
        self.states = (np.empty(n), np.empty(n))

    def next_state(self, u: np.ndarray) -> np.ndarray:
        """The state buffer that does not hold u."""
        return self.states[1] if u is self.states[0] else self.states[0]


def _shifted(a: np.ndarray, out: np.ndarray, shift: int) -> np.ndarray:
    """np.roll(a, shift) for shift = +1 or -1, written into `out` by slices."""
    if shift == 1:
        out[1:] = a[:-1]
        out[0] = a[-1]
    else:
        out[:-1] = a[1:]
        out[-1] = a[0]
    return out


def _face_flux(u: np.ndarray, w: np.ndarray, p: ModelParams, ws: _Workspace):
    """Face fluxes J and advective factor a = (u + mu)^(m-1) of one state.

    Face i+1/2 sits between nodes i and i+1 (periodic wrap).  J[i] is the
    mass flux through it, J = -a_up * w_face with w_face the face-averaged
    pressure gradient; mass moves rightward when w_face < 0, so the
    advective factor is taken from the left node for w_face < 0 and from
    the right node otherwise.  Both the step bound and the update read
    these two arrays, which are the workspace's `J` and `a`.
    """
    a = np.add(u, p.mu, out=ws.a)
    a **= p.m - 1.0  # in place, through the same scalar-power fast paths as `**`
    w_face = _shifted(w, ws.b1, -1)
    w_face += w
    w_face *= 0.5
    J = _shifted(a, ws.J, -1)
    np.copyto(J, a, where=np.less(w_face, 0.0, out=ws.mask))  # upwind a
    np.negative(J, out=J)
    J *= w_face
    return J, a


def _max_symbol(grid: Grid1D, p: ModelParams) -> float:
    """Largest eigenvalue of the order-(1-s) operator actually in use."""
    if p.eps > 0.0:
        return float(np.max(mollified_symbol(grid, p.s, p.eps)))
    return float((math.pi / grid.spacing) ** (2.0 * (1.0 - p.s)))


def _stable_dt(J: np.ndarray, a: np.ndarray, grid: Grid1D, p: ModelParams,
               cap: float):
    """Stable step from the face fluxes; returns (dt, binding limit).

    The limit is the name in STEP_LIMITS of the bound that set dt; a tie
    goes to the earlier one, and "cap" also covers a state with no limit
    at all.
    """
    h = grid.spacing
    dt, limit = math.inf, "cap"
    vmax = max(float(J.max()), -float(J.min()))  # max|J|; NaN if J has one
    if vmax > 0.0:
        dt, limit = h / vmax, "advective"
    amax = float(np.max(a))
    if amax > 0.0:
        stiff = 2.0 / (amax * _max_symbol(grid, p))
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

    Three limits are combined with the safety factor: the face-flux
    (advective) limit h/max|vel| with vel = (u+mu)^(m-1) * pressure
    gradient, the viscosity limit h^2/(2 delta), and the limit
    2/(max(u+mu)^(m-1) * lambda_max) of the linearized pressure coupling
    u_t ~ -(u+mu)^(m-1) (-Delta)^(1-s) u, where lambda_max is the largest
    symbol value of the nonlocal operator in use.  Without the last limit
    the high modes of the pressure term go unstable even though the flux
    CFL is satisfied.  With zero velocity and delta = 0 the returned step
    is just `cap` (the configured horizon).  `w` is the pressure gradient
    of u when the caller already has it; it is computed otherwise.
    """
    if np.any(u.values < 0):
        raise ValueError("cfl_dt requires a nonnegative field")
    if w is None:
        w = pressure_gradient(u, p)
    J, a = _face_flux(u.values, w.values, p, _Workspace(u.grid.n))
    return _stable_dt(J, a, u.grid, p, cap)[0]


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
    outflow = _shifted(J, ws.b1, 1)
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
        donor = _shifted(factor, ws.b1, -1)
        np.copyto(donor, factor, where=np.greater(J, 0.0, out=ws.mask))
        J *= donor

    div = np.subtract(J, _shifted(J, ws.b1, 1), out=ws.b1)
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
        visc = _shifted(u_new, ws.b1, -1)
        visc -= np.multiply(u_new, 2.0, out=ws.b2)
        visc += _shifted(u_new, ws.b2, 1)
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
    J, _ = _face_flux(u.values, w.values, p, ws)
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
    the trajectory also records the dt range, the limit behind each step
    and how many steps the positivity limiter cut an outflow in.
    """
    if np.any(u0.values < 0):
        raise ValueError("initial data must be nonnegative")
    grid = u0.grid
    h = grid.spacing
    mass0 = float(h * u0.values.sum())
    clipped_mass = 0.0
    stored_times, snapshots, diags = [], [], []
    limits = dict.fromkeys(STEP_LIMITS, 0)
    dt_min, dt_max = math.inf, -math.inf
    steps = limiter_steps = 0

    def trajectory() -> Trajectory:
        span = (dt_min, dt_max) if steps else (math.nan, math.nan)
        return Trajectory(p, np.asarray(stored_times), snapshots, diags,
                          clipped_mass, steps, *span, limits, limiter_steps)

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
        nonlocal clipped_mass, steps, limiter_steps, dt_min, dt_max
        state.values = u
        w = pressure_gradient(state, p).values  # shared by the bound and the update
        J, a = _face_flux(u, w, p, ws)
        dt, limit = _stable_dt(J, a, grid, p, cap)
        if dt <= 0.0 or not math.isfinite(dt):
            dt, limit = cap, "cap"
        try:
            u_next, clipped, limited = _apply_flux(u, J, dt, h, p, ws)
        except SimulationUnstable:
            raise SimulationUnstable(t, trajectory()) from None
        clipped_mass += clipped
        steps += 1
        limiter_steps += limited
        limits[limit] += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
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


def fpme_profile_by_rescaling(
    u0: Field, q: float, sigma: float, tau_end: float = 14.0
) -> Field:
    """Self-similar FPME profile by relaxation in rescaled variables.

    Writing u(x, t) = t^(-N beta1) phi(x t^(-beta1), ln t) turns the flow
    into phi_tau = -(-Delta)^sigma (phi^q) + beta1 * div(y phi), whose
    steady state is the Barenblatt profile of the given mass.  Evolving the
    rescaled equation equates to evolving the original flow to time
    e^tau_end while continuously rescaling, which avoids resampling the
    slowly decaying tails through the box boundary.  The outward drift is
    discretized as an upwind face flux (a spectral derivative of the drift
    is neutrally stable and blows up under explicit stepping); its box
    truncation does not telescope, so mass is renormalized each step.
    """
    grid = u0.grid
    beta1 = 1.0 / ((q - 1.0) + 2.0 * sigma)  # N = 1
    h = grid.spacing
    mass = float(h * u0.values.sum())
    u = np.maximum(u0.values.copy(), 0.0)
    kmax_pow = (math.pi / h) ** (2.0 * sigma)
    order = FracOrder(sigma)
    y_face = grid.nodes + 0.5 * h
    y_face[-1] = 0.0  # no transport through the wrap face
    # transport velocity of the drift is -beta*y (inward): the donor of
    # each face is its outward neighbor
    outward = y_face > 0.0
    tau = 0.0
    while tau < tau_end:
        umax = float(u.max())
        dt_diff = 2.0 / (kmax_pow * q * max(umax, 1e-12) ** (q - 1.0))
        dt_drift = h / (beta1 * grid.half_length)
        dt = CFL_SAFETY * min(dt_diff, dt_drift, (tau_end - tau) / CFL_SAFETY)
        diff = _frac_laplacian_rows(u**q, grid, order)
        flux = y_face * np.where(outward, _roll1(u, -1), u)
        div_drift = (flux - _roll1(flux, 1)) / h
        u = u - dt * diff + dt * beta1 * div_drift
        u = np.maximum(u, 0.0)
        total = h * u.sum()
        if total > 0.0:
            u *= mass / total
        tau += dt
    return u0.with_values(u)
