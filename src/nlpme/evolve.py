"""Time integration of the nonlocal-pressure porous medium flow.

The density equation

    u_t = delta * Lap(u) + d/dx( (u + mu)^(m-1) * d/dx (-Delta)^(-s) u )

is advanced with a conservative explicit scheme: the pressure gradient is
spectral, the advective factor (u + mu)^(m-1) is upwinded by the transport
direction at each face, and face fluxes telescope so the box mass is
conserved to roundoff.  Outgoing fluxes are limited so that no cell can be
driven negative (the limiter only engages at degenerate front cells where
the naive update would overdraw).  The viscosity term follows as S equal
three-point substeps (`_viscous_substeps`, at most MAX_STAGES), each a
positive map, so the density step runs at the advective or stiffness
bound and not at CFL_SAFETY * h^2/(2 delta); whatever tiny negatives
remain are clipped and the clipped mass is tracked.

The pressure gradient is one Fourier multiplier, `_pressure_symbol`
(spectral, or the folded mollified symbol when eps > 0), applied on
arrays through the real FFT.  A step is that pressure evaluation,
`_face_flux` (the advective factor, face average and upwind choice), the
step bound (`_step_bounds`, `_safe_dt`; `cfl_dt` explains its limits)
and an update: the Euler `_apply_flux` (limiter, update) or, where
m >= 2 and the stiffness limit binds, an RKL1 step `_rkl_step` of the
S stages that reach the other limits (`_rkl_stages`), redone as the
Euler step if a stage goes negative; then `_finish_step` (the viscous
substeps, clipping, NaN check).  Every other step is bitwise the Euler
step of the public `cfl_dt` and `step_density`.  `simulate_density`
looks the symbol up once per run and keeps step telemetry.  The pieces
write every intermediate into a `_Workspace` of preallocated length-n
buffers and each new state into the state buffer that does not hold the
current one, so a step allocates no length-n array outside the pressure
evaluations.  The limiter's factor pass runs only when some cell has
POSITIVITY_HEADROOM * u < outflow: otherwise every factor is exactly 1.0
(see `_apply_flux`) and skipping the multiply changes no bit.

`_march` is the one time loop of this solver, the integrated scheme and
the FPME relaxation: snapshot schedule, horizon cap, interpolation of the
frames a step crosses and the step-count guard; each supplies its step.
The relaxation has one entry point, `fpme_profile_by_rescaling`, which
stops at stationarity or at tau_end and returns its step telemetry beside
the profile.
"""

from __future__ import annotations

import array
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, FracOrder, Grid1D
from .operators import (
    _CACHE_SIZE,
    _apply_rows,
    _even_symbol,
    _folded_symbol,
    _frac_laplacian_rows,
    _odd_symbol,
    _symbol,
    neg_half_order_norm,
)
from .similarity import fpme_rate

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
# bounds the flux evaluations of one RKL1 step and the viscous substeps of
# one step, so the viscosity limit is MAX_STAGES * h^2/(2 delta)
MAX_STAGES = 64
# the FPME relaxation stops at the first step that changes its profile by
# less than STATIONARY_TOL * dt * mass in L1
STATIONARY_TOL = 1e-4


@dataclass(frozen=True)
class ModelParams:
    """Exponents and regularization parameters of the approximation chain.

    m > 1 is the nonlinearity, s in (0,1) the pressure order.  eps mollifies
    the nonlocal operator, delta adds vanishing viscosity, mu shifts the
    degeneracy; all default to zero (the unregularized problem).  The
    solvers are one-dimensional: a model holds no space dimension.
    """

    m: float
    s: float
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
    `limits`, how many steps each bound of STEP_LIMITS set,
    `limiter_steps`, in how many steps the positivity limiter cut at least
    one cell's outflow, and `limited_flux_mass`, the flux mass it cut.
    `flux_evaluations` counts pressure evaluations (rfft/irfft pairs),
    one per Euler step and S per RKL1 step, and `fallback_steps` the RKL1
    steps redone as Euler steps.  A step redone after stage j costs j
    evaluations in all: u's pressure gradient is kept, so redoing its face
    flux after later stages overwrote it costs none.
    `viscosity_substeps` counts the three-point viscous substeps, S per
    step when delta > 0 (see `_viscous_substeps`) and none when delta = 0.
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
    flux_evaluations: int = 0
    fallback_steps: int = 0
    limited_flux_mass: float = 0.0
    viscosity_substeps: int = 0

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


def _pressure_symbol(grid: Grid1D, p: ModelParams) -> np.ndarray:
    """Half-spectrum symbol of the pressure gradient, cached and read-only:
    i*k*|k|^(-2s), or i*lambda(k)/k of the mollified operator when eps > 0."""
    if p.eps > 0.0:
        return _folded_symbol(grid.half_length, grid.n, p.s, p.eps)
    return _odd_symbol(grid.half_length, grid.n, -2.0 * p.s)


def pressure_gradient(u: Field, p: ModelParams) -> Field:
    """d/dx (-Delta)^(-s) u, or its mollified counterpart when eps > 0.

    For eps > 0 the factorization d/dx (-Delta)^(-1) L_eps is used, i.e. the
    spectral inverse-Laplacian gradient composed with the mollified operator
    of order 1-s, which restores the spectral route as eps -> 0.  Either
    form is one Fourier multiplier, `_pressure_symbol`, applied through the
    real FFT; `simulate_density` applies the same symbol to its arrays.
    """
    return u.with_values(_apply_rows(u.values, _pressure_symbol(u.grid, p)))


def _roll1(a: np.ndarray, shift: int, out: np.ndarray) -> np.ndarray:
    """np.roll(a, shift, axis=-1) for shift = +1 or -1, written by slices
    into `out`.

    Bitwise the same result, for one field or a (B, n) stack of them,
    without np.roll's generic-axis overhead, which costs more than the copy
    on the grids used here.
    """
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
    the outputs of :func:`_face_flux` and `cut` the flux mass the last
    limited :func:`_apply_flux` cut and `substeps` the viscous substeps
    of the last :func:`_finish_step`, `b1`..`b3`, `y` and `mask` are
    scratch, and each new state is written to the one of the two `states`
    buffers that does not hold the current state, so a step allocates no
    length-n array.
    """

    def __init__(self, n: int):
        self.a, self.J, self.w_face, self.b1, self.b2, self.b3, self.y = (
            np.empty(n) for _ in range(7))
        self.mask = np.empty(n, dtype=bool)
        self.states = (np.empty(n), np.empty(n))
        self.cut = 0.0
        self.substeps = 0

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


def _step_bounds(J: np.ndarray, a: np.ndarray, w_face: np.ndarray, grid: Grid1D,
                 p: ModelParams) -> dict:
    """The limits of :func:`cfl_dt` before CFL_SAFETY, by name, from the face
    fluxes; inf where a limit is absent.  The characteristic speed takes
    (max u + mu)^(m-2) as max(a)^((m-2)/(m-1)), so its one extra
    reduction is over w_face."""
    h = grid.spacing
    vmax = max(float(J.max()), -float(J.min()))  # max|J|; NaN if J has one
    amax = float(np.max(a))
    if amax > 0.0:
        wmax = max(float(w_face.max()), -float(w_face.min()))
        vmax = max(vmax, (p.m - 1.0) * amax ** ((p.m - 2.0) / (p.m - 1.0)) * wmax)
    lam = _max_symbol(grid.half_length, grid.n, p.s, p.eps)
    return {"advective": h / vmax if vmax > 0.0 else math.inf,
            "stiffness": 2.0 / (amax * lam) if amax > 0.0 else math.inf,
            "viscosity": MAX_STAGES * h * h / (2.0 * p.delta) if p.delta > 0.0
            else math.inf}


def _viscous_substeps(dt: float, h: float, delta: float) -> int:
    """Number S of equal three-point viscous substeps of a step of size dt:
    the fewest with dt/S <= CFL_SAFETY * h^2/(2 delta), at most MAX_STAGES.

    S is 1 wherever dt is within that bound, and MAX_STAGES where dt/S
    cannot reach it, including an infinite or NaN ratio.  Within the
    viscosity limit of `_step_bounds` the ratio is at most MAX_STAGES up
    to rounding, so each substep stays a positive map.
    """
    ratio = dt / (CFL_SAFETY * (h * h / (2.0 * delta)))
    return max(1, math.ceil(ratio)) if ratio <= MAX_STAGES else MAX_STAGES


def _safe_dt(bounds: dict, cap: float):
    """(dt, limit): CFL_SAFETY times the smallest bound, or cap when that is
    smaller, and the name in STEP_LIMITS of what set it; a tie goes to the
    earlier bound, and "cap" also covers a state with no limit at all."""
    dt, limit = math.inf, "cap"
    for name, bound in bounds.items():
        if bound < dt:
            dt, limit = bound, name
    dt = CFL_SAFETY * dt
    return (float(cap), "cap") if cap < dt else (float(dt), limit)


def _rkl_stages(bounds: dict, cap: float):
    """(S, dt, limit) of the RKL1 step that replaces a stiff Euler step: the
    fewest stages S <= MAX_STAGES whose stability bound, (S^2+S)/2 safe
    stiffness steps, reaches the step the other limits allow, and the
    smaller of the two steps with the limit that set it."""
    target, limit = _safe_dt({**bounds, "stiffness": math.inf}, cap)
    dt_stiff = CFL_SAFETY * bounds["stiffness"]
    S = 1
    while (S * S + S) / 2 * dt_stiff < target and S < MAX_STAGES:
        S += 1
    reach = (S * S + S) / 2 * dt_stiff
    return (S, target, limit) if target <= reach else (S, reach, "stiffness")


def cfl_dt(u: Field, p: ModelParams, cap: float = math.inf) -> float:
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
      it the high modes grow even when the advective limit holds.  The
      spectrum is real and nonpositive, so where this limit binds at
      m >= 2, :func:`simulate_density` takes an RKL1 step of S stages
      instead, stable up to (S^2+S)/2 times it.
    * viscosity, MAX_STAGES * h^2/(2 delta).  The step splits its
      three-point diffusion into S <= MAX_STAGES equal substeps, each
      within CFL_SAFETY * h^2/(2 delta) and so a positive map (see
      `_viscous_substeps`); this limit binds only where MAX_STAGES
      substeps fall short.

    With zero velocity and delta = 0 the returned step is just `cap` (the
    configured horizon).
    """
    if np.any(u.values < 0):
        raise ValueError("cfl_dt requires a nonnegative field")
    w = pressure_gradient(u, p)
    J, a, w_face = _face_flux(u.values, w.values, p, _Workspace(u.grid.n))
    return _safe_dt(_step_bounds(J, a, w_face, u.grid, p), cap)[0]


def _apply_flux(u: np.ndarray, J: np.ndarray, dt: float, h: float, p: ModelParams,
                ws: _Workspace):
    """One conservative step from the face fluxes.

    Returns (new values, clipped mass, limited); the new values are the
    workspace's state buffer that does not hold u, and J is overwritten
    with the limited fluxes.  Outgoing fluxes are scaled per donor cell so
    no cell loses more than POSITIVITY_HEADROOM of its content in one
    step; the scaling is applied to the shared face flux, so conservation
    is exact.  `limited` tells whether it cut any cell's outflow; if so,
    `ws.cut` is set to the flux mass dt * sum |J| (1 - factor) that the cut
    kept in place.  The update is followed by :func:`_finish_step`.
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
        cut = np.subtract(1.0, donor, out=ws.b3)  # the factors are read
        cut *= J
        ws.cut = dt * float(np.abs(cut, out=cut).sum())
        J *= donor

    div = np.subtract(J, _roll1(J, 1, ws.b1), out=ws.b1)
    div *= r
    u_new = np.subtract(u, div, out=ws.next_state(u))
    return u_new, _finish_step(u_new, dt, h, p, ws), limited


def _finish_step(u_new: np.ndarray, dt: float, h: float, p: ModelParams,
                 ws: _Workspace) -> float:
    """Clip, viscous substeps, clip and NaN check of a flux update, in
    place; returns the clipped mass and sets `ws.substeps`.

    The viscosity term is S = `_viscous_substeps` equal explicit steps
    of dt/S with the three-point Laplacian (S = 0 when delta = 0, and 1
    where dt is within CFL_SAFETY * h^2/(2 delta), which is the single
    update bit for bit).  Each substep conserves mass by telescoping and,
    for dt within the viscosity limit of :func:`cfl_dt`, is a positive
    map, as dt/S is then within that bound; the spectral Laplacian
    instead rings negative at degenerate fronts and burns the clipping
    budget.  The result is nonnegative; raises
    :class:`SimulationUnstable` on NaN, and where MAX_STAGES substeps
    leave dt/S past h^2/(2 delta), where a substep is no longer a
    positive map and the state would blow up instead.
    """
    clipped = 0.0
    negative = np.less(u_new, 0.0, out=ws.mask)
    if negative.any():
        clipped = float(-h * u_new[negative].sum())
        np.maximum(u_new, 0.0, out=u_new)
    ws.substeps = 0
    if p.delta > 0.0:
        # applied to the post-flux field: each (I + (dt/S)*delta*Lap_h)
        # preserves nonnegativity on its own, so the flux update and the
        # substeps cannot jointly overdraw a cell
        ws.substeps = _viscous_substeps(dt, h, p.delta)
        scale = dt / ws.substeps * p.delta
        if not 2.0 * scale <= h * h:  # dt/S past h^2/(2 delta): not a positive map
            raise SimulationUnstable(0.0)
        for _ in range(ws.substeps):
            visc = _roll1(u_new, -1, ws.b1)
            visc -= np.multiply(u_new, 2.0, out=ws.b2)
            visc += _roll1(u_new, 1, ws.b2)
            visc /= h**2
            visc *= scale
            u_new += visc
        negative = np.less(u_new, 0.0, out=ws.mask)
        if negative.any():
            clipped += float(-h * u_new[negative].sum())
            np.maximum(u_new, 0.0, out=u_new)
    if not np.isfinite(u_new, out=ws.mask).all():
        raise SimulationUnstable(0.0)
    return clipped


def _rkl_step(u: np.ndarray, J: np.ndarray, dt: float, stages: int, h: float,
              p: ModelParams, sym: np.ndarray, ws: _Workspace):
    """The flux update of an S-stage RKL1 step (Meyer, Balsara & Aslam,
    J. Comput. Phys. 2014), with L(v) = -D_-J(v)/h and w1 = 2/(S^2+S):

        Y_1 = u + w1 dt L(u),
        Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + mu_j w1 dt L(Y_{j-1}),

    mu_j = (2j-1)/j, nu_j = -(j-1)/j.  L telescopes and mu_j + nu_j = 1,
    so each stage conserves mass.  J is u's face flux; each later stage
    evaluates one pressure.  Stages alternate between `ws.y` and the spare
    state buffer, where Y_S lands.  Returns (Y_S, flux evaluations), with
    None for Y_S at the first stage that has a negative cell; raises
    :class:`SimulationUnstable` at a stage that is not finite.
    """
    w1 = 2.0 / (stages * stages + stages)
    spare = ws.next_state(u)
    buffers = (spare, ws.y) if stages % 2 else (ws.y, spare)
    prev2, prev = None, u
    for j in range(1, stages + 1):
        if j > 1:
            J, _, _ = _face_flux(prev, _apply_rows(prev, sym), p, ws)
        mu = (2 * j - 1) / j
        L = _roll1(J, 1, ws.b1)
        L -= J
        L /= h
        L *= mu * w1 * dt
        y = buffers[(j - 1) % 2]
        if j == 1:
            np.add(u, L, out=y)
        else:
            nu_term = np.multiply(prev2, -(j - 1) / j, out=ws.b2)
            np.multiply(prev, mu, out=y)
            y += nu_term
            y += L
        if not np.isfinite(y, out=ws.mask).all():
            raise SimulationUnstable(0.0)
        if np.less(y, 0.0, out=ws.mask).any():
            return None, j
        prev2, prev = prev, y
    return prev, stages


def step_density(u: Field, p: ModelParams, dt: float) -> tuple[Field, float]:
    """One explicit conservative step of the density equation.

    Returns the stepped field and the mass clipped to keep it nonnegative.
    Requires u >= 0 and dt within the CFL bound of :func:`cfl_dt`.  The
    step is the positivity-limited flux update followed by the three-point
    viscosity term in `_viscous_substeps` equal substeps.  Raises
    :class:`SimulationUnstable` on NaN, and at a dt so far past the
    viscosity limit that MAX_STAGES substeps each exceed h^2/(2 delta).
    """
    if np.any(u.values < 0):
        raise ValueError("step_density requires a nonnegative field")
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
    snapshot time; raises RunAborted past MAX_STEPS steps, or as soon as a
    step is so short that t_end lies more than 1e3 * MAX_STEPS such steps
    away.
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
        if pending and t_end - t > 1e3 * MAX_STEPS * dt:
            raise RunAborted(f"step {dt:.3g} at t={t:.6g} cannot reach t_end = "
                             f"{t_end:.6g} within {MAX_STEPS} steps", t)


def _dt_span(values) -> tuple:
    """(min, median, max) of all the step sizes, nan for none, from one sort:
    bit for bit np.min, np.median and np.max; np.median itself would load
    numpy.ma, for a masked-array check that no nlpme array needs."""
    v = np.sort(values, axis=None)
    if not len(v):
        return (math.nan,) * 3
    mid = len(v) // 2
    median = v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0
    return float(v[0]), float(median), float(v[-1])


def simulate_density(u0: Field, p: ModelParams, t_end: float, snap_times) -> Trajectory:
    """Evolve u0 with adaptive CFL steps, storing snapshots at snap_times.

    The snapshot times must lie in [0, t_end]; each is filled by linear
    interpolation between the bracketing computed states.  Clipping is
    accumulated over the whole run and the run aborts if it ever exceeds
    1e-6 of the initial mass, after the step that overspent it.  A step
    is bitwise the one :func:`cfl_dt` and :func:`step_density` would take,
    save where m >= 2 and the stiffness limit binds: there it is an RKL1
    step (see `_rkl_stages`), or that Euler step if a stage goes negative.
    The trajectory also keeps the step telemetry of :class:`Trajectory`.
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
    limiter_steps = evaluations = fallbacks = substeps = 0
    cut_mass = 0.0

    def trajectory() -> Trajectory:
        dt_min, dt_median, dt_max = _dt_span(dts)
        return Trajectory(p, np.asarray(stored_times), snapshots, diags,
                          clipped_mass, len(dts), dt_min, dt_max, dt_median, limits,
                          limiter_steps, evaluations, fallbacks, cut_mass, substeps)

    # Steps work on plain arrays in one workspace, the states alternating
    # between its two state buffers; _march's frames are fresh arrays, so
    # no snapshot aliases them.
    ws = _Workspace(grid.n)
    np.copyto(ws.states[0], u0.values)
    sym = _pressure_symbol(grid, p)

    def step(u, t, cap):
        nonlocal clipped_mass, limiter_steps, evaluations, fallbacks, cut_mass
        nonlocal substeps
        w = _apply_rows(u, sym)  # the bound, the first stage and any fallback
        J, a, w_face = _face_flux(u, w, p, ws)
        bounds = _step_bounds(J, a, w_face, grid, p)
        dt, limit = _safe_dt(bounds, cap)
        if dt <= 0.0 or not math.isfinite(dt):
            dt, limit = cap, "cap"
        stages = 1
        if p.m >= 2.0 and limit == "stiffness":
            stages, dt_rkl, limit_rkl = _rkl_stages(bounds, cap)
        evals, fell_back = 1, False  # counted once the step completes
        try:
            u_next = None
            if stages > 1:
                u_next, evals = _rkl_step(u, J, dt_rkl, stages, h, p, sym, ws)
                if u_next is None:  # a stage went negative: take the Euler step
                    fell_back = True
                    if evals > 1:  # the later stages overwrote u's face flux
                        J, _, _ = _face_flux(u, w, p, ws)
                else:
                    dt, limit = dt_rkl, limit_rkl
                    clipped, limited = _finish_step(u_next, dt, h, p, ws), False
            if u_next is None:
                u_next, clipped, limited = _apply_flux(u, J, dt, h, p, ws)
        except SimulationUnstable:
            raise SimulationUnstable(t, trajectory()) from None
        clipped_mass += clipped
        evaluations += evals
        fallbacks += fell_back
        substeps += ws.substeps
        if limited:
            limiter_steps += 1
            cut_mass += ws.cut
        limits[limit] += 1
        dts.append(dt)
        return u_next, dt

    for t, frames in _march(ws.states[0], t_end, snap_times, step):
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
    """Cauchy record of the regularization-removal chain, with the step
    telemetry of each run (see :class:`Trajectory`)."""

    distances: list  # L2 distance between consecutive runs at the checkpoint
    masses: list     # final mass of each run
    decreasing: bool
    steps: list               # steps of each run
    flux_evaluations: list    # pressure evaluations of each run
    viscosity_substeps: list  # viscous substeps of each run


def _checked_schedule(schedule) -> list:
    """The schedule as float triples; ValueError unless it is nonempty, >= 0
    and each coordinate falls strictly from one triple to the next or stays 0."""
    schedule = [tuple(float(x) for x in tri) for tri in schedule]
    if not schedule:
        raise ValueError("schedule must contain at least one (eps, delta, mu) triple")
    if any(x < 0 for tri in schedule for x in tri):
        raise ValueError(f"schedule entries must be nonnegative, got {schedule}")
    for prev, nxt in zip(schedule, schedule[1:]):
        for a, b in zip(prev, nxt):
            if not (b < a or (a == 0.0 and b == 0.0)):
                raise ValueError("schedule must decrease strictly to zero in each "
                                 f"coordinate: {prev} -> {nxt}")
    return schedule


def continuation_limit(
    u0: Field,
    p: ModelParams,
    schedule,
    t_end: float = 1.0,
    checkpoint: float | None = None,
):
    """Run the solver along a vanishing (eps, delta, mu) schedule.

    The schedule must pass `_checked_schedule`.  Returns the final run's
    trajectory (frames at five even times over [0, t_end] and at the
    checkpoint) plus a report with the L2 distances at the checkpoint time
    between consecutive runs, which should decrease as the regularization
    vanishes, and every run's final mass and step counts.
    """
    schedule = _checked_schedule(schedule)
    if checkpoint is None:
        checkpoint = t_end
    snap_times = sorted(set(np.linspace(0.0, t_end, 5)) | {float(checkpoint)})
    h = u0.grid.spacing
    runs = [
        simulate_density(u0, ModelParams(p.m, p.s, eps=eps, delta=delta, mu=mu),
                         t_end, snap_times=snap_times)
        for eps, delta, mu in schedule
    ]
    checkpoints = [r.snapshot_at(checkpoint).values for r in runs]
    distances = [
        float(np.sqrt(h * np.sum((a - b) ** 2)))
        for a, b in zip(checkpoints, checkpoints[1:])
    ]
    masses = [r.diagnostics[-1].mass for r in runs]
    decreasing = all(b < a for a, b in zip(distances, distances[1:]))
    return runs[-1], ContinuationReport(
        distances, masses, decreasing, [r.steps for r in runs],
        [r.flux_evaluations for r in runs], [r.viscosity_substeps for r in runs])


def _dilate(primitive: np.ndarray, faces: np.ndarray, stretch: float) -> np.ndarray:
    """Cell masses after the dilation Phi(y) -> Phi(stretch * y), stretch >= 1.

    `primitive` is the cumulative mass Phi at the increasing cell `faces`;
    the new Phi is its linear interpolant at the stretched faces.  That
    interpolant is monotone, so the masses are nonnegative, and faces
    stretched past the box edge clamp to Phi's end values, so their sum
    is the old total to roundoff.  This is the exact flow of
    phi_tau = beta * d/dy (y phi) over tau = ln(stretch) / beta.
    """
    return np.diff(np.interp(stretch * faces, faces, primitive))


def fpme_profile_by_rescaling(
    u0: Field, q: float, sigma: float, tau_end: float = 14.0
) -> tuple[Field, dict]:
    """Self-similar FPME profile by relaxation in rescaled variables.

    Writing u(x, t) = t^(-N beta1) phi(x t^(-beta1), ln t) turns the flow
    into phi_tau = -(-Delta)^sigma (phi^q) + beta1 * div(y phi), whose
    steady state is the Barenblatt profile of the given mass.  Evolving the
    rescaled equation equates to evolving the original flow to time
    e^tau while continuously rescaling, which avoids resampling the
    slowly decaying tails through the box boundary.  Each step is
    split: explicit fractional diffusion, the positivity clip, then the
    drift, which is a pure dilation and is stepped exactly on the
    primitive Phi (the cumulative mass at the cell faces): Phi(y) becomes
    Phi(e^(beta1 dt) y), linearly interpolated, and the new cell values
    are its differences.  The remapped Phi stays monotone and its ends
    stay 0 and M, so the drift keeps phi >= 0 and conserves mass to
    roundoff at any dt, needs no linear solve, and the step bound is the
    diffusion's alone.  The renormalization each step restores mass
    removed by the positivity clip.

    The profile converges like e^(-tau), so tau_end is an upper bound:
    the relaxation stops after the first step of size dt that moves phi
    by less than STATIONARY_TOL * dt * M in L1 (M the mass of u0), and
    returns that step's state; a run that reaches tau_end first returns
    the state there.  Any u0 of the right mass will do, so a profile
    relaxed on a coarser grid and moved onto this one starts it close to
    its fixed point.

    Returns (profile, stats): stats holds the step count, `tau`, the
    rescaled time reached, the dt minimum, median and maximum, and
    `clip_steps`, the number of steps in which the positivity clip
    removed mass.  The steps run through `_march`: raises
    :class:`RunAborted` past MAX_STEPS steps, and
    :class:`SimulationUnstable` at the rescaled time reached when phi^q,
    the step or its dilation factor is not finite.
    """
    grid = u0.grid
    beta1 = fpme_rate(q, sigma)  # N = 1
    h = grid.spacing
    mass = float(h * u0.values.sum())
    u = np.maximum(u0.values.copy(), 0.0)
    kmax_pow = (math.pi / h) ** (2.0 * sigma)
    order = FracOrder(sigma)
    faces = grid.nodes[0] - 0.5 * h + h * np.arange(grid.n + 1)
    primitive = np.zeros(grid.n + 1)  # Phi at the faces; Phi = 0 at the left edge
    dts = array.array("d")
    clip_steps = 0
    latest, stationary = u, False

    def step(u, tau, cap):
        nonlocal clip_steps, latest, stationary
        try:
            rhs = _frac_laplacian_rows(u**q, grid, order)
        except ValueError:
            raise SimulationUnstable(tau) from None
        umax = float(u.max())
        rate = kmax_pow * q * max(umax, 1e-12) ** (q - 1.0)  # 0.0 if it underflows
        dt_diff = 2.0 / rate if rate > 0.0 else math.inf
        dt = CFL_SAFETY * min(dt_diff, cap / CFL_SAFETY)
        stretch = np.exp(beta1 * dt)  # inf, not a warning, under the march's errstate
        if not (math.isfinite(dt) and math.isfinite(stretch)):  # tau_end ~ 1e308
            raise SimulationUnstable(tau)
        rhs *= -dt
        rhs += u
        clip_steps += bool(rhs.min() < 0.0)
        np.maximum(rhs, 0.0, out=rhs)
        np.cumsum(rhs, out=primitive[1:])
        primitive[1:] *= h
        latest = _dilate(primitive, faces, stretch) / h
        total = h * latest.sum()
        if total > 0.0:
            latest *= mass / total
        change = np.abs(np.subtract(latest, u, out=rhs), out=rhs)
        stationary = bool(h * change.sum() < STATIONARY_TOL * dt * mass)
        dts.append(dt)
        return latest, dt

    # an overflowing u**q is caught by the operator's finiteness check, before
    # max(u)^(q-1) could overflow in the step bound
    with np.errstate(over="ignore"):
        for tau, frames in _march(u, tau_end, [tau_end], step):
            if frames:  # tau_end reached
                (_, phi), = frames
            elif stationary:
                phi = latest
                break
    dt_min, dt_median, dt_max = _dt_span(dts)
    return u0.with_values(phi), {"steps": len(dts), "tau": tau, "dt_min": dt_min,
                                 "dt_median": dt_median, "dt_max": dt_max,
                                 "clip_steps": clip_steps}
