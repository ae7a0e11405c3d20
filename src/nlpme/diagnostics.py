"""Measurable consequences of the theory, as runtime checks.

Everything here turns a qualitative statement about the flow into a
number: mass conservation, decay of the norms and energies, the
L^1 -> L^inf smoothing exponent, support growth and tail masses for the
finite/infinite propagation dichotomy, and the Cauchy behavior of
rescaled solution families that stands in for convergence to the
self-similar attractor.  A pass/fail verdict is a :class:`CheckResult`,
the one check type of the per-run battery and of the run manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Field
from .evolve import ModelParams, RunAborted, Trajectory, simulate_density
from .similarity import ExponentSet, extract_profile, scaling_exponents

__all__ = [
    "mass",
    "support_radius",
    "tail_mass",
    "DecayFit",
    "decay_fit_span",
    "smoothing_fit",
    "CheckResult",
    "standard_checks",
    "rescaled_family",
    "ConvergenceReport",
    "asymptotic_convergence",
    "PropagationReport",
    "finite_propagation_report",
    "infinite_propagation_report",
]

PROBE_FACTOR = 1.5  # tail-mass probe radius over the initial support radius


def mass(u: Field) -> float:
    """Box integral of the samples (periodic trapezoid = rectangle sum)."""
    return float(u.grid.spacing * u.values.sum())


def support_radius(u: Field, threshold: float) -> float:
    """Largest |x_i| with u_i > threshold, or 0 for no such node."""
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    above = np.abs(u.values) > threshold
    if not np.any(above):
        return 0.0
    return float(np.max(np.abs(u.grid.nodes[above])))


def tail_mass(u: Field, R: float) -> float:
    """Mass at |x| >= R; R = 0 returns the total mass."""
    if R >= u.grid.half_length:
        raise ValueError(f"R={R} reaches past the box half-length")
    if R < 0.0:
        raise ValueError(f"R must be nonnegative, got {R}")
    outside = np.abs(u.grid.nodes) >= R
    return float(u.grid.spacing * u.values[outside].sum())


@dataclass
class DecayFit:
    times: np.ndarray
    values: np.ndarray
    fitted_exponent: float
    theory_exponent: float
    relative_gap: float


def decay_fit_span(times) -> bool:
    """Whether sorted fit times suffice for :func:`smoothing_fit`: at least
    5 of them, spanning at least a decade."""
    return len(times) >= 5 and times[-1] >= 10.0 * times[0]


def smoothing_fit(traj: Trajectory, ex: ExponentSet,
                  window: tuple = (1.0, 20.0)) -> DecayFit:
    """Log-log slope of the sup-norm against the predicted t^(-gamma).

    Needs at least 5 snapshots spanning a decade inside the window; the
    theory exponent is gamma_1 of the exponent set and relative_gap is
    |fitted + gamma| / gamma (1.0 for a constant-in-time trajectory).
    """
    t0, t1 = window
    times = traj.times
    sups = np.array([d.sup_norm for d in traj.diagnostics])
    sel = (times >= t0) & (times <= t1) & (sups > 0)
    if not decay_fit_span(times[sel]):
        raise ValueError("fit needs >= 5 snapshots spanning at least a decade")
    slope = float(np.polyfit(np.log(times[sel]), np.log(sups[sel]), 1)[0])
    gamma = ex.gamma_p
    return DecayFit(
        times=times[sel],
        values=sups[sel],
        fitted_exponent=slope,
        theory_exponent=-gamma,
        relative_gap=abs(slope + gamma) / gamma,
    )


@dataclass
class CheckResult:
    """A named pass/fail verdict and the number it rests on."""

    name: str
    passed: bool
    value: float
    detail: str = ""


def _monotone(name: str, values, tol: float) -> CheckResult:
    """Nonincreasing check: the value is the largest relative uptick
    between consecutive snapshots, and it passes below tol."""
    worst = 0.0
    for a, b in zip(values, values[1:]):
        if a > 0:
            worst = max(worst, (b - a) / a)
    return CheckResult(name, bool(worst < tol), float(worst))


def standard_checks(traj: Trajectory, ex: ExponentSet | None = None,
                    tol: float = 1e-8) -> dict:
    """The per-run conservation and monotonicity battery, {name: CheckResult}.

    mass drift, sup / L2 / L4 / second-energy monotonicity, and (when the
    exponent set is given and the run spans past t=1) the smoothing
    envelope sup u(t) <= 2 * C * t^(-gamma) M^delta with C fitted at the
    first snapshot past t=1.
    """
    d = traj.diagnostics
    m0 = d[0].mass
    drift = max(abs(x.mass - m0) for x in d) / m0 if m0 > 0 else 0.0
    checks = [CheckResult("mass_drift", bool(drift < tol), float(drift))]
    for name, attr in (("sup_monotone", "sup_norm"), ("l2_monotone", "l2_norm"),
                       ("l4_monotone", "l4_norm"),
                       ("second_energy_monotone", "second_energy")):
        checks.append(_monotone(name, [getattr(x, attr) for x in d], tol))
    if ex is not None and m0 > 0:
        times = traj.times
        sups = np.array([x.sup_norm for x in d])
        past = np.where(times >= 1.0)[0]
        if len(past) >= 2:
            i0 = past[0]
            gamma, delta = ex.gamma_p, ex.delta_p
            C = sups[i0] * times[i0] ** gamma / m0**delta
            bound = 2.0 * C * times[past] ** (-gamma) * m0**delta
            checks.append(CheckResult("decay_envelope",
                                      bool(np.all(sups[past] <= bound)),
                                      float(np.max(sups[past] / bound))))
    return {c.name: c for c in checks}


def _rescale_initial(u0: Field, lam: float) -> Field:
    """lam * u0(lam x) on the same grid, mass-renormalized to mass(u0).

    Raises RunAborted if a visible fraction of the mass lives beyond the
    box after the dilation (the box is too small for this lambda).
    """
    grid = u0.grid
    vals = lam * np.interp(lam * grid.nodes, grid.nodes, u0.values,
                           left=0.0, right=0.0)
    m0 = mass(u0)
    m1 = float(grid.spacing * vals.sum())
    if m0 > 0 and abs(m1 - m0) / m0 > 1e-3:
        raise RunAborted(
            f"box too small for lambda={lam}: {abs(m1 - m0) / m0:.2e} of the mass clipped"
        )
    if m1 > 0:
        vals *= m0 / m1
    return u0.with_values(vals)


def rescaled_family(u0: Field, p: ModelParams, lambdas, t_probe: float) -> list:
    """Evolve lam u0(lam x) to t_probe for each lam.

    All members share mass(u0) by construction plus conservation.  Returns
    their trajectories, in the order of lambdas, with frames at six even
    times over [0, t_probe] (the last one at t_probe).
    """
    lambdas = [float(l) for l in lambdas]
    if any(l < 1.0 for l in lambdas) or any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ValueError("lambdas must be >= 1 and increasing")
    snap_times = np.linspace(0.0, t_probe, 6)
    return [simulate_density(_rescale_initial(u0, lam), p, t_probe, snap_times=snap_times)
            for lam in lambdas]


@dataclass
class ConvergenceReport:
    pairwise_distances: list     # L^p distance between consecutive members
    decreasing: bool
    weighted_profile_distances: list  # t^(beta (1-1/p)) ||u - profile|| along the largest run
    weighted_decreasing: bool
    masses: list


def asymptotic_convergence(u0: Field, p: ModelParams, lambdas, t_probe: float,
                           lp: float = 2.0) -> ConvergenceReport:
    """Cauchy record of the rescaled family at t_probe.

    Consecutive L^p distances between family members must decrease for the
    family to be consistent with convergence to a self-similar limit.  The
    report also tracks t^(beta (1-1/p)) ||u(t) - profile|| along the
    largest-lambda run, with the profile extracted at that run's final time.
    """
    ex = scaling_exponents(p.m, p.s)
    runs = rescaled_family(u0, p, lambdas, t_probe)
    h = u0.grid.spacing

    def dist(a: Field, b: Field) -> float:
        return float((h * np.sum(np.abs(a.values - b.values) ** lp)) ** (1.0 / lp))

    finals = [r.snapshots[-1] for r in runs]
    pairwise = [dist(a, b) for a, b in zip(finals, finals[1:])]

    big = runs[-1]
    profile = extract_profile(big, ex, big.times[-1])
    weighted = []
    for t, snap in zip(big.times, big.snapshots):
        if t <= 0.0:
            continue
        ref = extract_profile_inverse(profile, ex, t)
        w = t ** (ex.beta2 * (1.0 - 1.0 / lp))
        weighted.append(w * dist(snap, ref))
    return ConvergenceReport(
        pairwise_distances=pairwise,
        decreasing=all(b < a for a, b in zip(pairwise, pairwise[1:])),
        weighted_profile_distances=weighted,
        weighted_decreasing=all(b < a for a, b in zip(weighted, weighted[1:])),
        masses=[mass(f) for f in finals],
    )


def extract_profile_inverse(profile: Field, ex: ExponentSet, t: float) -> Field:
    """Self-similar state t^(-alpha2) phi(x t^(-beta2)) built from a profile."""
    grid = profile.grid
    pos = grid.nodes * t ** (-ex.beta2)
    vals = t ** (-ex.alpha2) * np.interp(
        pos, grid.nodes, profile.values,
        left=profile.values[0], right=profile.values[-1],
    )
    return profile.with_values(vals)


@dataclass
class PropagationReport:
    """Support radii and tail masses over a run, and the check they decide."""

    times: np.ndarray
    support_radii: np.ndarray
    tail_masses: np.ndarray
    fit: tuple | None         # (intercept, slope, relative residual) for finite
    check: CheckResult


def finite_propagation_report(traj: Trajectory, threshold_rel: float = 1e-8,
                              window: tuple = (0.1, 1.0),
                              max_residual: float = 0.05) -> PropagationReport:
    """Fit the support radius to an affine function of time.

    The support threshold is relative to each snapshot's sup-norm; the
    check `support_affine_fit` passes if the relative RMS residual of the
    affine fit stays under `max_residual` over the window.
    """
    sel = (traj.times >= window[0]) & (traj.times <= window[1])
    times = traj.times[sel]
    radii, tails = [], []
    for snap in [s for s, keep in zip(traj.snapshots, sel) if keep]:
        radii.append(support_radius(snap, threshold_rel * float(np.max(snap.values))))
        tails.append(tail_mass(snap, 0.9 * traj.grid.half_length))
    radii = np.asarray(radii)
    coeffs = np.polyfit(times, radii, 1)
    fitvals = np.polyval(coeffs, times)
    scale = np.mean(radii)  # 0 when the support never leaves the centre node
    resid = float(np.sqrt(np.mean((radii - fitvals) ** 2)) / scale) if scale > 0 else math.inf
    slope = float(coeffs[0])
    return PropagationReport(
        times=times,
        support_radii=radii,
        tail_masses=np.asarray(tails),
        fit=(float(coeffs[1]), slope, resid),
        check=CheckResult("support_affine_fit", resid < max_residual, resid,
                          f"slope {slope:.4g}"),
    )


def infinite_propagation_report(traj: Trajectory,
                                initial_radius: float) -> PropagationReport:
    """Tail masses beyond PROBE_FACTOR times the initial support radius.

    `tail_mass_beyond_support` passes when the final tail exceeds 1e3 times
    the clipping floor.  It cannot tell m < 2 from m >= 2: the upwind
    scheme moves the support one cell per step at any m, so it compares
    steps * h with the probe distance (measured in README).  The evidence
    for infinite speed is :func:`nlpme.integrated.infinite_speed_witness`.
    """
    probe = PROBE_FACTOR * initial_radius
    tails = np.array([tail_mass(s, probe) for s in traj.snapshots])
    radii = np.array([
        support_radius(s, 1e-8 * max(float(np.max(s.values)), 1e-300))
        for s in traj.snapshots
    ])
    floor = max(traj.clipped_mass, 1e-15 * traj.diagnostics[0].mass)
    return PropagationReport(
        times=traj.times,
        support_radii=radii,
        tail_masses=tails,
        fit=None,
        check=CheckResult("tail_mass_beyond_support",
                          bool(tails[-1] > 1e3 * floor), float(tails[-1]),
                          f"probe radius {probe:.3g}"),
    )
