"""Self-similar exponent algebra, profile equations, and profile maps.

The nonlocal-pressure flow u_t = div(u^(m-1) grad (-Delta)^(-s) u) admits
self-similar solutions t^(-N*beta) phi(x t^(-beta)) with
beta = 1/(N(m-1) + 2 - 2s); the companion fractional porous medium
equation u_t + (-Delta)^sigma u^q = 0 has Barenblatt profiles with rate
beta1 = 1/(N(q-1) + 2 sigma).  An algebraic change of variables carries
profiles of one family into the other, and for m > 2 a further power map
reaches the quadratic-factor companion equation
v_t + v^2 (-Delta)^(1-s) v^(1/(m-2)) = 0.

Profile residuals discretize each stationary profile equation with the
one-dimensional spectral operators; the drift divergence is expanded by
the product rule (phi + y phi') so that only periodic factors ever see a
spectral derivative, and residuals are reported on the central part of
the box where the truncation of the y-weighted terms is immaterial.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grid import Field, FracOrder, Grid1D
from .operators import frac_laplacian, riesz_gradient, spectral_derivative

__all__ = [
    "ExponentSet",
    "ProfileFamily",
    "scaling_exponents",
    "fpme_rate",
    "FpmeTransformResult",
    "transform_fpme_profile",
    "HighMTransformResult",
    "transform_profile_high_m",
    "residual_report",
    "extract_profile",
    "barenblatt_m2",
]


@dataclass(frozen=True)
class ExponentSet:
    """Scaling exponents of the nonlocal-pressure flow for given (m, s, N, p).

    beta2 = 1/(N(m-1)+2-2s) and alpha2 = N*beta2 govern the mass-conserving
    self-similar form; b = 1/beta2 is the time-rescaling power; gamma_p and
    delta_p are the L^p -> L^inf smoothing exponents.
    """

    m: float
    s: float
    N: int
    p: float
    alpha2: float
    beta2: float
    b: float
    gamma_p: float
    delta_p: float


def scaling_exponents(m: float, s: float, N: int = 1, p: float = 1.0) -> ExponentSet:
    """Exponent algebra for the nonlocal-pressure model.

    Requires m > 1, 0 < s < 1, p >= 1.  beta2 * b = 1 by construction and
    gamma_p * ((m-1)N + 2p(1-s)) = N.
    """
    if not m > 1.0:
        raise ValueError(f"m must exceed 1, got {m}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")
    b = N * (m - 1.0) + 2.0 - 2.0 * s
    denom_p = (m - 1.0) * N + 2.0 * p * (1.0 - s)
    return ExponentSet(
        m=m, s=s, N=N, p=p,
        alpha2=N * (1.0 / b),
        beta2=1.0 / b,
        b=b,
        gamma_p=N / denom_p,
        delta_p=2.0 * p * (1.0 - s) / denom_p,
    )


def fpme_rate(q: float, sigma: float) -> float:
    """Barenblatt rate beta1 = 1/(q - 1 + 2 sigma) of the one-dimensional FPME.

    Defined (positive) only above the critical exponent q > 1 - 2 sigma.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie in (0, 1), got {sigma}")
    if q <= 1.0 - 2.0 * sigma:
        raise ValueError(f"q={q} is at or below the critical exponent {1.0 - 2.0 * sigma}")
    return 1.0 / (q - 1.0 + 2.0 * sigma)


def _companion_rate(mhat: float, s: float) -> float:
    """Rate b = 1/(mhat + 1 + 2(1 - s)) of the one-dimensional companion
    equation; positive for mhat > 0 and 0 < s < 1."""
    if not (mhat > 0.0 and 0.0 < s < 1.0):
        raise ValueError(f"the companion rate needs mhat > 0 and 0 < s < 1, "
                         f"got mhat={mhat}, s={s}")
    return 1.0 / (mhat + 1.0 + 2.0 * (1.0 - s))


class ProfileFamily(enum.Enum):
    MASS_CONSERVING = "mass-conserving"   # forward self-similar, rate beta2
    FPME = "fpme"                         # Barenblatt of the FPME, rate beta1
    COMPANION = "companion"               # quadratic-factor model, rate b


@dataclass
class FpmeTransformResult:
    profile: Field
    m: float
    s: float
    prefactor: float


def transform_fpme_profile(phi1: Field, q: float, sigma: float) -> FpmeTransformResult:
    """Map an FPME Barenblatt profile to a nonlocal-pressure profile.

    The image profile is (beta1/beta2)^(q/(1-q)) * phi1^q with
    m = (2q-1)/q, s = 1 - sigma and beta2 the mass-conserving rate of
    (m, s).  Any q <= 1 lands at m <= 1, outside the range of the pressure
    model (q = 1 also degenerates the prefactor exponent), and is
    rejected.  Every q > 1 lies above 1/(1 + 2 sigma), so the image always
    solves the mass-conserving profile equation.
    """
    if np.any(phi1.values < 0):
        raise ValueError("transform_fpme_profile requires a nonnegative profile")
    if not q > 1.0:
        raise ValueError(
            f"q={q} gives the image exponent m=(2q-1)/q <= 1, outside the "
            "pressure model's range; only q > 1 produces admissible profiles"
        )
    m, s = (2.0 * q - 1.0) / q, 1.0 - sigma
    pref = (fpme_rate(q, sigma) / scaling_exponents(m, s).beta2) ** (q / (1.0 - q))
    profile = phi1.with_values(pref * phi1.values**q)
    return FpmeTransformResult(profile=profile, m=m, s=s, prefactor=pref)


@dataclass
class HighMTransformResult:
    profile: Field
    mhat: float
    b: float
    c: float


def transform_profile_high_m(phi: Field, m: float, s: float) -> HighMTransformResult:
    """Map an m > 2 pressure-model profile to the companion equation.

    With mhat = 1/(m-2), the companion rate b = 1/(mhat + 1 + 2(1-s)) and
    c = (beta2/b)^(1/(m-1)), the companion profile is psi = (phi/c)^(1/mhat),
    i.e. (phi/c)^(m-2).  Nonnegative input is required; the inverse map is
    phi = c * psi^mhat.
    """
    if m <= 2.0:
        raise ValueError(f"the companion transformation needs m > 2, got {m}")
    if np.any(phi.values < 0):
        raise ValueError("profile must be nonnegative on the evaluation set")
    mhat = 1.0 / (m - 2.0)
    b = _companion_rate(mhat, s)
    c = (scaling_exponents(m, s).beta2 / b) ** (1.0 / (m - 1.0))
    psi = phi.with_values((phi.values / c) ** (m - 2.0))
    return HighMTransformResult(profile=psi, mhat=mhat, b=b, c=c)


def _profile_terms(
    phi: Field, family: ProfileFamily, m_or_q: float, s_or_sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinear term of the family's profile equation and its drift term,
    whose rate is derived from the exponents.

    MASS_CONSERVING and FPME carry rate*div(y phi), expanded as
    rate*(phi + y phi'); COMPANION carries rate*(phi - y phi'), with a
    spectral phi'.  Multiplying by y before differentiating would feed the
    sawtooth jump of y at the box wrap into the FFT; the product rule keeps
    every differentiated factor periodic.
    """
    pos = np.maximum(phi.values, 0.0)
    if family is ProfileFamily.FPME:
        rate = fpme_rate(m_or_q, s_or_sigma)
        nonlinear = frac_laplacian(
            phi.with_values(pos**m_or_q), FracOrder(s_or_sigma)).values
    elif family is ProfileFamily.COMPANION:
        rate = _companion_rate(m_or_q, s_or_sigma)
        nonlinear = phi.values**2 * frac_laplacian(
            phi.with_values(pos**m_or_q), FracOrder(1.0 - s_or_sigma)).values
    else:
        rate = scaling_exponents(m_or_q, s_or_sigma).beta2
        w = riesz_gradient(phi, s_or_sigma)
        nonlinear = spectral_derivative(
            phi.with_values(pos ** (m_or_q - 1.0) * w.values)).values
    y_dphi = phi.grid.nodes * spectral_derivative(phi).values
    if family is ProfileFamily.COMPANION:
        return nonlinear, rate * (phi.values - y_dphi)
    return nonlinear, rate * (phi.values + y_dphi)


@dataclass
class ResidualReport:
    residual: Field
    term_scale: float      # max magnitude of the individual equation terms
    interior_max: float    # max |residual| on the interior window
    relative: float        # interior_max / term_scale


def residual_report(
    phi: Field, family: ProfileFamily, m_or_q: float, s_or_sigma: float
) -> ResidualReport:
    """Pointwise residual of the family's one-dimensional stationary
    profile equation at exponents (m_or_q, s_or_sigma), plus a
    normalization by the size of the equation's terms.

    Residuals (zero for an exact profile):

    * MASS_CONSERVING (m, s):  div(phi^(m-1) grad (-Delta)^(-s) phi) + beta2*div(y phi)
    * FPME (q, sigma):         (-Delta)^sigma (phi^q) - beta1*div(y phi)
    * COMPANION (mhat, s):     phi^2 (-Delta)^(1-s) phi^mhat - b*(phi - y phi')

    Cells outside the grid's interior mask (the central 60% of the box)
    are set to zero: the y-weighted drift is meaningless near the
    truncation boundary.
    """
    nonlinear, drift = _profile_terms(phi, family, m_or_q, s_or_sigma)
    if family is ProfileFamily.MASS_CONSERVING:
        res = nonlinear + drift
    else:
        res = nonlinear - drift
    mask = phi.grid.interior_mask()
    res = phi.with_values(np.where(mask, res, 0.0))
    scale = max(
        float(np.max(np.abs(nonlinear[mask]))), float(np.max(np.abs(drift[mask])))
    )
    interior_max = float(np.max(np.abs(res.values)))
    return ResidualReport(
        residual=res,
        term_scale=scale,
        interior_max=interior_max,
        relative=interior_max / scale if scale > 0 else 0.0,
    )


def extract_profile(traj, ex: ExponentSet, t: float) -> Field:
    """Self-similar profile y -> t^alpha2 * u(y t^beta2, t) from a run.

    The snapshot at time t is taken from the trajectory (linear time
    interpolation), resampled at y * t^beta2 by linear interpolation in
    space, and rescaled by the single factor that restores the snapshot's
    exact mass (point sampling alone drifts the quadrature mass at order
    h^2).  At t = 1 the extraction is the identity.
    """
    snap = traj.snapshot_at(t)
    grid = snap.grid
    pos = grid.nodes * t**ex.beta2
    vals = t**ex.alpha2 * np.interp(
        pos, grid.nodes, snap.values, left=snap.values[0], right=snap.values[-1]
    )
    mass_snap = grid.spacing * snap.values.sum()
    mass_prof = grid.spacing * vals.sum()
    if mass_prof > 0.0 and mass_snap > 0.0:
        vals = vals * (mass_snap / mass_prof)
    return snap.with_values(vals)


def barenblatt_m2(grid: Grid1D, mass: float, t: float, s: float) -> Field:
    """Exact source-type solution of the m = 2, N = 1 flow, sampled at time t.

    U(x, t) = t^(-beta) A (R^2 - (x t^(-beta))^2)_+^sigma with
    beta = 1/(3 - 2s) and sigma = 1 - s (Biler, Imbert & Karch).  Since
    (-Delta)^sigma (1 - y^2)_+^sigma = c_sigma on |y| < 1, with
    c_sigma = 2^(2 sigma) Gamma(1 + sigma) Gamma(1/2 + sigma) / Gamma(1/2)
    (Dyda), the choice A c_sigma = beta makes the pressure gradient equal
    -beta y on the support, which is the profile equation.  R is fixed by
    the mass, int A (R^2 - y^2)_+^sigma dy = A R^(2 sigma + 1) B(1/2, 1 + sigma),
    and the support radius at time t is exactly R t^beta.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not (mass > 0.0 and t > 0.0):
        raise ValueError(f"mass and t must be positive, got mass={mass}, t={t}")
    beta, sigma = 1.0 / (3.0 - 2.0 * s), 1.0 - s
    c_sigma = (4.0**sigma * math.gamma(1.0 + sigma) * math.gamma(0.5 + sigma)
               / math.sqrt(math.pi))
    A = beta / c_sigma
    shape_mass = math.sqrt(math.pi) * math.gamma(1.0 + sigma) / math.gamma(1.5 + sigma)
    R = (mass / (A * shape_mass)) ** (1.0 / (2.0 * sigma + 1.0))
    y = grid.nodes * t**-beta
    return Field(grid, t**-beta * A * np.maximum(R * R - y * y, 0.0) ** sigma)
