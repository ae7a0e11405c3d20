"""Numerical laboratory for the porous medium equation with nonlocal pressure.

The density flow u_t = div(u^(m-1) grad (-Delta)^(-s) u) for m > 1 and
0 < s < 1 on a truncated periodic box, together with its regularized
approximation chain, the integrated one-dimensional form solved as a
monotone scheme, the self-similar exponent algebra with profile
transformations to the fractional porous medium equation, and diagnostics
that turn the flow's structural properties (conservation, monotone norms,
smoothing exponents, propagation speed, rescaled-family convergence) into
pass/fail checks.
"""

from .grid import Field, FracOrder, Grid1D, make_grid
from .evolve import (
    ContinuationReport,
    ModelParams,
    RunAborted,
    SimulationUnstable,
    Trajectory,
    cfl_dt,
    continuation_limit,
    fpme_profile_by_rescaling,
    pressure_gradient,
    simulate_density,
    step_density,
)
from .integrated import (
    BarrierParams,
    PrimitiveField,
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
from .operators import (
    frac_constant,
    frac_laplacian,
    inv_laplacian_gradient,
    mollified_frac_laplacian,
    neg_half_order_norm,
    riesz_gradient,
    spectral_derivative,
)
from .similarity import (
    ExponentSet,
    ProfileFamily,
    ProfileKind,
    extract_profile,
    fpme_rate,
    residual_report,
    scaling_exponents,
    transform_fpme_profile,
    transform_profile_high_m,
)
from .diagnostics import (
    asymptotic_convergence,
    finite_propagation_report,
    infinite_propagation_report,
    lp_norm,
    mass,
    rescaled_family,
    smoothing_fit,
    standard_checks,
    support_radius,
    tail_mass,
)

__version__ = "0.1.0"
