"""Self-similar profiles and the algebra connecting the two models.

A Barenblatt profile of the fractional porous medium equation is
manufactured by relaxation in rescaled variables, its stationary-equation
residual is measured, and the power map phi -> c * phi^q carries it to a
profile of the nonlocal-pressure model whose own residual closes to the
same floor.  For m > 2 the further map to the quadratic-factor companion
equation is shown to invert exactly.
"""

import os

import numpy as np

from nlpme import (
    ProfileFamily,
    fpme_profile_by_rescaling,
    make_grid,
    residual_report,
    transform_fpme_profile,
    transform_profile_high_m,
)
from nlpme.grid import Field
from nlpme.initial_data import gaussian_bump
from nlpme.svgfig import LineFigure, Series, write_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

q, sigma = 2.0, 0.5
grid = make_grid(20.0, 1024)
print(f"relaxing the rescaled flow to its Barenblatt profile (q={q}, "
      f"sigma={sigma}) ...")
phi1, stats = fpme_profile_by_rescaling(gaussian_bump(grid, 1.0, width=1.0), q,
                                        sigma, tau_end=14.0)
print(f"  stopped at tau = {stats['tau']:.2f} of at most 14, after "
      f"{stats['steps']} steps")
rep1 = residual_report(phi1, ProfileFamily.FPME, q, sigma)
print(f"  source profile: sup {phi1.values.max():.4f}, relative residual "
      f"{rep1.relative:.2e}")

mapped = transform_fpme_profile(phi1, q, sigma)
rep2 = residual_report(mapped.profile, ProfileFamily.MASS_CONSERVING, mapped.m,
                       mapped.s)
print(f"  mapped to (m={mapped.m}, s={mapped.s}) with prefactor "
      f"{mapped.prefactor:.4f}: relative residual {rep2.relative:.2e} "
      f"({rep2.relative / rep1.relative:.2f}x the source floor)")

# the m > 2 companion map and its algebraic inverse
m_high = 3.0
positive = Field(grid, 0.2 + np.exp(-grid.nodes**2))
res = transform_profile_high_m(positive, m_high, 0.5)
back = res.c * res.profile.values**res.mhat
print(f"\nm={m_high} companion map: mhat = {res.mhat:g}, b = {res.b:.4f}, "
      f"round-trip error {np.max(np.abs(back - positive.values)):.2e}")

write_svg(LineFigure("profile transformation", "y", "profile", [
    Series(grid.nodes.tolist(), phi1.values.tolist(), "fpme Barenblatt"),
    Series(grid.nodes.tolist(), mapped.profile.values.tolist(),
           "pressure-model image"),
]), os.path.join(OUT, "profiles.svg"))
write_svg(LineFigure("stationary-equation residuals", "y", "residual", [
    Series(grid.nodes.tolist(), rep1.residual.values.tolist(), "source"),
    Series(grid.nodes.tolist(), rep2.residual.values.tolist(), "mapped"),
]), os.path.join(OUT, "profile_residuals.svg"))
print(f"figures written to {OUT}/")
