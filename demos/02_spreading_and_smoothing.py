"""Evolution of a point mass: conservation, monotone norms, smoothing.

A mollified point mass spreads under the nonlocal-pressure flow; the run
conserves mass to roundoff, every tracked norm decreases, and the
sup-norm decays like t^(-gamma) with gamma = N/((m-1)N + 2(1-s)).
"""

import os

import numpy as np

from nlpme import ModelParams, make_grid, simulate_density, smoothing_fit, standard_checks
from nlpme.initial_data import mollified_dirac
from nlpme.similarity import scaling_exponents
from nlpme.svgfig import LineFigure, Series, write_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

m, s = 1.5, 0.5
grid = make_grid(30.0, 1024)
u0 = mollified_dirac(grid, mass=1.0)
params = ModelParams(m, s)
snap_times = np.concatenate([[0.0], np.geomspace(0.5, 20.0, 25)])
traj = simulate_density(u0, params, 20.0, snap_times=snap_times)
print(f"evolved a point mass to t=20 in {traj.steps} steps "
      f"(clipped mass {traj.clipped_mass:.1e})")

ex = scaling_exponents(m, s)
checks = standard_checks(traj, ex)
print(f"mass drift:              {checks['mass_drift'].value:.2e}")
for key in ("sup_monotone", "l2_monotone", "l4_monotone",
            "second_energy_monotone"):
    print(f"{key:<24} worst uptick {checks[key].value:.2e}")

fit = smoothing_fit(traj, ex, window=(1.0, 20.0))
print(f"\nsup-norm decay: fitted exponent {fit.fitted_exponent:.4f}, "
      f"theory {fit.theory_exponent:.4f} "
      f"(gap {100 * fit.relative_gap:.1f}%)")

theory = fit.values[0] * (fit.times / fit.times[0]) ** fit.theory_exponent
write_svg(LineFigure("point-mass sup-norm decay", "t", "sup u", [
    Series(fit.times.tolist(), fit.values.tolist(), "measured"),
    Series(fit.times.tolist(), theory.tolist(), "theory slope"),
], logx=True, logy=True), os.path.join(OUT, "smoothing.svg"))

stride = max(1, len(traj.times) // 7)
write_svg(LineFigure("spreading of a point mass", "x", "u", [
    Series(grid.nodes.tolist(), traj.snapshots[i].values.tolist(),
           f"t={traj.times[i]:.2g}")
    for i in range(1, len(traj.times), stride)
]), os.path.join(OUT, "spreading.svg"))
print(f"figures written to {OUT}/")
