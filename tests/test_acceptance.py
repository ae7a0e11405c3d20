"""Acceptance suite: one test per criterion, printed verdict lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated elsewhere; each test
also reports its wall-clock against the stated budget.
"""

import time

import numpy as np
import pytest

from nlpme.diagnostics import (
    asymptotic_convergence,
    finite_propagation_report,
    smoothing_fit,
    standard_checks,
)
from nlpme.evolve import (
    ModelParams,
    fpme_profile_by_rescaling,
    simulate_density,
)
from nlpme.grid import Field, FracOrder, make_grid
from nlpme.initial_data import compact_bump, gaussian_bump, mollified_dirac, two_bump
from nlpme.integrated import (
    comparison_sweep,
    differentiate_primitive,
    infinite_speed_witness,
    integrate_density,
    simulate_integrated,
)
from nlpme.operators import frac_laplacian, mollified_frac_laplacian, riesz_gradient
from nlpme.similarity import (
    ProfileFamily,
    extract_profile,
    residual_report,
    scaling_exponents,
    transform_fpme_profile,
)


def _verdict(num, name, passed, detail, t0, budget):
    elapsed = time.monotonic() - t0
    line = (f"ACCEPTANCE {num:>2} {name}: {'PASS' if passed else 'FAIL'} "
            f"({detail}) [{elapsed:.1f}s / budget {budget:.0f}s]")
    print(line)
    assert passed, line
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_operator_exactness():
    """Fourier-mode eigenvalues to 1e-10 relative on n=256."""
    t0 = time.monotonic()
    g = make_grid(5.0, 256)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for mode in (1, 4, 19):
            k = np.pi * mode / g.half_length
            f = Field(g, np.cos(k * g.nodes))
            out = frac_laplacian(f, FracOrder(alpha)).values
            rel = np.max(np.abs(out - k ** (2 * alpha) * f.values)) / k ** (2 * alpha)
            worst = max(worst, rel)
    for s in (0.25, 0.5, 0.75):
        for mode in (2, 7):
            k = np.pi * mode / g.half_length
            f = Field(g, np.sin(k * g.nodes))
            out = riesz_gradient(f, s).values
            target = k ** (1 - 2 * s) * np.cos(k * g.nodes)
            worst = max(worst, np.max(np.abs(out - target)) / k ** (1 - 2 * s))
    _verdict(1, "operator exactness", worst < 1e-10,
             f"worst relative eigenvalue error {worst:.2e}", t0, 1.0)


def test_criterion_02_mollified_operator_convergence():
    """L2 error vs the spectral operator: empirical order >= 1.5."""
    t0 = time.monotonic()
    g = make_grid(5.0, 512)
    s = 0.9
    u = Field(g, np.exp(-0.5 * (g.nodes / 1.0) ** 2))
    ref = frac_laplacian(u, FracOrder(1.0 - s)).values
    eps_values = [0.2, 0.1, 0.05]
    errs = []
    for eps in eps_values:
        approx = mollified_frac_laplacian(u, s, eps).values
        errs.append(float(np.sqrt(g.spacing * np.sum((approx - ref) ** 2))))
    slope = float(np.polyfit(np.log(eps_values), np.log(errs), 1)[0])
    ok = slope >= 1.5 and errs[0] > errs[1] > errs[2]
    _verdict(2, "mollified-operator convergence", ok,
             f"order {slope:.3f}, errors {errs[0]:.2e} > {errs[1]:.2e} > "
             f"{errs[2]:.2e}", t0, 10.0)


@pytest.mark.parametrize("m,s", [(1.5, 0.3), (2.0, 0.5), (3.0, 0.7)])
def test_criterion_03_conservation_and_monotonicity(m, s):
    """Mass drift < 1e-8; sup, L2, L4 and second energy nonincreasing."""
    t0 = time.monotonic()
    g = make_grid(20.0, 1024)
    u0 = gaussian_bump(g, 1.0, width=1.0)
    traj = simulate_density(u0, ModelParams(m, s), 5.0,
                            snap_times=np.linspace(0.0, 5.0, 11))
    assert traj.clipped_mass < 1e-8 * traj.diagnostics[0].mass
    checks = standard_checks(traj)
    drift = checks["mass_drift"].value
    worst_viol = max(checks[k].value for k in
                     ("sup_monotone", "l2_monotone", "l4_monotone",
                      "second_energy_monotone"))
    ok = checks["mass_drift"].passed and all(
        checks[k].passed for k in ("sup_monotone", "l2_monotone",
                                   "l4_monotone", "second_energy_monotone"))
    _verdict(3, f"conservation/monotonicity (m={m}, s={s})", ok,
             f"drift {drift:.2e}, worst uptick {worst_viol:.2e}", t0, 60.0)


def test_criterion_04_smoothing_exponent():
    """m=1.5, s=0.5, point-mass data: fitted decay within 10% of 2/3."""
    t0 = time.monotonic()
    g = make_grid(30.0, 1024)
    u0 = mollified_dirac(g, mass=1.0)
    p = ModelParams(1.5, 0.5)
    snaps = np.concatenate([[0.0], np.geomspace(0.5, 20.0, 33)])
    traj = simulate_density(u0, p, 20.0, snap_times=snaps)
    ex = scaling_exponents(1.5, 0.5)
    fit = smoothing_fit(traj, ex, window=(1.0, 20.0))
    assert np.isclose(ex.gamma_p, 2.0 / 3.0)
    _verdict(4, "smoothing exponent", fit.relative_gap < 0.10,
             f"fitted {fit.fitted_exponent:.4f} vs -2/3, gap "
             f"{fit.relative_gap:.3f}", t0, 120.0)


def test_criterion_05_scaling_self_consistency():
    """lambda=2 rescaling commutes with evolution within 2% in L1."""
    t0 = time.monotonic()
    lam, m, s, t_cmp = 2.0, 2.0, 0.5, 0.5
    b = (m - 1.0) + 2.0 - 2.0 * s
    g = make_grid(20.0, 2048)
    p = ModelParams(m, s)
    u0 = gaussian_bump(g, 1.0, width=1.0)
    direct = simulate_density(u0, p, t_cmp, snap_times=[0.0, t_cmp]).snapshots[-1]
    squeezed = Field(g, lam * np.interp(lam * g.nodes, g.nodes, u0.values,
                                        left=0.0, right=0.0))
    other = simulate_density(squeezed, p, t_cmp / lam**b,
                             snap_times=[0.0, t_cmp / lam**b]).snapshots[-1]
    target = lam * np.interp(lam * g.nodes, g.nodes, direct.values,
                             left=0.0, right=0.0)
    rel = float(np.abs(other.values - target).sum() / np.abs(target).sum())
    _verdict(5, "scaling self-consistency", rel < 0.02,
             f"relative L1 gap {rel:.4f}", t0, 120.0)


def test_criterion_06_finite_propagation():
    """m=2, s=0.25: support radius affine in t with residual < 5%."""
    t0 = time.monotonic()
    g = make_grid(10.0, 1024)
    u0 = compact_bump(g, mass=1.0, radius=0.75)
    traj = simulate_density(u0, ModelParams(2.0, 0.25), 1.0,
                            snap_times=np.linspace(0.0, 1.0, 21))
    rep = finite_propagation_report(traj, window=(0.1, 1.0))
    _verdict(6, "finite propagation", rep.check.passed,
             f"affine-fit residual {rep.fit[2]:.4f}, slope {rep.fit[1]:.3f}",
             t0, 60.0)


def test_criterion_07_infinite_propagation_witness():
    """m=1.5, alpha=0.5: verified barrier below v, positivity at the probe."""
    t0 = time.monotonic()
    g = make_grid(15.0, 1024)
    u0 = compact_bump(g, mass=2.0, radius=1.25, center=-2.25)
    rep = infinite_speed_witness(integrate_density(u0), 1.5, 0.5, x0=-1.0,
                                 t_probe=0.1)
    ok = (rep.passed and rep.checks["subsolution_inequality"].value <= 0.0
          and rep.checks["initial_domination"].passed
          and rep.checks["right_domination"].passed
          and rep.v_at_probe > 0.0)
    _verdict(7, "infinite-propagation witness", ok,
             f"v({rep.probe_x:.2f}, 0.1) = {rep.v_at_probe:.2e} >= barrier "
             f"{rep.barrier_at_probe:.2e}; inequality max "
             f"{rep.checks['subsolution_inequality'].value:.2e}", t0, 120.0)


def test_criterion_08_duality():
    """d/dx of the integrated run matches the density run within 5% in L1
    at n=1024, improving at n=2048."""
    t0 = time.monotonic()
    rels = {}
    for n in (1024, 2048):
        g = make_grid(15.0, n)
        u0 = gaussian_bump(g, 1.0, width=0.8)
        traj = simulate_density(u0, ModelParams(1.5, 0.5), 0.5,
                                snap_times=[0.0, 0.5])
        _, states, _ = simulate_integrated(
            integrate_density(u0), 1.5, FracOrder(0.5), 0.5,
            snap_times=[0.0, 0.5])
        du = differentiate_primitive(states[-1]).values
        uref = traj.snapshots[-1].values
        rels[n] = float(np.abs(du - uref).sum() / np.abs(uref).sum())
    ok = rels[1024] < 0.05 and rels[2048] < rels[1024]
    _verdict(8, "duality", ok,
             f"L1 gap {rels[1024]:.4f} at n=1024 -> {rels[2048]:.4f} at n=2048",
             t0, 120.0)


def test_criterion_09_comparison_principle():
    """50 random ordered primitive pairs stay ordered for 100 steps."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    g = make_grid(10.0, 256)
    m, al = 1.5, FracOrder(0.5)
    pairs = []
    for _ in range(50):
        u = np.zeros(g.n)
        for _ in range(int(rng.integers(1, 4))):
            c, w, a = rng.uniform(-4, 4), rng.uniform(0.4, 1.2), rng.uniform(0.2, 1.0)
            u += a * np.exp(-0.5 * ((g.nodes - c) / w) ** 2)
        shift = rng.uniform(0.2, 1.5)
        ush = np.interp(g.nodes + shift, g.nodes, u, left=0.0, right=0.0)
        ush *= u.sum() / ush.sum()
        v = integrate_density(Field(g, u))
        V = integrate_density(Field(g, ush))
        V.values = np.maximum(V.values, v.values)
        pairs.append((v, V))
    # each pair steps with dt = min(cfl(v), cfl(V)), as stepping it alone
    worst, _, _ = comparison_sweep(pairs, m, al, 100)
    _verdict(9, "comparison principle", worst < 1e-8,
             f"worst ordering violation {worst:.2e}", t0, 60.0)


def test_criterion_10_transformation_closure():
    """Manufactured FPME profile mapped to the pressure model: residual
    below 3x the source floor, decreasing from n=512 to n=1024."""
    t0 = time.monotonic()
    q, sigma = 2.0, 0.5
    results = {}
    for n in (512, 1024):
        g = make_grid(20.0, n)
        phi1, _ = fpme_profile_by_rescaling(gaussian_bump(g, 1.0, width=1.0),
                                            q, sigma, tau_end=14.0)
        rep1 = residual_report(phi1, ProfileFamily.FPME, q, sigma)
        mapped = transform_fpme_profile(phi1, q, sigma)
        assert mapped.m == 1.5 and mapped.s == 0.5
        rep2 = residual_report(mapped.profile, ProfileFamily.MASS_CONSERVING,
                               mapped.m, mapped.s)
        results[n] = (rep1.relative, rep2.relative)
    ratio = results[1024][1] / results[1024][0]
    ok = ratio < 3.0 and results[1024][1] < results[512][1]
    _verdict(10, "transformation closure", ok,
             f"mapped/source residual ratio {ratio:.2f}; mapped "
             f"{results[512][1]:.3e} -> {results[1024][1]:.3e}", t0, 180.0)


@pytest.mark.parametrize("m", [1.5, 3.0])
def test_criterion_11_asymptotics(m):
    """Rescaled two-bump family: strictly decreasing consecutive L2
    distances at t=1 and L1-converging profile extractions, incl. m > 2."""
    t0 = time.monotonic()
    g = make_grid(15.0, 2048)
    u0 = two_bump(g, 1.0)
    p = ModelParams(m, 0.5)
    rep = asymptotic_convergence(u0, p, [1.0, 2.0, 4.0, 8.0], 1.0)
    strictly = all(b < a for a, b in zip(rep.pairwise_distances,
                                         rep.pairwise_distances[1:]))
    # profile extraction convergence along a plain long run
    ex = scaling_exponents(m, 0.5)
    traj = simulate_density(u0, p, 8.0, snap_times=[0.0, 1.0, 2.0, 4.0, 8.0])
    diffs = []
    for t_ex in (1.0, 2.0, 4.0):
        a = extract_profile(traj, ex, t_ex).values
        b = extract_profile(traj, ex, 2.0 * t_ex).values
        diffs.append(float(np.abs(a - b).sum() * g.spacing))
    converging = diffs[2] < diffs[1] < diffs[0]
    ok = strictly and converging
    _verdict(11, f"asymptotics (m={m})", ok,
             f"family distances {['%.3f' % d for d in rep.pairwise_distances]}, "
             f"extraction diffs {['%.3f' % d for d in diffs]}", t0, 600.0)


def test_criterion_12_determinism(tmp_path):
    """Every experiment pipeline, run twice: byte-identical CSV outputs."""
    from nlpme.config import parse_config
    from nlpme.experiments import run_experiment
    from nlpme.manifest import manifest_core

    t0 = time.monotonic()
    base = """
[experiment]
kind = {kind}
seed = 5
[model]
m = {m}
s = 0.5
[grid]
half_length = {L}
n = {n}
[time]
t_end = {t_end}
snapshots = 5
[initial]
kind = {init}
mass = 2.0
width = 1.0
radius = 1.25
center = {center}
[integrated]
pairs = 5
steps = 30
[continuation]
schedule = 0.1 0.01 0.01; 0.05 0.005 0.005
[smoothing]
window = 0.5 6
gap_tol = 1.0
[asymptotics]
lambdas = 1 2
[propagation]
x0 = -1.0
[barrier]
x0 = -1.0
[transform]
q = 2.0
sigma = 0.5
tau_end = 6.0
"""
    cases = {
        "simulate": dict(m=2.0, L=15.0, n=256, t_end=0.5, init="gaussian",
                         center=0.0),
        "integrated": dict(m=1.5, L=15.0, n=256, t_end=0.3, init="gaussian",
                           center=0.0),
        "continuation": dict(m=2.0, L=15.0, n=256, t_end=0.5, init="gaussian",
                             center=0.0),
        "propagation": dict(m=1.5, L=15.0, n=512, t_end=0.1, init="bump",
                            center=-2.25),
        "smoothing": dict(m=1.5, L=20.0, n=512, t_end=6.0, init="gaussian",
                          center=0.0),
        "asymptotics": dict(m=1.5, L=15.0, n=512, t_end=0.3, init="two-bump",
                            center=0.0),
        "transform-check": dict(m=2.0, L=15.0, n=256, t_end=0.5,
                                init="gaussian", center=0.0),
        "barrier-check": dict(m=1.5, L=15.0, n=512, t_end=0.1, init="bump",
                              center=-2.25),
    }
    mismatches = []
    for kind, params in cases.items():
        text = base.format(kind=kind, **params)
        digests = []
        for tag in ("a", "b"):
            outdir = tmp_path / f"{kind}-{tag}"
            run_experiment(parse_config(text), output_dir=str(outdir))
            csvs = sorted(f.name for f in outdir.glob("*.csv"))
            digests.append({f: (outdir / f).read_bytes() for f in csvs})
            digests[-1]["__manifest__"] = manifest_core(
                (outdir / "manifest.txt").read_text())
        if digests[0] != digests[1]:
            mismatches.append(kind)
    _verdict(12, "determinism", not mismatches,
             "all experiment pipelines byte-stable" if not mismatches
             else f"mismatches in {mismatches}", t0, 600.0)
