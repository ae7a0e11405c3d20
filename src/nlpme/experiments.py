"""Batch experiment pipelines behind the command-line driver.

Each experiment takes a validated configuration, runs the relevant
solvers, writes CSV tables and SVG figures into the output directory, and
returns named pass/fail checks.  A density run's snapshot matrix is
written as `snapshots.npy` (column 0 is x, column j the snapshot at row
j-1 of `diagnostics.csv`), streamed column by column.  The manifest
(check verdicts plus file checksums plus a config echo) is written last,
atomically; the process exit status is 0 only if every check passed.
"""

from __future__ import annotations

import os
import time

import numpy as np
import numpy.random  # numpy loads it on first use (default_rng); here set-up pays

from .config import ConfigError, ExperimentConfig, _floats, knob, window_knob
from .csvio import write_csv, write_npy_columns
from .diagnostics import (
    PROBE_FACTOR,
    asymptotic_convergence,
    decay_fit_span,
    finite_propagation_report,
    infinite_propagation_report,
    mass,
    smoothing_fit,
    standard_checks,
)
from .evolve import (
    RunAborted,
    SimulationUnstable,
    _relax_fpme,
    continuation_limit,
    simulate_density,
)
from .grid import Field, FracOrder, make_grid
from .initial_data import gaussian_bump
from .integrated import (
    _bump_support,
    _check_barrier_range,
    comparison_sweep,
    differentiate_primitive,
    infinite_speed_witness,
    integrate_density,
    simulate_integrated,
)
from .manifest import CheckResult, RunManifest, write_manifest
from .similarity import (
    ProfileFamily,
    ProfileKind,
    fpme_rate,
    residual_report,
    scaling_exponents,
    transform_fpme_profile,
)
from .svgfig import LineFigure, Series, write_svg

__all__ = ["run_experiment"]


def _snapshot_outputs(traj, outdir, files, max_curves: int = 8):
    grid = traj.grid
    write_npy_columns(os.path.join(outdir, "snapshots.npy"),
                      [grid.nodes] + [s.values for s in traj.snapshots])
    files.append("snapshots.npy")

    d = traj.diagnostics
    write_csv(
        os.path.join(outdir, "diagnostics.csv"),
        ["t", "mass", "sup_norm", "l2_norm", "l4_norm", "second_energy",
         "boundary_tail"],
        [traj.times,
         [x.mass for x in d], [x.sup_norm for x in d], [x.l2_norm for x in d],
         [x.l4_norm for x in d], [x.second_energy for x in d],
         [x.boundary_tail for x in d]],
    )
    files.append("diagnostics.csv")

    # step telemetry; steps_<limit> counts the steps that limit bound, so
    # those columns sum to steps, and limiter_steps the steps in which the
    # positivity limiter cut an outflow
    stats = {"steps": traj.steps, "clipped_mass": traj.clipped_mass,
             "dt_min": traj.dt_min, "dt_max": traj.dt_max,
             "dt_median": traj.dt_median}
    stats.update((f"steps_{name}", count) for name, count in traj.limits.items())
    stats["limiter_steps"] = traj.limiter_steps
    write_csv(os.path.join(outdir, "solver_stats.csv"), list(stats),
              [[value] for value in stats.values()])
    files.append("solver_stats.csv")

    stride = max(1, len(traj.times) // max_curves)
    series = [
        Series(grid.nodes, traj.snapshots[i].values, f"t={traj.times[i]:.3g}")
        for i in range(0, len(traj.times), stride)
    ]
    write_svg(LineFigure("density evolution", "x", "u", series),
              os.path.join(outdir, "density_evolution.svg"))
    files.append("density_evolution.svg")


def _barrier_knobs(cfg: ExperimentConfig, section: str) -> tuple:
    """x0 and t_probe of the barrier witness, checked before anything runs."""
    if not 1.0 < cfg.model.m < 2.0:
        raise ConfigError(f"model.m: the barrier needs 1 < m < 2, got {cfg.model.m:g}")
    x0 = knob(cfg, f"{section}.x0", float, -1.0)
    center, radius = _bump_support(x0)
    if not (x0 < 0.0 and center + radius < cfg.grid.half_length):
        raise ConfigError(f"{section}.x0: need x0 < 0 and the barrier bump on "
                          f"[-x0+1, -x0+3] inside the grid, got {x0:g}")
    t_probe = knob(cfg, f"{section}.t_probe", float, 0.1)
    if not t_probe > 0.0:
        raise ConfigError(f"{section}.t_probe: must be positive, got {t_probe:g}")
    try:
        _check_barrier_range(cfg.model.m, cfg.model.s, x0, t_probe)
    except ValueError as err:
        raise ConfigError(f"model.m: {err}") from None
    return x0, t_probe


def _fitting_primitive(u: Field, what: str):
    """Primitive of u, checked before any run: ConfigError naming
    grid.half_length when u reaches the box edge, where its primitive
    cannot match the boundary values 0 and M."""
    try:
        return integrate_density(u)
    except ValueError as exc:
        raise ConfigError(f"grid.half_length: {what} reach the box edge "
                          f"+-{u.grid.half_length:g} ({exc})") from None


def _standard_check_results(checks: dict) -> list:
    out = []
    for name, val in checks.items():
        if isinstance(val, tuple):
            value, ok = val
            out.append(CheckResult(name, bool(ok), float(value)))
        else:
            out.append(CheckResult(name, bool(val.passed), float(val.max_violation)))
    return out


def _exp_simulate(cfg: ExperimentConfig, outdir: str):
    u0 = cfg.initial_field()
    traj = simulate_density(u0, cfg.model, cfg.t_end, snap_times=cfg.snap_times)
    ex = scaling_exponents(cfg.model.m, cfg.model.s, cfg.model.N)
    checks = _standard_check_results(standard_checks(traj, ex))
    total = traj.diagnostics[0].mass
    tail = traj.diagnostics[-1].boundary_tail
    checks.append(CheckResult("boundary_tail_watchdog",
                              total == 0.0 or tail < 0.01 * total, tail,
                              "mass within 10% of the box edge at final time"))
    files: list = []
    _snapshot_outputs(traj, outdir, files)
    return checks, files


def _exp_integrated(cfg: ExperimentConfig, outdir: str):
    p = cfg.model
    tol_rel = knob(cfg, "integrated.duality_tol", float, 0.05)
    n_pairs = knob(cfg, "integrated.pairs", int, 50)
    n_steps = knob(cfg, "integrated.steps", int, 100)
    for key, value in (("integrated.pairs", n_pairs), ("integrated.steps", n_steps)):
        if value < 1:
            raise ConfigError(f"{key}: must be at least 1, got {value}")
    alpha = FracOrder(1.0 - p.s)

    # ordered pairs of the comparison sweep (mass-matched shifts: the box
    # surrogate of whole-line comparison needs equal far-field offsets).
    # Every pair is drawn before any run, so a box too small for them ends
    # the experiment before it starts; stepping draws no random numbers, so
    # the rng call order, and with it the seeded data, is that of drawing
    # and stepping one pair at a time.
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid
    what = "the comparison pairs (Gaussians centred within 0.4 L)"
    pairs = []
    for _ in range(n_pairs):
        u = np.zeros(grid.n)
        for _ in range(int(rng.integers(1, 4))):
            c = rng.uniform(-0.4 * grid.half_length, 0.4 * grid.half_length)
            w = rng.uniform(0.4, 1.2)
            a = rng.uniform(0.2, 1.0)
            u += a * np.exp(-0.5 * ((grid.nodes - c) / w) ** 2)
        shift = rng.uniform(0.2, 1.5)
        ush = np.interp(grid.nodes + shift, grid.nodes, u, left=0.0, right=0.0)
        ush *= u.sum() / ush.sum()
        v = _fitting_primitive(Field(grid, u), what)
        V = _fitting_primitive(Field(grid, ush), what)
        V.values = np.maximum(V.values, v.values)
        pairs.append((v, V))

    u0 = cfg.initial_field()
    v0 = _fitting_primitive(u0, "the initial data")
    traj = simulate_density(u0, p, cfg.t_end, snap_times=[0.0, cfg.t_end])
    times, states, stats = simulate_integrated(
        v0, p.m, alpha, cfg.t_end, snap_times=[0.0, cfg.t_end])
    du = differentiate_primitive(states[-1])
    uref = traj.snapshots[-1]
    rel = float(np.abs(du.values - uref.values).sum()
                / max(np.abs(uref.values).sum(), 1e-300))
    checks = [
        CheckResult("duality_l1", rel < tol_rel, rel,
                    f"d/dx of integrated run vs density run at t={cfg.t_end:g}"),
        CheckResult("monotonicity_repair",
                    stats.monotonicity_mass < 1e-6 * v0.total_mass,
                    stats.monotonicity_mass),
    ]
    worst, _ = comparison_sweep(pairs, p.m, alpha, n_steps)
    checks.append(CheckResult(
        "comparison_violation", worst < 1e-8, worst,
        f"{n_pairs} ordered pairs, {n_steps} steps each"))

    files: list = []
    write_csv(os.path.join(outdir, "primitive.csv"),
              ["x", "v_initial", "v_final", "density_final"],
              [grid.nodes, v0.values, states[-1].values, du.values])
    files.append("primitive.csv")
    write_csv(os.path.join(outdir, "repair_stats.csv"),
              ["monotonicity_mass", "clamp_mass"],
              [[stats.monotonicity_mass], [stats.clamp_mass]])
    files.append("repair_stats.csv")
    write_svg(LineFigure("integrated model", "x", "v", [
        Series(grid.nodes.tolist(), v0.values.tolist(), "t=0"),
        Series(grid.nodes.tolist(), states[-1].values.tolist(),
               f"t={cfg.t_end:g}"),
    ]), os.path.join(outdir, "primitive_evolution.svg"))
    files.append("primitive_evolution.svg")
    return checks, files


def _exp_continuation(cfg: ExperimentConfig, outdir: str):
    raw = knob(cfg, "continuation.schedule", str,
               "0.1 0.01 0.01; 0.05 0.005 0.005; 0.025 0.0025 0.0025")
    schedule = []
    for part in raw.split(";"):
        vals = [float(tok) for tok in part.replace(",", " ").split()]
        if len(vals) != 3:
            raise ConfigError(
                "continuation.schedule: each entry needs three values (eps delta mu)")
        schedule.append(tuple(vals))
    checkpoint = knob(cfg, "continuation.checkpoint", float, cfg.t_end)
    if not 0.0 <= checkpoint <= cfg.t_end:
        raise ConfigError(f"continuation.checkpoint: must lie in [0, time.t_end], "
                          f"got {checkpoint:g}")

    u0 = cfg.initial_field()
    final, report = continuation_limit(u0, cfg.model, schedule,
                                       t_end=cfg.t_end, checkpoint=checkpoint)
    m0 = mass(u0)
    mass_drift = max(abs(m - m0) / m0 for m in report.masses)
    checks = [
        CheckResult("cauchy_decreasing", report.decreasing,
                    report.distances[-1] if report.distances else 0.0,
                    "L2 distances at the checkpoint between consecutive runs"),
        CheckResult("mass_conservation", mass_drift < 1e-8, mass_drift),
    ]
    files: list = []
    write_csv(os.path.join(outdir, "continuation.csv"),
              ["eps", "delta", "mu", "final_mass"],
              [[s[0] for s in schedule], [s[1] for s in schedule],
               [s[2] for s in schedule], report.masses])
    files.append("continuation.csv")
    if report.distances:
        write_csv(os.path.join(outdir, "cauchy_distances.csv"),
                  ["pair", "l2_distance"],
                  [np.arange(1, len(report.distances) + 1), report.distances])
        files.append("cauchy_distances.csv")
    _snapshot_outputs(final, outdir, files)
    return checks, files


def _exp_propagation(cfg: ExperimentConfig, outdir: str):
    mode = knob(cfg, "propagation.mode", str,
                "finite" if cfg.model.m >= 2.0 else "infinite")
    if mode == "finite":
        window = window_knob(cfg, "propagation.window", (0.1, min(1.0, cfg.t_end)))
        inside = np.count_nonzero((cfg.snap_times >= window[0])
                                  & (cfg.snap_times <= window[1]))
        if inside < 3:
            raise ConfigError(
                f"propagation.window: holds {inside} of the snapshot times; "
                "the affine support fit needs at least 3")
    elif mode == "infinite":
        x0, t_probe = _barrier_knobs(cfg, "propagation")
    else:
        raise ConfigError(f"propagation.mode: unknown mode {mode!r}")
    u0 = cfg.initial_field()
    if mode == "infinite":
        v0 = _fitting_primitive(u0, "the initial data")
        thr = 1e-12 * float(np.max(u0.values))
        r0 = float(np.max(np.abs(cfg.grid.nodes[u0.values > thr])))
        if PROBE_FACTOR * r0 >= cfg.grid.half_length:
            raise ConfigError(
                f"grid.half_length: the tail-mass probe at {PROBE_FACTOR:g} times "
                f"the initial support radius {r0:g} reaches past the box "
                f"half-length {cfg.grid.half_length:g}")
    traj = simulate_density(u0, cfg.model, cfg.t_end, snap_times=cfg.snap_times)
    files: list = []
    checks: list = []
    if mode == "finite":
        rep = finite_propagation_report(traj, window=window)
        checks.append(CheckResult("support_affine_fit", rep.verdict, rep.fit[2],
                                  f"slope {rep.fit[1]:.4g}"))
        write_csv(os.path.join(outdir, "support_radius.csv"),
                  ["t", "radius", "boundary_tail"],
                  [rep.times, rep.support_radii, rep.tail_masses])
        files.append("support_radius.csv")
        write_svg(LineFigure("support radius growth", "t", "radius", [
            Series(rep.times.tolist(), rep.support_radii.tolist(), "measured"),
            Series(rep.times.tolist(),
                   (rep.fit[0] + rep.fit[1] * rep.times).tolist(), "affine fit"),
        ]), os.path.join(outdir, "support_radius.svg"))
        files.append("support_radius.svg")
    else:
        witness = infinite_speed_witness(v0, cfg.model.m, cfg.model.s, x0,
                                         t_probe=t_probe)
        rep = infinite_propagation_report(traj, r0, witness.passed)
        checks.append(CheckResult(
            "tail_mass_beyond_support",
            bool(rep.tail_masses[-1] > 1e3 * max(traj.clipped_mass,
                                                 1e-15 * mass(u0))),
            float(rep.tail_masses[-1]),
            f"probe radius {rep.probe_radius:.3g}"))
        checks.append(CheckResult("barrier_witness", witness.passed,
                                  witness.v_at_probe,
                                  f"probe x={witness.probe_x:.3g}"))
        write_csv(os.path.join(outdir, "tail_mass.csv"),
                  ["t", "tail_mass", "support_radius"],
                  [rep.times, rep.tail_masses, rep.support_radii])
        files.append("tail_mass.csv")
    _snapshot_outputs(traj, outdir, files)
    return checks, files


def _exp_smoothing(cfg: ExperimentConfig, outdir: str):
    wlo, whi = window_knob(cfg, "smoothing.window", (1.0, 20.0))
    gap_tol = knob(cfg, "smoothing.gap_tol", float, 0.10)
    first = max(wlo / 4, 1e-3)  # snapshots run geometrically from here to t_end
    if first > cfg.t_end:
        raise ConfigError(
            f"smoothing.window: snapshots start at max(lo/4, 1e-3) = {first:g}, "
            f"after time.t_end = {cfg.t_end:g}")
    snap_times = np.concatenate([[0.0], np.geomspace(first, cfg.t_end, 33)])
    inside = snap_times[(snap_times >= wlo) & (snap_times <= whi)]
    if not decay_fit_span(inside):
        raise ConfigError(
            f"smoothing.window: holds {len(inside)} of the snapshot times "
            f"(geometric from {first:g} to time.t_end = {cfg.t_end:g}); "
            "the decay fit needs >= 5 spanning at least a decade")
    u0 = cfg.initial_field()
    traj = simulate_density(u0, cfg.model, cfg.t_end, snap_times=snap_times)
    ex = scaling_exponents(cfg.model.m, cfg.model.s, cfg.model.N)
    fit = smoothing_fit(traj, ex, window=(wlo, whi))
    checks = [CheckResult(
        "smoothing_gap", fit.relative_gap < gap_tol, fit.relative_gap,
        f"fitted {fit.fitted_exponent:.4f} vs theory {fit.theory_exponent:.4f}")]
    files: list = []
    write_csv(os.path.join(outdir, "decay.csv"), ["t", "sup_norm"],
              [fit.times, fit.values])
    files.append("decay.csv")
    theory = fit.values[0] * (fit.times / fit.times[0]) ** fit.theory_exponent
    write_svg(LineFigure("sup-norm decay", "t", "sup u", [
        Series(fit.times.tolist(), fit.values.tolist(), "measured"),
        Series(fit.times.tolist(), theory.tolist(), "theory slope"),
    ], logx=True, logy=True), os.path.join(outdir, "decay_loglog.svg"))
    files.append("decay_loglog.svg")
    _snapshot_outputs(traj, outdir, files)
    return checks, files


def _exp_asymptotics(cfg: ExperimentConfig, outdir: str):
    lambdas = knob(cfg, "asymptotics.lambdas", _floats, (1.0, 2.0, 4.0, 8.0))
    if (len(lambdas) < 2 or not lambdas[0] >= 1.0
            or not all(b > a for a, b in zip(lambdas, lambdas[1:]))):
        raise ConfigError(
            "asymptotics.lambdas: need >= 2 strictly increasing values, the "
            f"first >= 1, got {lambdas}")
    t_probe = knob(cfg, "asymptotics.t_probe", float, cfg.t_end)
    lp = knob(cfg, "asymptotics.lp", float, 2.0)
    u0 = cfg.initial_field()
    report = asymptotic_convergence(u0, cfg.model, lambdas, t_probe, lp=lp)
    m0 = mass(u0)
    mass_spread = max(abs(m - m0) / m0 for m in report.masses)
    checks = [
        CheckResult("cauchy_decreasing", report.decreasing,
                    report.pairwise_distances[-1],
                    "consecutive rescaled-family distances"),
        CheckResult("family_mass_match", mass_spread < 1e-8, mass_spread),
        CheckResult("weighted_profile_decreasing", report.weighted_decreasing,
                    report.weighted_profile_distances[-1]
                    if report.weighted_profile_distances else 0.0),
    ]
    files: list = []
    write_csv(os.path.join(outdir, "family_distances.csv"),
              ["pair", "distance"],
              [np.arange(1, len(report.pairwise_distances) + 1),
               report.pairwise_distances])
    files.append("family_distances.csv")
    write_svg(LineFigure("rescaled-family Cauchy distances", "pair",
                         f"L{lp:g} distance", [
        Series(list(range(1, len(report.pairwise_distances) + 1)),
               report.pairwise_distances, "consecutive")],
        logy=True), os.path.join(outdir, "family_distances.svg"))
    files.append("family_distances.svg")
    return checks, files


def _exp_transform_check(cfg: ExperimentConfig, outdir: str):
    q = knob(cfg, "transform.q", float, 2.0)
    sigma = knob(cfg, "transform.sigma", float, 0.5)
    tau_end = knob(cfg, "transform.tau_end", float, 14.0)
    if not q > 1.0:  # the image exponent m = (2q-1)/q must exceed 1
        raise ConfigError(f"transform.q: must exceed 1, got {q:g}")
    if not 0.0 < sigma < 1.0:
        raise ConfigError(f"transform.sigma: must lie in (0, 1), got {sigma:g}")
    if not tau_end > 0.0:
        raise ConfigError(f"transform.tau_end: must be positive, got {tau_end:g}")
    ratio_tol = knob(cfg, "transform.ratio_tol", float, 3.0)
    grid = cfg.grid
    if grid.n < 32:  # make_grid needs n >= 16
        raise ConfigError(f"grid.n: transform-check refines from a grid of n/2 "
                          f"nodes, so n must be at least 32, got {grid.n}")
    coarse = make_grid(grid.half_length, grid.n // 2)
    kind1 = ProfileKind(ProfileFamily.FPME, fpme_rate(q, sigma))

    def residuals(g):
        u0 = gaussian_bump(g, cfg.initial.mass, width=1.0)
        values, stats = _relax_fpme(u0, q, sigma, tau_end)
        phi1 = u0.with_values(values)
        rep1 = residual_report(phi1, kind1, q, sigma)
        mapped = transform_fpme_profile(phi1, q, sigma)
        rep2 = residual_report(mapped.profile, mapped.kind, mapped.m, mapped.s)
        return phi1, mapped, rep1, rep2, {"n": g.n, **stats}

    *_, rep2_c, stats_c = residuals(coarse)
    phi1_f, mapped_f, rep1_f, rep2_f, stats_f = residuals(grid)
    ratio = rep2_f.relative / max(rep1_f.relative, 1e-300)
    checks = [
        CheckResult("residual_closure", ratio < ratio_tol, ratio,
                    f"mapped profile residual vs source floor at n={grid.n}"),
        CheckResult("residual_refinement", rep2_f.relative < rep2_c.relative,
                    rep2_f.relative,
                    f"n={coarse.n}: {rep2_c.relative:.3e} -> n={grid.n}: "
                    f"{rep2_f.relative:.3e}"),
    ]
    files: list = []
    write_csv(os.path.join(outdir, "profiles.csv"),
              ["y", "fpme_profile", "mapped_profile", "fpme_residual",
               "mapped_residual"],
              [grid.nodes, phi1_f.values, mapped_f.profile.values,
               rep1_f.residual.values, rep2_f.residual.values])
    files.append("profiles.csv")
    # relaxation telemetry, one row per grid, coarse first; clip_steps
    # counts the steps in which the positivity clip removed mass
    write_csv(os.path.join(outdir, "relaxation_stats.csv"), list(stats_f),
              [[stats_c[key], stats_f[key]] for key in stats_f])
    files.append("relaxation_stats.csv")
    write_svg(LineFigure("profile transformation", "y", "value", [
        Series(grid.nodes.tolist(), phi1_f.values.tolist(), "source"),
        Series(grid.nodes.tolist(), mapped_f.profile.values.tolist(), "mapped"),
    ]), os.path.join(outdir, "profiles.svg"))
    files.append("profiles.svg")
    write_svg(LineFigure("profile residual map", "y", "residual", [
        Series(grid.nodes.tolist(), rep2_f.residual.values.tolist(), "mapped"),
        Series(grid.nodes.tolist(), rep1_f.residual.values.tolist(), "source"),
    ]), os.path.join(outdir, "residual_map.svg"))
    files.append("residual_map.svg")
    return checks, files


def _exp_barrier_check(cfg: ExperimentConfig, outdir: str):
    p = cfg.model
    x0, t_probe = _barrier_knobs(cfg, "barrier")
    v0 = _fitting_primitive(cfg.initial_field(), "the initial data")
    witness = infinite_speed_witness(v0, p.m, p.s, x0, t_probe=t_probe)
    ineq = witness.inequality
    checks = [
        CheckResult("bump_tail_coefficient", witness.params.tail_coef > 0,
                    witness.params.tail_coef),
        CheckResult("subsolution_inequality", ineq["passed"], ineq["max_lhs"],
                    f"max over {ineq['n_probes']} probes and "
                    f"{len(ineq['per_time'])} times"),
        CheckResult("initial_domination", witness.initial_domination, 0.0),
        CheckResult("right_domination", witness.right_domination, 0.0),
        CheckResult("positivity_at_probe",
                    witness.v_at_probe > 0 and witness.barrier_at_probe > 0
                    and witness.v_at_probe >= witness.barrier_at_probe,
                    witness.v_at_probe,
                    f"barrier {witness.barrier_at_probe:.3e} at "
                    f"x={witness.probe_x:.3g}"),
    ]
    files: list = []
    bp = witness.params
    write_csv(os.path.join(outdir, "barrier.csv"),
              ["x0", "xi", "eps_b", "tau", "cap", "tail_coef", "gamma", "b",
               "probe_x", "v_at_probe", "barrier_at_probe"],
              [[bp.x0], [bp.xi], [bp.eps_b], [bp.tau], [bp.cap],
               [bp.tail_coef], [bp.gamma], [bp.b], [witness.probe_x],
               [witness.v_at_probe], [witness.barrier_at_probe]])
    files.append("barrier.csv")
    return checks, files


_DISPATCH = {
    "simulate": _exp_simulate,
    "integrated": _exp_integrated,
    "continuation": _exp_continuation,
    "propagation": _exp_propagation,
    "smoothing": _exp_smoothing,
    "asymptotics": _exp_asymptotics,
    "transform-check": _exp_transform_check,
    "barrier-check": _exp_barrier_check,
}


def run_experiment(cfg: ExperimentConfig, output_dir: str | None = None) -> RunManifest:
    """Dispatch an experiment and write all artifacts plus the manifest.

    A numerical abort (instability, too many steps, a box too small for
    the data) still produces a partial manifest with a failed `completed`
    check that names the cause.  A knob the pipeline rejects raises
    ConfigError, and leaves no output directory behind that this call
    made.  Returns the manifest; the caller decides the exit status from
    `manifest.all_passed`.
    """
    outdir = output_dir or cfg.output_dir
    created = not os.path.isdir(outdir)
    os.makedirs(outdir, exist_ok=True)
    man = RunManifest(experiment=cfg.experiment, config_text=cfg.raw_text)
    start = time.monotonic()
    try:
        checks, files = _DISPATCH[cfg.experiment](cfg, outdir)
        man.checks.extend(checks)
    except ConfigError:  # raised before the pipeline writes anything
        if created and not os.listdir(outdir):
            os.rmdir(outdir)
        raise
    except SimulationUnstable as exc:
        man.checks.append(CheckResult(
            "completed", False, exc.t_last,
            f"simulation unstable at t={exc.t_last:.6g}"))
        files = []
    except RunAborted as exc:
        man.checks.append(CheckResult("completed", False, exc.t_last, str(exc)))
        files = []
    man.wall_clock = time.monotonic() - start
    for rel in files:
        man.add_file(outdir, rel)
    write_manifest(man, outdir)
    return man
