"""Batch experiment pipelines behind the command-line driver.

Each experiment takes a validated configuration, runs the relevant
solvers, writes CSV tables and SVG figures into the output directory, and
returns its checks as `CheckResult`s.  It writes what the public library
calls return, such as the check battery's results and the relaxation's
telemetry, with no adapter in between.  Every file is written through one
`_Outputs` writer, which checksums it, streaming, into the manifest as
soon as it is written, so no output can miss the inventory.  A density
run's snapshot matrix is written as `snapshots.npy` (column 0 is x,
column j the snapshot at row j-1 of `diagnostics.csv`), streamed column
by column.  The manifest (check verdicts plus file checksums plus a
config echo) is written last, atomically; the process exit status is 0
only if every check passed.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np

from .config import ConfigError, ExperimentConfig
from .csvio import write_csv, write_npy_columns
from .diagnostics import (
    CheckResult,
    _finite_speed,
    asymptotic_convergence,
    finite_propagation_report,
    mass,
    smoothing_fit,
    standard_checks,
)
from .evolve import (
    RunAborted,
    SnapshotDiagnostics,
    continuation_limit,
    fpme_profile_by_rescaling,
    simulate_density,
)
from .grid import Field, FracOrder, Grid1D, make_grid
from .initial_data import gaussian_bump
from .integrated import (
    comparison_sweep,
    differentiate_primitive,
    infinite_speed_witness,
    integrate_density,
    simulate_integrated,
)
from .manifest import RunManifest, write_manifest
from .similarity import (
    ProfileFamily,
    residual_report,
    scaling_exponents,
    transform_fpme_profile,
)
from .svgfig import LineFigure, Series, write_svg

__all__ = ["run_experiment"]

MAX_CURVES = 8  # snapshots drawn in density_evolution.svg, at most


class _Outputs:
    """Writer of a run's output files: each method writes one file into
    `outdir`, then enters its checksum in the manifest `man`."""

    def __init__(self, outdir: str, man: RunManifest):
        self.outdir, self.man = outdir, man

    def csv(self, name: str, header, columns) -> None:
        write_csv(os.path.join(self.outdir, name), header, columns)
        self.man.add_file(self.outdir, name)

    def svg(self, name: str, fig: LineFigure) -> None:
        write_svg(fig, os.path.join(self.outdir, name))
        self.man.add_file(self.outdir, name)

    def npy(self, name: str, columns) -> None:
        write_npy_columns(os.path.join(self.outdir, name), columns)
        self.man.add_file(self.outdir, name)

    def stats(self, name: str, stats: dict) -> None:
        """A one-row table, one column per key."""
        self.csv(name, list(stats), [[value] for value in stats.values()])


def _snapshot_outputs(traj, out: _Outputs):
    grid = traj.grid
    out.npy("snapshots.npy", [grid.nodes] + [s.values for s in traj.snapshots])

    names = [f.name for f in dataclasses.fields(SnapshotDiagnostics)]
    out.csv("diagnostics.csv", ["t", *names],
            [traj.times, *([getattr(x, name) for x in traj.diagnostics] for name in names)])

    # step telemetry: Trajectory's keyword-only fields in declaration order,
    # `limits` as steps_<limit>, the steps that limit bound, so those
    # columns sum to steps
    stats = {}
    for f in dataclasses.fields(traj):
        if f.name == "limits":
            stats.update((f"steps_{name}", count) for name, count in traj.limits.items())
        elif f.kw_only:
            stats[f.name] = getattr(traj, f.name)
    out.stats("solver_stats.csv", stats)

    stride = max(1, len(traj.times) // MAX_CURVES)
    series = [
        Series(grid.nodes, traj.snapshots[i].values, f"t={traj.times[i]:.3g}")
        for i in range(0, len(traj.times), stride)
    ]
    out.svg("density_evolution.svg",
            LineFigure("density evolution", "x", "u", series))


def _fitting_primitive(u: Field, what: str):
    """Primitive of u, checked before any run: ConfigError naming
    grid.half_length when u reaches the box edge, where its primitive
    cannot match the boundary values 0 and M."""
    try:
        return integrate_density(u)
    except ValueError as exc:
        raise ConfigError(f"grid.half_length: {what} reach the box edge "
                          f"+-{u.grid.half_length:g} ({exc})") from None


def _exp_simulate(cfg: ExperimentConfig, out: _Outputs):
    u0 = cfg.initial_field()
    traj = simulate_density(u0, cfg.model, cfg.t_end, snap_times=cfg.snap_times)
    ex = scaling_exponents(cfg.model.m, cfg.model.s)
    checks = list(standard_checks(traj, ex).values())
    total = traj.diagnostics[0].mass
    tail = traj.diagnostics[-1].boundary_tail
    checks.append(CheckResult("boundary_tail_watchdog",
                              total == 0.0 or tail < 0.01 * total, tail,
                              "mass within 10% of the box edge at final time"))
    _snapshot_outputs(traj, out)
    return checks


def _exp_integrated(cfg: ExperimentConfig, out: _Outputs):
    p = cfg.model
    tol_rel, n_pairs, n_steps = (cfg.knobs[key] for key in
                                 ("duality_tol", "pairs", "steps"))
    alpha = FracOrder(1.0 - p.s)

    # ordered pairs of the comparison sweep (mass-matched shifts: the box
    # surrogate of whole-line comparison needs equal far-field offsets).
    # Every pair is drawn before any run, so a box too small for them ends
    # the experiment before it starts; stepping draws no random numbers, so
    # the rng call order, and with it the seeded data, is that of drawing
    # and stepping one pair at a time.  numpy.random loads here, on first
    # use, so only this pipeline pays for it.
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
                    stats.monotonicity_mass <= 1e-6 * v0.total_mass,
                    stats.monotonicity_mass),
    ]
    worst, _, sweep = comparison_sweep(pairs, p.m, alpha, n_steps)
    checks.append(CheckResult(
        "comparison_violation", worst < 1e-8, worst,
        f"{n_pairs} ordered pairs, {n_steps} steps each"))

    out.csv("primitive.csv", ["x", "v_initial", "v_final", "density_final"],
            [grid.nodes, v0.values, states[-1].values, du.values])
    out.stats("repair_stats.csv", dataclasses.asdict(stats))
    # sweep telemetry: steps, the pair steps' dt range and median, and the
    # steps in which the cumulative max or clamp ran
    out.stats("sweep_stats.csv", dataclasses.asdict(sweep))
    out.svg("primitive_evolution.svg", LineFigure("integrated model", "x", "v", [
        Series(grid.nodes, v0.values, "t=0"),
        Series(grid.nodes, states[-1].values, f"t={cfg.t_end:g}"),
    ]))
    return checks


def _exp_continuation(cfg: ExperimentConfig, out: _Outputs):
    schedule = cfg.knobs["schedule"]
    u0 = cfg.initial_field()
    final, report = continuation_limit(u0, cfg.model, schedule, t_end=cfg.t_end,
                                       checkpoint=cfg.knobs["checkpoint"])
    m0 = mass(u0)
    mass_drift = max(abs(m - m0) / m0 for m in report.masses)
    checks = [
        CheckResult("cauchy_decreasing", report.decreasing,
                    report.distances[-1] if report.distances else 0.0,
                    "L2 distances at the checkpoint between consecutive runs"),
        CheckResult("mass_conservation", mass_drift < 1e-8, mass_drift),
    ]
    counts = ("steps", "flux_evaluations", "viscosity_substeps")
    out.csv("continuation.csv", ["eps", "delta", "mu", "final_mass", *counts],
            [[s[0] for s in schedule], [s[1] for s in schedule],
             [s[2] for s in schedule], report.masses,
             *([getattr(run, name) for run in report.runs] for name in counts)])
    if report.distances:
        out.csv("cauchy_distances.csv", ["pair", "l2_distance"],
                [np.arange(1, len(report.distances) + 1), report.distances])
    _snapshot_outputs(final, out)
    return checks


def _exp_propagation(cfg: ExperimentConfig, out: _Outputs):
    u0 = cfg.initial_field()
    infinite = not _finite_speed(cfg.model.m)
    if infinite:
        v0 = _fitting_primitive(u0, "the initial data")
    traj = simulate_density(u0, cfg.model, cfg.t_end, snap_times=cfg.snap_times)
    if infinite:
        checks = _witness(cfg, v0, out)
    else:
        rep = finite_propagation_report(traj, window=cfg.knobs["window"])
        checks = [rep.check]
        out.csv("support_radius.csv", ["t", "radius", "boundary_tail"],
                [rep.times, rep.support_radii, rep.tail_masses])
        out.svg("support_radius.svg", LineFigure("support radius growth", "t",
                                                 "radius", [
            Series(rep.times, rep.support_radii, "measured"),
            Series(rep.times, rep.fit[0] + rep.fit[1] * rep.times, "affine fit"),
        ]))
    _snapshot_outputs(traj, out)
    return checks


def _exp_smoothing(cfg: ExperimentConfig, out: _Outputs):
    u0 = cfg.initial_field()
    traj = simulate_density(u0, cfg.model, cfg.t_end, snap_times=cfg.snap_times)
    ex = scaling_exponents(cfg.model.m, cfg.model.s)
    fit = smoothing_fit(traj, ex, window=cfg.knobs["window"])
    checks = [CheckResult(
        "smoothing_gap", fit.relative_gap < cfg.knobs["gap_tol"], fit.relative_gap,
        f"fitted {fit.fitted_exponent:.4f} vs theory {fit.theory_exponent:.4f}")]
    out.csv("decay.csv", ["t", "sup_norm"], [fit.times, fit.values])
    theory = fit.values[0] * (fit.times / fit.times[0]) ** fit.theory_exponent
    out.svg("decay_loglog.svg", LineFigure("sup-norm decay", "t", "sup u", [
        Series(fit.times, fit.values, "measured"),
        Series(fit.times, theory, "theory slope"),
    ], logx=True, logy=True))
    _snapshot_outputs(traj, out)
    return checks


def _exp_asymptotics(cfg: ExperimentConfig, out: _Outputs):
    u0 = cfg.initial_field()
    report = asymptotic_convergence(u0, cfg.model, cfg.knobs["lambdas"], cfg.t_end)
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
    out.csv("family_distances.csv", ["pair", "distance"],
            [np.arange(1, len(report.pairwise_distances) + 1),
             report.pairwise_distances])
    out.svg("family_distances.svg", LineFigure(
        "rescaled-family Cauchy distances", "pair", "L2 distance", [
            Series(list(range(1, len(report.pairwise_distances) + 1)),
                   report.pairwise_distances, "consecutive")],
        logy=True))
    return checks


def _prolong(phi: Field, grid: Grid1D) -> Field:
    """phi's periodic linear interpolant on the grid of twice its
    resolution over the same box.

    Each fine node is a coarse node, and keeps its value, or lies midway
    between two, and takes their mean; so the result is nonnegative where
    phi is and has phi's mass to roundoff.
    """
    coarse = phi.grid
    return Field(grid, np.interp(grid.nodes, coarse.nodes, phi.values,
                                 period=2.0 * coarse.half_length))


def _exp_transform_check(cfg: ExperimentConfig, out: _Outputs):
    q, sigma, tau_end = (cfg.knobs[key] for key in ("q", "sigma", "tau_end"))
    grid = cfg.grid
    coarse = make_grid(grid.half_length, grid.n // 2)

    def residuals(u0):
        phi1, stats = fpme_profile_by_rescaling(u0, q, sigma, tau_end)
        rep1 = residual_report(phi1, ProfileFamily.FPME, q, sigma)
        mapped = transform_fpme_profile(phi1, q, sigma)
        rep2 = residual_report(mapped.profile, ProfileFamily.MASS_CONSERVING,
                               mapped.m, mapped.s)
        return phi1, mapped, rep1, rep2, {"n": u0.grid.n, **stats}

    phi1_c, _, _, rep2_c, stats_c = residuals(
        gaussian_bump(coarse, cfg.initial["mass"], width=1.0))
    # nested iteration: a stationary coarse profile, moved onto the fine
    # grid, starts the fine relaxation near its fixed point; one cut off at
    # tau_end is not a fixed point, and seeding from it would give the fine
    # grid more relaxation time than the coarse one had
    if stats_c["tau"] < tau_end:
        u0_f = _prolong(phi1_c, grid)
    else:
        u0_f = gaussian_bump(grid, cfg.initial["mass"], width=1.0)
    phi1_f, mapped_f, rep1_f, rep2_f, stats_f = residuals(u0_f)
    ratio = rep2_f.relative / max(rep1_f.relative, 1e-300)
    checks = [
        CheckResult("residual_closure", ratio < 3.0, ratio,
                    f"mapped profile residual vs source floor at n={grid.n}"),
        CheckResult("residual_refinement", rep2_f.relative < rep2_c.relative,
                    rep2_f.relative,
                    f"n={coarse.n}: {rep2_c.relative:.3e} -> n={grid.n}: "
                    f"{rep2_f.relative:.3e}"),
    ]
    out.csv("profiles.csv",
            ["y", "fpme_profile", "mapped_profile", "fpme_residual",
             "mapped_residual"],
            [grid.nodes, phi1_f.values, mapped_f.profile.values,
             rep1_f.residual.values, rep2_f.residual.values])
    # relaxation telemetry, one row per grid, coarse first; tau is the
    # rescaled time each relaxation reached, and clip_steps counts the
    # steps in which the positivity clip removed mass
    out.csv("relaxation_stats.csv", list(stats_f),
            [[stats_c[key], stats_f[key]] for key in stats_f])
    out.svg("profiles.svg", LineFigure("profile transformation", "y", "value", [
        Series(grid.nodes, phi1_f.values, "source"),
        Series(grid.nodes, mapped_f.profile.values, "mapped"),
    ]))
    out.svg("residual_map.svg", LineFigure("profile residual map", "y", "residual", [
        Series(grid.nodes, rep2_f.residual.values, "mapped"),
        Series(grid.nodes, rep1_f.residual.values, "source"),
    ]))
    return checks


def _witness(cfg: ExperimentConfig, v0: Field, out: _Outputs):
    """The barrier witness for the primitive v0, with `barrier.csv`: one
    row of the barrier's parameters, the probe node and the primitive and
    barrier there.  Returns the five links of its chain."""
    p = cfg.model
    witness = infinite_speed_witness(v0, p.m, p.s, cfg.knobs["x0"],
                                     t_probe=cfg.knobs["t_probe"])
    out.stats("barrier.csv", {**dataclasses.asdict(witness.params),
                              "probe_x": witness.probe_x,
                              "v_at_probe": witness.v_at_probe,
                              "barrier_at_probe": witness.barrier_at_probe})
    return list(witness.checks.values())


def _exp_barrier_check(cfg: ExperimentConfig, out: _Outputs):
    v0 = _fitting_primitive(cfg.initial_field(), "the initial data")
    return _witness(cfg, v0, out)


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
    check that names the cause.  Initial data or a box the pipeline
    cannot use (the checks that need more than the config) raise
    ConfigError, and leave no output directory behind that this call
    made.  Returns the manifest; the caller decides the exit status from
    `manifest.all_passed`.
    """
    outdir = output_dir or cfg.output_dir
    created = not os.path.isdir(outdir)
    os.makedirs(outdir, exist_ok=True)
    man = RunManifest(experiment=cfg.experiment, config_text=cfg.raw_text)
    start = time.monotonic()
    try:
        man.checks.extend(_DISPATCH[cfg.experiment](cfg, _Outputs(outdir, man)))
    except ConfigError:  # raised before the pipeline writes anything
        if created and not os.listdir(outdir):
            os.rmdir(outdir)
        raise
    except RunAborted as exc:
        man.checks.append(CheckResult("completed", False, exc.t_last, str(exc)))
    man.wall_clock = time.monotonic() - start
    write_manifest(man, outdir)
    return man
