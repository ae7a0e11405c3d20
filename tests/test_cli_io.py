"""Config parsing, CSV round trips, SVG and manifest output, CLI contract."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlpme.cli import main
from nlpme.config import (EXPERIMENTS, INITIAL_KINDS, KNOB_SECTION, SCHEMA, ConfigError,
                          parse_config)
from nlpme.csvio import read_csv, write_csv, write_npy_columns
from nlpme.grid import make_grid
from nlpme.manifest import CheckResult, RunManifest, manifest_core, write_manifest
from nlpme.svgfig import LineFigure, Series, render_svg, write_svg

MINIMAL = """
[experiment]
kind = simulate
seed = 3

[model]
m = 2.0
s = 0.5

[grid]
half_length = 15.0
n = 256

[time]
t_end = 0.5
snapshots = 3

[initial]
kind = gaussian
mass = 1.0
width = 1.0

[output]
dir = out
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.experiment == "simulate"
    assert cfg.seed == 3
    assert cfg.model.m == 2.0 and cfg.model.s == 0.5
    assert cfg.grid.n == 256
    assert cfg.t_end == 0.5
    assert len(cfg.snap_times) == 3
    u0 = cfg.initial_field()
    assert abs(cfg.grid.spacing * u0.values.sum() - 1.0) < 1e-12


def test_parse_rejects_bad_m_with_key_name():
    text = MINIMAL.replace("m = 2.0", "m = 0.5")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "model.m" in str(err.value)


def test_parse_rejects_multidimensional_model():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("s = 0.5", "s = 0.5\nn = 2"))
    assert "model.n" in str(err.value)
    assert parse_config(MINIMAL.replace("s = 0.5", "s = 0.5\nn = 1")).model.N == 1


def test_parse_rejects_unknown_experiment_listing_names():
    text = MINIMAL.replace("kind = simulate", "kind = frobnicate", 1)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "frobnicate" in msg and "simulate" in msg and "asymptotics" in msg


def test_parse_rejects_bad_grid_and_times():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("n = 256", "n = 100"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("t_end = 0.5", "t_end = -1.0"))
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("snapshots = 3", "snap_times = 0.1 0.9"))
    # an empty list, and one time (or one repeated), which leaves every
    # monotonicity check vacuous
    for times in ("", "0.25", "0.25 0.25"):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("snapshots = 3", f"snap_times = {times}"))
        assert "time.snap_times" in str(err.value)


@pytest.mark.parametrize("old, new, key", [
    ("t_end = 0.5", "t_end = nan", "time.t_end"),
    ("t_end = 0.5", "t_end = inf", "time.t_end"),
    ("snapshots = 3", "snap_times = 0 nan", "time.snap_times"),
    ("m = 2.0", "m = inf", "model.m"),
    ("s = 0.5", "s = 0.5\neps = nan", "model.eps"),
    ("half_length = 15.0", "half_length = inf", "grid.half_length"),
    ("mass = 1.0", "mass = inf", "initial.mass"),
    ("width = 1.0", "width = 1.0\ncenter = nan", "initial.center"),
])
def test_parse_rejects_non_finite_values(old, new, key):
    """nan and inf parse as floats but no run can use them."""
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(old, new))
    assert key in str(err.value)


@pytest.mark.parametrize("key, value", [("widths", "1"), ("centers", "1 2 3"),
                                        ("weights", "")])
def test_parse_two_bump_lists_need_two_values(key, value):
    """A list of another length would run as one bump, or as none."""
    text = MINIMAL.replace("kind = gaussian", f"kind = two-bump\n{key} = {value}")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"initial.{key}" in str(err.value)


def test_parse_cli_override_conflict():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, experiment="smoothing")
    cfg = parse_config(MINIMAL, experiment="simulate")
    assert cfg.experiment == "simulate"


def test_parse_syntax_error_mentions_line():
    with pytest.raises(ConfigError):
        parse_config("[model\nm = 2.0\n")


def test_readme_lists_the_schema_keys_and_its_config_parses():
    """The README's key table names exactly the keys of SCHEMA, and its
    example config parses."""
    import re

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.findall(r"^\| `([a-z_]+\.[a-z_0-9]+)` \|", text, flags=re.M)
    assert sorted(listed) == sorted(f"{name}.{key}" for name, keys in SCHEMA.items()
                                    for key in keys)
    (example,) = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
    assert parse_config(example).grid.n == 1024


def test_csv_round_trip_exact(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64) * 1e-17
    write_csv(path, ["x", "y"], [x, y])
    header, cols = read_csv(path)
    assert header == ["x", "y"]
    assert np.array_equal(cols[0], x)
    assert np.array_equal(cols[1], y)


def test_csv_field_round_trip(tmp_path):
    g = make_grid(10.0, 64)
    vals = np.exp(-g.nodes**2) * np.pi
    path = tmp_path / "field.csv"
    write_csv(path, ["x", "u"], [g.nodes, vals])
    _, cols = read_csv(path)
    assert np.array_equal(cols[1], vals)
    # header plus one line per node
    assert len(path.read_text().splitlines()) == g.n + 1


def test_csv_header_only_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["t", "v"], [[], []])
    assert p1.read_text() == "t,v\n"
    data = [np.linspace(0, 1, 9), np.geomspace(1, 2, 9)]
    write_csv(p1, ["t", "v"], data)
    write_csv(p2, ["t", "v"], data)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("header, columns", [
    (["a", "b", "c"], [
        [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308],
        [0.1, -1.0 / 3.0, 1e300, -1e-300, 123456789.0, 2.0**60, 1.0],
        np.arange(7, dtype=np.int64),
    ]),
    (["only"], [np.geomspace(1e-12, 1e12, 17)]),
    (["t", "v"], [[], []]),
    ([], []),
])
def test_csv_bytes_are_per_value_17g(tmp_path, header, columns):
    """Oracle: each value formatted alone as "%.17g" % float(x), joined
    with commas, one line per row after the header."""
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    rows = zip(*columns) if columns else []
    want = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % float(x) for x in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("columns", [
    [np.linspace(-1.0, 1.0, 7),
     [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308],
     np.arange(7, dtype=np.int64)],
    [np.geomspace(1e-300, 1e300, 33)],
    [np.empty(0), np.empty(0)],
])
def test_npy_columns_bitwise(tmp_path, columns):
    """np.load gives the stacked columns bit for bit; the body is the
    columns' bytes in turn, and the whole file is numpy.save's for the
    Fortran-ordered matrix when that is not also C-ordered."""
    path = tmp_path / "m.npy"
    write_npy_columns(path, columns)
    want = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    got = np.load(path)
    assert got.dtype == np.dtype("<f8") and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    data = path.read_bytes()
    assert data.endswith(want.T.tobytes()) and len(data) % 64 == want.nbytes % 64
    if not np.asfortranarray(want).flags.c_contiguous:
        save = tmp_path / "save.npy"
        np.save(save, np.asfortranarray(want))
        assert data == save.read_bytes()


def test_npy_columns_stream_without_stacking(tmp_path):
    """Writing 64 columns of 8 KB allocates far less than the 512 KB
    matrix: no stacked or transposed copy is built."""
    import tracemalloc

    columns = [np.full(1024, float(k)) for k in range(64)]
    tracemalloc.start()
    try:
        write_npy_columns(tmp_path / "m.npy", columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert np.array_equal(np.load(tmp_path / "m.npy"), np.column_stack(columns))


@pytest.mark.parametrize("columns", [[], [np.zeros(3), np.zeros(4)],
                                     [np.zeros((2, 2))]])
def test_npy_columns_reject_bad_shapes(tmp_path, columns):
    with pytest.raises(ValueError):
        write_npy_columns(tmp_path / "m.npy", columns)


def test_snapshots_npy_is_the_trajectory(tmp_path, monkeypatch):
    """snapshots.npy holds x and every stored snapshot bit for bit, one
    column per row of diagnostics.csv, and the manifest lists its hash."""
    import hashlib

    import nlpme.experiments as exps

    runs = []
    simulate = exps.simulate_density

    def keep(*args, **kwargs):
        runs.append(simulate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(exps, "simulate_density", keep)
    exps.run_experiment(parse_config(MINIMAL), output_dir=str(tmp_path))
    (traj,) = runs
    snaps = np.load(tmp_path / "snapshots.npy")
    want = np.column_stack([traj.grid.nodes] + [s.values for s in traj.snapshots])
    assert snaps.shape == (256, 4) and snaps.flags.f_contiguous
    assert np.array_equal(snaps.view(np.uint64), want.view(np.uint64))
    header, cols = read_csv(tmp_path / "diagnostics.csv")
    assert header[0] == "t" and np.array_equal(cols[0], traj.times)
    assert len(cols[0]) == snaps.shape[1] - 1
    digest = hashlib.sha256((tmp_path / "snapshots.npy").read_bytes()).hexdigest()
    text = (tmp_path / "manifest.txt").read_text()
    assert f"file snapshots.npy = sha256:{digest}" in text
    assert not (tmp_path / "snapshots.csv").exists()


def test_svg_rendering_deterministic(tmp_path):
    fig = LineFigure("demo", "x", "y", [
        Series([0, 1, 2], [1.0, 0.5, 0.25], "a"),
        Series([0, 1, 2], [0.1, 0.2, 0.4], "b"),
    ], logy=True)
    text1 = render_svg(fig)
    text2 = render_svg(fig)
    assert text1 == text2
    assert text1.count("<polyline") == 2
    path = tmp_path / "fig.svg"
    write_svg(fig, path)
    assert path.read_text().startswith("<svg")


def test_svg_skips_nonpositive_on_log_axes():
    fig = LineFigure("demo", "x", "y",
                     [Series([1, 2, 3], [0.0, 1.0, 2.0])], logy=True)
    text = render_svg(fig)
    assert text.count(",") >= 1  # renders without error, drops the zero


def test_manifest_atomic_and_deterministic(tmp_path):
    man = RunManifest(experiment="simulate", config_text=MINIMAL)
    man.checks.append(CheckResult("alpha", True, 1.25e-9))
    man.checks.append(CheckResult("beta", False, 0.5, "context"))
    (tmp_path / "x.csv").write_text("t\n0\n")
    man.add_file(tmp_path, "x.csv")
    man.wall_clock = 1.0
    p = Path(write_manifest(man, tmp_path))
    text1 = p.read_text()
    assert "all_passed = false" in text1
    assert "check alpha = PASS" in text1
    assert "sha256:" in text1
    man.wall_clock = 2.0  # timestamp-like line changes, core must not
    write_manifest(man, tmp_path)
    text2 = p.read_text()
    assert text1 != text2
    assert manifest_core(text1) == manifest_core(text2)
    assert not any(f.startswith(".manifest-") for f in os.listdir(tmp_path))


def _write(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_cli_exit_zero_on_pass_and_outputs(tmp_path, capsys):
    cfg = MINIMAL.replace("dir = out", f"dir = {tmp_path}/out")
    rc = main(["simulate", "--config", _write(tmp_path, cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    outdir = tmp_path / "out"
    assert (outdir / "manifest.txt").exists()
    assert (outdir / "snapshots.npy").exists()
    assert (outdir / "diagnostics.csv").exists()
    assert (outdir / "density_evolution.svg").exists()


def test_cli_writes_solver_stats(tmp_path):
    """solver_stats.csv holds the run's step telemetry and is in the
    manifest; every step is charged to one limit."""
    cfg = MINIMAL.replace("dir = out", f"dir = {tmp_path}/out")
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    outdir = tmp_path / "out"
    header, cols = read_csv(outdir / "solver_stats.csv")
    stats = dict(zip(header, (float(c[0]) for c in cols)))
    assert list(stats) == ["steps", "clipped_mass", "dt_min", "dt_max", "dt_median",
                           "steps_advective", "steps_stiffness",
                           "steps_viscosity", "steps_cap", "limiter_steps"]
    assert stats["steps"] > 0
    assert sum(v for k, v in stats.items() if k.startswith("steps_")) == stats["steps"]
    assert 0.0 < stats["dt_min"] <= stats["dt_median"] <= stats["dt_max"]
    assert "file solver_stats.csv = sha256:" in (outdir / "manifest.txt").read_text()


def test_cli_zero_initial_data_trivial_pass(tmp_path, capsys):
    cfg = MINIMAL.replace("mass = 1.0", "mass = 0.0")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/zero")
    rc = main(["simulate", "--config", _write(tmp_path, cfg)])
    assert rc == 0
    assert "[FAIL]" not in capsys.readouterr().out
    snaps = np.load(tmp_path / "zero" / "snapshots.npy")
    assert snaps.shape[1] > 1 and np.all(snaps[:, 1:] == 0.0)


@pytest.mark.parametrize("kind", ["propagation", "asymptotics", "continuation",
                                  "smoothing"])
def test_cli_zero_mass_exit_two(tmp_path, capsys, kind):
    cfg = MINIMAL.replace("kind = simulate", f"kind = {kind}", 1)
    cfg = cfg.replace("mass = 1.0", "mass = 0.0")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/zero")
    assert main([kind, "--config", _write(tmp_path, cfg)]) == 2
    assert "initial.mass" in capsys.readouterr().err
    assert not (tmp_path / "zero").exists()


def test_cli_config_error_exit_two(tmp_path, capsys):
    rc = main(["simulate", "--config",
               _write(tmp_path, MINIMAL.replace("m = 2.0", "m = 0.5"))])
    assert rc == 2
    assert "model.m" in capsys.readouterr().err


def test_cli_bad_knob_exit_two(tmp_path, capsys):
    cfg = MINIMAL.replace("kind = simulate", "kind = integrated", 1)
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o") + "\n[integrated]\npairs = x\n"
    assert main(["integrated", "--config", _write(tmp_path, cfg)]) == 2
    assert "integrated.pairs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lambdas", ["0.5 1 2", "abc", "1", "1 2 2", "2 1", "nan 2"])
def test_cli_bad_lambdas_exit_two(tmp_path, capsys, lambdas):
    cfg = MINIMAL.replace("kind = simulate", "kind = asymptotics", 1)
    cfg = cfg.replace("n = 256", "n = 64")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    cfg += f"\n[asymptotics]\nlambdas = {lambdas}\n"
    assert main(["asymptotics", "--config", _write(tmp_path, cfg)]) == 2
    assert "asymptotics.lambdas" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, t_end, window", [
    ("smoothing", "0.1", None),  # default 1 20: snapshots would start at 0.25
    ("smoothing", "0.5", "abc"),
    ("smoothing", "0.5", "0.2"),
    ("smoothing", "0.5", "0.4 0.1"),
    ("smoothing", "0.5", "0 0.4"),
    ("propagation", "0.5", "abc"),
    ("propagation", "0.5", "0.3 0.1"),
    ("propagation", "0.05", None),  # default 0.1 t_end is empty
    ("smoothing", "2", None),  # default 1 20: [1, 2] is no decade
    ("propagation", "0.5", "0.2 0.3"),  # one snapshot (t = 0.25) inside
])
def test_cli_bad_window_exit_two(tmp_path, capsys, kind, t_end, window):
    cfg = MINIMAL.replace("kind = simulate", f"kind = {kind}", 1)
    cfg = cfg.replace("t_end = 0.5", f"t_end = {t_end}")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    if window is not None:
        cfg += f"\n[{kind}]\nwindow = {window}\n"
    assert main([kind, "--config", _write(tmp_path, cfg)]) == 2
    assert f"{kind}.window" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, m, section, key", [
    ("transform-check", 2.0, "[transform]\nq = 0.5", "transform.q"),
    ("transform-check", 2.0, "[transform]\nq = 0.8", "transform.q"),
    ("transform-check", 2.0, "[transform]\nq = 1.0", "transform.q"),
    ("transform-check", 2.0, "[transform]\nq = -1", "transform.q"),
    ("transform-check", 2.0, "[transform]\nsigma = 1.5", "transform.sigma"),
    ("transform-check", 2.0, "[transform]\ntau_end = 0", "transform.tau_end"),
    ("transform-check", 2.0, "[transform]\ntau_end = -1", "transform.tau_end"),
    ("barrier-check", 2.5, "", "model.m"),
    ("propagation", 2.5, "[propagation]\nmode = infinite", "model.m"),
    # gamma = 397: the barrier would peak past the float range
    ("barrier-check", 1.99, "", "model.m"),
    ("propagation", 1.99, "[propagation]\nmode = infinite", "model.m"),
    ("barrier-check", 1.5, "[barrier]\nx0 = 1", "barrier.x0"),
    ("barrier-check", 1.5, "[barrier]\nx0 = -13", "barrier.x0"),
    ("propagation", 1.5, "[propagation]\nx0 = 1", "propagation.x0"),
    ("barrier-check", 1.5, "[barrier]\nt_probe = 0", "barrier.t_probe"),
    ("barrier-check", 1.5, "[barrier]\nt_probe = -0.1", "barrier.t_probe"),
    ("continuation", 2.0, "[continuation]\ncheckpoint = -1", "continuation.checkpoint"),
    ("continuation", 2.0, "[continuation]\ncheckpoint = 5", "continuation.checkpoint"),
    ("integrated", 1.5, "[integrated]\npairs = 0", "integrated.pairs"),
    ("integrated", 1.5, "[integrated]\nsteps = -3", "integrated.steps"),
    ("integrated", 1.5, "[integrated]\nduality_tol = nan", "integrated.duality_tol"),
    ("asymptotics", 2.0, "[asymptotics]\nt_probe = inf", "asymptotics.t_probe"),
    ("asymptotics", 2.0, "[asymptotics]\nt_probe = -1", "asymptotics.t_probe"),
    ("asymptotics", 2.0, "[asymptotics]\nt_probe = 0", "asymptotics.t_probe"),
    ("asymptotics", 2.0, "[asymptotics]\nlp = 0", "asymptotics.lp"),
    ("asymptotics", 2.0, "[asymptotics]\nlp = 0.5", "asymptotics.lp"),
    ("continuation", 2.0, "[continuation]\nschedule = 0.1 0.01 0.01; 0.2 0.01 0.01",
     "continuation.schedule"),
    ("continuation", 2.0, "[continuation]\nschedule = -0.1 0.01 0.01",
     "continuation.schedule"),
    ("continuation", 2.0, "[continuation]\nschedule = nan 0.01 0.01",
     "continuation.schedule"),
    # a tolerance no value can meet
    ("smoothing", 1.5, "[smoothing]\nwindow = 0.01 0.5\ngap_tol = 0", "smoothing.gap_tol"),
    ("integrated", 1.5, "[integrated]\nduality_tol = 0", "integrated.duality_tol"),
])
def test_cli_bad_experiment_knob_exit_two(tmp_path, capsys, kind, m, section, key):
    """A knob outside the range its pipeline can run ends in exit 2 naming
    the key, and leaves no output directory."""
    cfg = MINIMAL.replace("kind = simulate", f"kind = {kind}", 1)
    cfg = cfg.replace("m = 2.0", f"m = {m}")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o") + f"\n{section}\n"
    assert main([kind, "--config", _write(tmp_path, cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_exit_two(tmp_path, capsys):
    """numpy's generator takes no negative seed: exit 2 naming the key."""
    cfg = MINIMAL.replace("seed = 3", "seed = -1").replace("dir = out", f"dir = {tmp_path}/o")
    assert main(["simulate", "--config", _write(tmp_path, cfg)]) == 2
    assert "experiment.seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, old, new, key", [
    ("transform-check", "[output]", "[transfrom]\nq = 3\n\n[output]", "transfrom.q"),
    ("simulate", "t_end = 0.5", "t_ned = 5", "time.t_ned"),
    ("simulate", "s = 0.5", "s = 0.5\nmu_ = 0.3", "model.mu_"),
    ("propagation", "[output]", "[propagaton]\nmode = infinite\n\n[output]",
     "propagaton.mode"),
])
def test_cli_unknown_key_exit_two(tmp_path, capsys, kind, old, new, key):
    """A misspelt section or key is rejected, naming it, before any output
    exists; otherwise the run would go on silently on the default."""
    cfg = MINIMAL.replace("kind = simulate", f"kind = {kind}", 1)
    cfg = cfg.replace("n = 256", "n = 64").replace("snapshots = 3", "snapshots = 11")
    cfg = cfg.replace(old, new).replace("dir = out", f"dir = {tmp_path}/o")
    assert main([kind, "--config", _write(tmp_path, cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, edits, section, key", [
    # no node of h = 15/128 lies within 0.01 of x = 0.05
    ("simulate", {"kind = gaussian": "kind = bump", "width = 1.0": "radius = 0.01\n"
                  "center = 0.05"}, "", "initial.radius"),
    ("simulate", {"kind = gaussian": "kind = bump", "width = 1.0": "radius = 0"}, "",
     "initial.radius"),
    ("simulate", {"kind = gaussian": "kind = two-bump", "width = 1.0": "widths = 0 1"},
     "", "initial.widths"),
    ("simulate", {"mass = 1.0": "mass = 1e200"}, "", "initial.mass"),
    # the initial data and the comparison pairs reach the box edge
    ("barrier-check", {"m = 2.0": "m = 1.5", "width = 1.0": "width = 6"}, "",
     "grid.half_length"),
    ("integrated", {"m = 2.0": "m = 1.5", "half_length = 15.0": "half_length = 4.0",
                    "width = 1.0": "width = 0.5"}, "", "grid.half_length"),
    # the coarse grid would have n = 8
    ("transform-check", {"n = 256": "n = 16"}, "", "grid.n"),
    # the tail-mass probe at 1.5 times the support radius ~10.4 lies outside
    ("propagation", {"m = 2.0": "m = 1.5", "kind = gaussian": "kind = bump",
                     "width = 1.0": "radius = 10.5"}, "[propagation]\nmode = infinite",
     "grid.half_length"),
], ids=["bump-between-nodes", "zero-radius", "zero-width", "huge-mass",
        "initial-data-at-edge", "pairs-at-edge", "coarse-grid-too-small",
        "probe-past-edge"])
def test_cli_data_or_grid_the_box_cannot_hold_exit_two(tmp_path, capsys, monkeypatch,
                                                       kind, edits, section, key):
    """Initial data that no node samples, that are too large to measure or
    that reach the box edge where a pipeline needs their primitive, and
    grids too small for a pipeline, end in exit 2 naming the key before any
    run starts, and leave no output directory."""
    import nlpme.experiments as experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a run started before the input checks")

    for name in ("simulate_density", "_relax_fpme", "infinite_speed_witness"):
        monkeypatch.setattr(experiments, name, no_run)
    cfg = MINIMAL.replace("kind = simulate", f"kind = {kind}", 1)
    for old, new in edits.items():
        cfg = cfg.replace(old, new)
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o") + f"\n{section}\n"
    assert main([kind, "--config", _write(tmp_path, cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


_SIZES = st.sampled_from([0.0, 1e-3, 0.01, 0.5, 1.0, 5.0, 10.5, 50.0])
_MASSES = st.sampled_from([0.0, 1e-300, 1.0, 1e200])
# values of each experiment knob, in range or at an edge, then out of range
# or malformed; the fuzz looks up every key of the knob sections of SCHEMA
_KNOB_VALUES = {
    "duality_tol": (["0.05", "1e-300", "10"], ["0", "-1", "x"]),
    "pairs": (["1", "3"], ["0", "1.5"]),
    "steps": (["1", "5"], ["0", "-3"]),
    "schedule": (["0.1 0.01 0.01; 0.05 0.005 0.005", "0 0 0", "0.1 0 0; 0.05 0 0"],
                 ["0.1 0.01 0.01; 0.2 0.01 0.01", "-0.1 0.01 0.01", "0.1 0.01",
                  "0.1 0.01 0.01;", "nan 0 0"]),
    "checkpoint": (["0", "1e-6"], ["-1", "5"]),
    "mode": (["finite", "infinite"], ["infinit"]),
    "window": (["0.01 0.5", "1e-6 1e-3"], ["0.3 0.1", "0 1", "0.2"]),
    "x0": (["-1", "-0.01", "-13"], ["0", "1", "nan"]),
    "t_probe": (["0.1", "1e-6", "2"], ["0", "-1"]),
    "gap_tol": (["0.1", "1e-12"], ["0", "inf"]),
    "lambdas": (["1 2", "1 2 4 8", "1 1.01"], ["0.5 1", "2 1", "3"]),
    "lp": (["1", "2", "7.5"], ["0.5", "0", "inf"]),
    "q": (["1.01", "1.5", "2.0", "4.0", "30.0"], ["1", "0.5"]),
    "sigma": (["0.01", "0.3", "0.5", "0.99"], ["0", "1"]),
    "tau_end": (["1e-6", "0.1", "1.0", "3.0"], ["0", "-1"]),
}


@st.composite
def _fuzz_configs(draw):
    """(experiment, sections, broken, file scale) of a config that parses or
    fails to parse: every pipeline, small grids and boxes, stiff corners of
    m and s, tiny horizons, every initial kind at extreme sizes and masses,
    and the pipeline's knobs drawn from the schema.  `broken` is None or a
    copy of `sections` with one defect no run can use: an out-of-range or
    malformed knob, a snapshot list that is empty, single, repeated or past
    t_end, or a misspelt section or key."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    section = KNOB_SECTION.get(experiment, experiment)
    model = {"m": draw(st.sampled_from([1.01, 1.2, 1.5, 1.99, 2.0, 3.0, 5.0])),
             "s": draw(st.sampled_from([0.01, 0.1, 0.5, 0.9, 0.99]))}
    for key in ("eps", "delta", "mu"):
        value = draw(st.none() | st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
        if value is not None:
            model[key] = value
    kind = draw(st.sampled_from(INITIAL_KINDS))
    size = draw(_SIZES)
    initial = {"kind": kind, "mass": draw(_MASSES), "width": size, "radius": size,
               "widths": f"{size} {draw(_SIZES)}",
               "center": draw(st.sampled_from([0.0, 0.05, -3.0]))}
    t_end = draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.5]))
    time = {"t_end": t_end}
    if draw(st.booleans()):
        time["snapshots"] = draw(st.sampled_from([2, 3, 5]))
    else:  # unsorted, or sorted
        time["snap_times"] = draw(st.sampled_from(
            [f"{t_end} 0 {t_end / 2}", f"0 {t_end / 4} {t_end / 2} {t_end}"]))
    sections = {
        "experiment": {"kind": experiment, "seed": draw(st.integers(0, 3))},
        "model": model,
        "grid": {"half_length": draw(st.sampled_from([1.0, 4.0, 15.0])),
                 "n": draw(st.sampled_from([16, 32, 64]))},
        "time": time,
        "initial": initial,
    }
    if section in SCHEMA:
        sections[section] = {key: draw(st.sampled_from(_KNOB_VALUES[key][0]))
                             for key in SCHEMA[section] if draw(st.booleans())}
    defect = draw(st.sampled_from([None, "snap_times", "section", "key"]
                                  + ["knob"] * (section in SCHEMA)))
    broken = None if defect is None else {k: dict(v) for k, v in sections.items()}
    if defect == "snap_times":
        broken["time"]["snap_times"] = draw(st.sampled_from(
            ["", f"{t_end / 2}", f"{t_end} {t_end}", f"0 {2 * t_end}"]))
    elif defect == "knob":
        key = draw(st.sampled_from(list(SCHEMA[section])))
        broken[section][key] = draw(st.sampled_from(_KNOB_VALUES[key][1]))
    elif defect is not None:
        name = draw(st.sampled_from(sorted(broken)))
        if defect == "section":
            broken[name + "x"] = broken.pop(name)
        else:
            broken[name][draw(st.sampled_from(["t_ned", "mu_", "windows", "q0"]))] = 1
    return experiment, sections, broken, draw(st.sampled_from([0.0, 1.0, 1e200]))


@settings(max_examples=200, deadline=None)
@given(case=_fuzz_configs())
def test_cli_any_config_ends_in_an_exit_code(case):
    """No config ends in a traceback or a hang: the CLI returns 0, 1 or 2,
    and leaves a manifest on 0 and 1 and no output directory on 2; the
    copy with a planted defect, when drawn, always ends in 2.  MAX_STEPS is
    lowered so that a run that cannot finish ends in its RunAborted
    manifest within the test."""
    import nlpme.evolve as evolve

    experiment, sections, broken, file_scale = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "MAX_STEPS", 2000)
        path = os.path.join(tmp, "u0.csv")
        n = sections["grid"]["n"]
        write_csv(path, ["x", "u"],
                  [np.arange(n), file_scale * np.abs(np.random.default_rng(n).standard_normal(n))])

        def run(sections, out):
            sections = dict(sections, output={"dir": os.path.join(tmp, out)})
            for keys in sections.values():
                if keys.get("kind") == "file":
                    keys["path"] = path
            text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items())
            return main([experiment, "--config", _write(Path(tmp), text)])

        code = run(sections, "o")
        assert code in (0, 1, 2)
        if code != 2:
            assert os.path.exists(os.path.join(tmp, "o", "manifest.txt"))
        else:
            assert not os.path.exists(os.path.join(tmp, "o"))
        if broken is not None:
            assert run(broken, "b") == 2
            assert not os.path.exists(os.path.join(tmp, "b"))


def test_cli_transform_check_overflow_exit_one(tmp_path, capsys):
    """An FPME relaxation whose phi^q overflows ends in a manifest with a
    failed `completed` check and exit 1, not a traceback."""
    cfg = MINIMAL.replace("kind = simulate", "kind = transform-check", 1)
    cfg = cfg.replace("mass = 1.0", "mass = 1e200")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    assert main(["transform-check", "--config", _write(tmp_path, cfg)]) == 1
    assert "[FAIL] completed" in capsys.readouterr().out
    assert "check completed = FAIL" in (tmp_path / "o" / "manifest.txt").read_text()


def test_cli_transform_check_writes_relaxation_stats(tmp_path):
    """relaxation_stats.csv holds each grid's relaxation telemetry and is in
    the manifest.  At the benchmark's transform-check config the clip never
    fires, so both profiles are fixed points of the scheme, and the two
    relaxations take at most 3500 steps (13,440 with an explicit drift)."""
    cfg = MINIMAL.replace("kind = simulate", "kind = transform-check", 1)
    cfg = cfg.replace("n = 256", "n = 1024").replace("mass = 1.0", "mass = 2.0")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    cfg += "\n[transform]\nq = 2.0\nsigma = 0.5\ntau_end = 14.0\n"
    assert main(["transform-check", "--config", _write(tmp_path, cfg)]) == 0
    header, cols = read_csv(tmp_path / "o" / "relaxation_stats.csv")
    stats = dict(zip(header, cols))
    assert header == ["n", "steps", "dt_min", "dt_median", "dt_max", "clip_steps"]
    assert list(stats["n"]) == [512, 1024] and list(stats["clip_steps"]) == [0, 0]
    assert stats["steps"][1] <= 2500 and stats["steps"].sum() <= 3500
    assert np.all((0.0 < stats["dt_min"]) & (stats["dt_min"] <= stats["dt_median"])
                  & (stats["dt_median"] <= stats["dt_max"]))
    text = (tmp_path / "o" / "manifest.txt").read_text()
    assert "file relaxation_stats.csv = sha256:" in text


def test_cli_missing_config_exit_two(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2


def test_cli_output_flag_and_env_override(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, MINIMAL)
    env_dir = tmp_path / "via_env"
    monkeypatch.setenv("NLPME_OUTPUT", str(env_dir))
    assert main(["simulate", "--config", cfg]) == 0
    assert (env_dir / "manifest.txt").exists()
    flag_dir = tmp_path / "via_flag"
    assert main(["simulate", "--config", cfg, "--output", str(flag_dir)]) == 0
    assert (flag_dir / "manifest.txt").exists()


def test_cli_failed_check_exit_one(tmp_path, capsys):
    # an impossible smoothing tolerance forces a FAIL verdict
    text = MINIMAL.replace("kind = simulate", "kind = smoothing", 1)
    text = text.replace("t_end = 0.5", "t_end = 12.0")
    text += "\n[smoothing]\nwindow = 1 12\ngap_tol = 1e-12\n"
    rc = main(["smoothing", "--config",
               _write(tmp_path, text.replace("dir = out", f"dir = {tmp_path}/o"))])
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_numerical_abort_gives_partial_manifest(tmp_path, monkeypatch):
    """A solver abort still writes a manifest, with a failed check."""
    import nlpme.experiments as exps
    from nlpme.config import parse_config
    from nlpme.evolve import SimulationUnstable

    def boom(*args, **kwargs):
        raise SimulationUnstable(0.25)

    monkeypatch.setattr(exps, "simulate_density", boom)
    man = exps.run_experiment(parse_config(MINIMAL), output_dir=str(tmp_path))
    assert not man.all_passed
    assert any(c.name == "completed" and not c.passed for c in man.checks)
    text = (tmp_path / "manifest.txt").read_text()
    assert "check completed = FAIL" in text


def test_cli_box_too_small_for_lambda_exit_one(tmp_path, capsys):
    """The dilated data of the last lambda leaves the box: a manifest with
    a failed `completed` check naming the cause, exit 1, no traceback."""
    cfg = MINIMAL.replace("kind = simulate", "kind = asymptotics", 1)
    cfg = cfg.replace("n = 256", "n = 64").replace("half_length = 15.0",
                                                   "half_length = 4.0")
    cfg = cfg.replace("width = 1.0", "width = 3.0")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    cfg += "\n[asymptotics]\nlambdas = 1 2 4\n"
    assert main(["asymptotics", "--config", _write(tmp_path, cfg)]) == 1
    assert "[FAIL] completed" in capsys.readouterr().out
    text = (tmp_path / "o" / "manifest.txt").read_text()
    assert "check completed = FAIL" in text
    assert "box too small for lambda=4" in text


def test_cli_step_limit_exit_one(tmp_path, capsys, monkeypatch):
    """A run past evolve.MAX_STEPS ends in a manifest, not a traceback: a
    density run, and an FPME relaxation at mass 1e200 and q = 1.5, where
    phi^q stays finite and the step bound is ~1e-150, so that without the
    guard the relaxation to tau_end = 14 never ends."""
    import nlpme.evolve as evolve

    monkeypatch.setattr(evolve, "MAX_STEPS", 3)
    relaxation = MINIMAL.replace("kind = simulate", "kind = transform-check", 1)
    relaxation = relaxation.replace("mass = 1.0", "mass = 1e200")
    relaxation += "\n[transform]\nq = 1.5\n"
    for kind, cfg in (("simulate", MINIMAL), ("transform-check", relaxation)):
        cfg = cfg.replace("dir = out", f"dir = {tmp_path}/{kind}")
        assert main([kind, "--config", _write(tmp_path, cfg)]) == 1
        assert "[FAIL] completed" in capsys.readouterr().out
        text = (tmp_path / kind / "manifest.txt").read_text()
        assert "check completed = FAIL" in text
        assert "exceeded 3 steps" in text


def test_cli_integrated_writes_repair_stats(tmp_path):
    """repair_stats.csv holds the primitive run's RepairStats and is in the
    manifest."""
    cfg = MINIMAL.replace("kind = simulate", "kind = integrated", 1)
    cfg = cfg.replace("n = 256", "n = 64").replace("t_end = 0.5", "t_end = 0.05")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    cfg += "\n[integrated]\npairs = 2\nsteps = 5\n"
    main(["integrated", "--config", _write(tmp_path, cfg)])
    header, cols = read_csv(tmp_path / "o" / "repair_stats.csv")
    assert header == ["monotonicity_mass", "clamp_mass"]
    assert [len(c) for c in cols] == [1, 1] and all(c[0] >= 0.0 for c in cols)
    text = (tmp_path / "o" / "manifest.txt").read_text()
    assert "file repair_stats.csv = sha256:" in text
    assert f"check monotonicity_repair = PASS value={cols[0][0]:.9g}" in text


def test_cli_integrated_writes_sweep_stats(tmp_path, monkeypatch):
    """sweep_stats.csv holds the comparison sweep's telemetry bit for bit
    and is in the manifest."""
    import nlpme.experiments as exps

    sweeps = []
    sweep = exps.comparison_sweep

    def keep(*args, **kwargs):
        result = sweep(*args, **kwargs)
        sweeps.append(result[2])
        return result

    monkeypatch.setattr(exps, "comparison_sweep", keep)
    cfg = MINIMAL.replace("kind = simulate", "kind = integrated", 1)
    cfg = cfg.replace("n = 256", "n = 64").replace("t_end = 0.5", "t_end = 0.05")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    cfg += "\n[integrated]\npairs = 4\nsteps = 10\n"
    main(["integrated", "--config", _write(tmp_path, cfg)])
    (stats,) = sweeps
    header, cols = read_csv(tmp_path / "o" / "sweep_stats.csv")
    assert header == ["steps", "dt_min", "dt_median", "dt_max", "repair_steps"]
    assert [c[0] for c in cols] == [10, stats.dt_min, stats.dt_median,
                                    stats.dt_max, stats.repair_steps]
    assert 0.0 < stats.dt_min <= stats.dt_median <= stats.dt_max
    assert 0 <= stats.repair_steps <= 10
    assert "file sweep_stats.csv = sha256:" in (tmp_path / "o" / "manifest.txt").read_text()


def test_cli_integrated_nan_exit_one(tmp_path, capsys, monkeypatch):
    """A primitive step that produces NaN ends in a manifest with a failed
    `completed` check at the time reached, and exit 1, not a traceback."""
    import nlpme.integrated as integrated

    real = integrated._frac_laplacian_rows
    calls = []

    def poisoned(W, grid, alpha):
        calls.append(None)
        A = real(W, grid, alpha)
        if len(calls) == 3:  # the third step of the primitive run
            A[:, grid.n // 2] = np.nan
        return A

    monkeypatch.setattr(integrated, "_frac_laplacian_rows", poisoned)
    cfg = MINIMAL.replace("kind = simulate", "kind = integrated", 1)
    # at n = 64 a primitive step is ~0.32, so the run to t = 2 takes several
    cfg = cfg.replace("n = 256", "n = 64").replace("t_end = 0.5", "t_end = 2.0")
    cfg = cfg.replace("dir = out", f"dir = {tmp_path}/o")
    assert main(["integrated", "--config", _write(tmp_path, cfg)]) == 1
    assert "[FAIL] completed" in capsys.readouterr().out
    assert len(calls) == 3
    text = (tmp_path / "o" / "manifest.txt").read_text()
    assert "check completed = FAIL" in text
    t_last = float(text.split("check completed = FAIL value=")[1].split()[0])
    assert 0.0 < t_last < 2.0  # the two steps before the poisoned one


def test_run_twice_byte_identical_csv(tmp_path):
    from nlpme.config import parse_config as pc
    from nlpme.experiments import run_experiment

    cfg_text = MINIMAL
    outs = []
    for sub in ("r1", "r2"):
        cfg = pc(cfg_text)
        run_experiment(cfg, output_dir=str(tmp_path / sub))
        outs.append(tmp_path / sub)
    for name in ("snapshots.npy", "diagnostics.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    core0 = manifest_core((outs[0] / "manifest.txt").read_text())
    core1 = manifest_core((outs[1] / "manifest.txt").read_text())
    assert core0 == core1


def test_manifest_records_versions_on_a_comment_line(tmp_path):
    import scipy

    man = RunManifest(experiment="simulate", config_text="[x]\n")
    text = Path(write_manifest(man, str(tmp_path))).read_text()
    line = (f"# versions: python {sys.version.split()[0]}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}")
    assert line in text.splitlines()
    assert "versions" not in manifest_core(text)


def _scipy_modules_after(code: str) -> set:
    """The scipy modules a fresh interpreter holds after running `code`."""
    import nlpme

    src = str(Path(nlpme.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code += ("\nimport sys\nprint(' '.join(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.strip().splitlines()[-1].split())


def test_import_and_runs_keep_scipy_subpackages_cold(tmp_path):
    """Only the top-level scipy loads at import; simulate and barrier-check
    load neither scipy.special nor scipy.integrate."""
    loaded = _scipy_modules_after("import nlpme.cli, nlpme.experiments")
    assert "scipy" in loaded
    assert not loaded & {"scipy.special", "scipy.integrate", "scipy.linalg"}

    small = MINIMAL.replace("n = 256", "n = 64").replace("t_end = 0.5", "t_end = 0.05")
    barrier = (MINIMAL.replace("kind = simulate", "kind = barrier-check", 1)
               .replace("m = 2.0", "m = 1.5").replace("t_end = 0.5", "t_end = 0.1")
               .replace("kind = gaussian", "kind = bump\nradius = 1.25\ncenter = -2.25")
               .replace("width = 1.0", "") + "[barrier]\nx0 = -1.0\nt_probe = 0.1\n")
    runs = []
    for kind, text in (("simulate", small), ("barrier-check", barrier)):
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(text.replace("dir = out", f"dir = {tmp_path}/{kind}"))
        runs.append(f"assert main([{kind!r}, '--config', {str(cfg)!r}]) == 0")
    loaded = _scipy_modules_after("from nlpme.cli import main\n" + "\n".join(runs))
    assert "scipy" in loaded
    assert not loaded & {"scipy.special", "scipy.integrate"}
