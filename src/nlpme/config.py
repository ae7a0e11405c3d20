"""Experiment configuration: INI-style text checked against one schema.

A config is sections of `key = value` lines.  SCHEMA declares every
section and key a config may hold, each with a cast that parses and
range-checks its value and a default; a section or key it does not
declare is an error.  [experiment], [model], [grid], [time], [initial]
and [output] are the core sections.  Every other section holds the knobs
of one experiment (`[transform]` for transform-check, `[barrier]` for
barrier-check, else the experiment's own name); only the selected
experiment's section is read, into the typed values of
`ExperimentConfig.knobs`, so one file may carry the knobs of several
experiments.  A default may depend on `t_end`.  Every check that
needs only the config runs here, so a bad value ends before a run
starts; each is reported with the dotted key that caused it and, for
syntax errors, the line number from the parser.

Example::

    [experiment]
    kind = simulate
    seed = 0

    [model]
    m = 2.0
    s = 0.5

    [grid]
    half_length = 15.0
    n = 1024

    [time]
    t_end = 5.0
    snapshots = 11

    [initial]
    kind = gaussian
    mass = 1.0
    width = 1.0

    [output]
    dir = out
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _finite_speed, decay_fit_span
from .evolve import ModelParams, _checked_schedule
from .grid import Field, Grid1D, make_grid
from .integrated import _bump_support, _check_barrier_range
from . import initial_data as _init

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config",
           "EXPERIMENTS", "SCHEMA"]

EXPERIMENTS = (
    "simulate",
    "integrated",
    "continuation",
    "propagation",
    "smoothing",
    "asymptotics",
    "transform-check",
    "barrier-check",
)

INITIAL_KINDS = ("gaussian", "bump", "two-bump", "file")

# pipelines that normalize by the initial mass or its support, fit its decay,
# or relax a profile of that mass
NEEDS_MASS = ("continuation", "propagation", "smoothing", "asymptotics",
              "transform-check")
# the key that sets how far each initial kind spreads over the grid
EXTENT_KEYS = {"gaussian": "initial.width", "bump": "initial.radius",
               "two-bump": "initial.widths", "file": "initial.path"}


class ConfigError(ValueError):
    """Raised for syntax or semantic problems; message names the key."""


def _finite(raw: str) -> float:
    """float(raw), rejecting nan and inf, which parse but no run can use."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _floats(raw: str):
    return tuple(_finite(tok) for tok in raw.replace(",", " ").split())


def _where(cast, test, need: str):
    """`cast`, raising ValueError("need ...") unless test(value) holds."""
    def checked(raw: str):
        value = cast(raw)
        if not test(value):
            raise ValueError(f"need {need}")
        return value
    return checked


def _schedule(raw: str) -> list:
    triples = [_floats(part) for part in raw.split(";")]
    if any(len(tri) != 3 for tri in triples):
        raise ValueError("each entry needs three values (eps delta mu)")
    return _checked_schedule(triples)


_POSITIVE = _where(_finite, lambda v: v > 0.0, "a positive value")
_NONNEGATIVE = _where(_finite, lambda v: v >= 0.0, "a nonnegative value")
_COUNT = _where(int, lambda v: v >= 1, "an integer >= 1")
_WINDOW = _where(_floats, lambda w: len(w) == 2 and 0.0 < w[0] < w[1],
                 "two times 0 < lo < hi")
_PAIR = _where(_floats, lambda v: len(v) == 2, "two values")
_POSITIVE_PAIR = _where(_floats, lambda v: len(v) == 2 and min(v) > 0.0,
                        "two positive values")
_NONNEGATIVE_PAIR = _where(_floats, lambda v: len(v) == 2 and min(v) >= 0.0,
                           "two nonnegative values")
_BARRIER = {"x0": (_where(_finite, lambda v: v < 0.0, "x0 < 0"), -1.0),
            "t_probe": (_POSITIVE, 0.1)}
REQUIRED = object()  # the default of a key its section must set

# section -> key -> (cast, default); a callable default takes the
# ExperimentConfig, and a default is used as it stands, uncast
SCHEMA = {
    "experiment": {"kind": (str, None),
                   "seed": (_where(int, lambda v: v >= 0, "an integer >= 0"), 0)},
    "model": {"m": (_where(_finite, lambda v: v > 1.0, "m > 1"), REQUIRED),
              "s": (_where(_finite, lambda v: 0.0 < v < 1.0, "0 < s < 1"), REQUIRED),
              "eps": (_NONNEGATIVE, 0.0), "delta": (_NONNEGATIVE, 0.0),
              "mu": (_NONNEGATIVE, 0.0)},
    "grid": {"half_length": (_POSITIVE, REQUIRED),
             "n": (_where(int, lambda v: v >= 16 and v & (v - 1) == 0,
                          "a power of two >= 16"), REQUIRED)},
    "time": {"t_end": (_POSITIVE, 1.0),
             "snap_times": (_where(_floats, lambda v: len(set(v)) >= 2,
                                   "at least 2 distinct times"), None),
             "snapshots": (_where(int, lambda v: v >= 2, "an integer >= 2"), 11)},
    "initial": {"kind": (_where(str, lambda v: v in INITIAL_KINDS,
                                "one of " + ", ".join(INITIAL_KINDS)), "gaussian"),
                "mass": (_NONNEGATIVE, 1.0), "width": (_finite, 1.0),
                "radius": (_POSITIVE, 1.0), "center": (_finite, 0.0),
                "centers": (_PAIR, (-2.0, 1.5)), "widths": (_POSITIVE_PAIR, (0.9, 0.5)),
                "weights": (_NONNEGATIVE_PAIR, (0.65, 0.35)), "path": (str, "")},
    "output": {"dir": (str, "out")},
    "integrated": {"duality_tol": (_POSITIVE, 0.05), "pairs": (_COUNT, 50),
                   "steps": (_COUNT, 100)},
    "continuation": {"schedule": (_schedule, ((0.1, 0.01, 0.01), (0.05, 0.005, 0.005),
                                              (0.025, 0.0025, 0.0025))),
                     "checkpoint": (_NONNEGATIVE, lambda cfg: cfg.t_end)},
    "propagation": {"window": (_WINDOW, lambda cfg: (0.1, min(1.0, cfg.t_end))),
                    **_BARRIER},
    "smoothing": {"window": (_WINDOW, (1.0, 20.0)), "gap_tol": (_POSITIVE, 0.10)},
    "asymptotics": {
        "lambdas": (_where(_floats, lambda v: len(v) >= 2 and v[0] >= 1.0
                           and all(b > a for a, b in zip(v, v[1:])),
                           ">= 2 strictly increasing values, the first >= 1"),
                    (1.0, 2.0, 4.0, 8.0))},
    # the image exponent m = (2q-1)/q of the FPME map must exceed 1
    "transform": {"q": (_where(_finite, lambda v: v > 1.0, "q > 1"), 2.0),
                  "sigma": (_where(_finite, lambda v: 0.0 < v < 1.0, "0 < sigma < 1"),
                            0.5),
                  "tau_end": (_POSITIVE, 14.0)},
    "barrier": dict(_BARRIER),
}
# the knob section of an experiment whose section is not named after it
KNOB_SECTION = {"transform-check": "transform", "barrier-check": "barrier"}


def _build_initial(initial: dict, grid: Grid1D) -> Field:
    """The [initial] section's data on the grid, unchecked."""
    kind, mass = initial["kind"], initial["mass"]
    if kind == "gaussian":
        if initial["width"] <= 0.0:  # mollified point mass at grid scale
            return _init.mollified_dirac(grid, mass, initial["center"])
        return _init.gaussian_bump(grid, mass, initial["width"], initial["center"])
    if kind == "bump":
        return _init.compact_bump(grid, mass, initial["radius"], initial["center"])
    if kind == "two-bump":
        return _init.two_bump(grid, mass, initial["centers"], initial["widths"],
                              initial["weights"])
    from .csvio import read_csv

    path = initial["path"]
    header, cols = read_csv(path)
    if len(cols) < 2 or len(cols[1]) != grid.n:
        raise ConfigError(f"initial.path: file {path!r} does not hold {grid.n} samples")
    return Field(grid, cols[1])


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    model: ModelParams | None
    grid: Grid1D
    t_end: float
    snap_times: np.ndarray
    initial: dict  # the [initial] section, typed
    output_dir: str
    knobs: dict = field(default_factory=dict)  # the experiment's section, typed
    raw_text: str = ""

    def initial_field(self) -> Field:
        """The initial data on the grid.

        Raises ConfigError, naming the key, when the data are not finite or
        not nonnegative on the nodes, when no node samples them, when a
        pipeline of NEEDS_MASS gets zero mass, or when the data are so large
        that sup^max(4, m), the scale of the L4 diagnostic and of the flux,
        passes 1e200 and the run would overflow.
        """
        kind = self.initial["kind"]
        try:
            u0 = _build_initial(self.initial, self.grid)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{EXTENT_KEYS[kind]}: the {kind} data cannot be "
                              f"sampled at spacing {self.grid.spacing:g} ({exc})") from None
        if np.any(u0.values < 0.0):
            raise ConfigError(f"{EXTENT_KEYS[kind]}: the {kind} data must be nonnegative")
        if self.experiment in NEEDS_MASS and not np.any(u0.values > 0.0):
            raise ConfigError(f"{EXTENT_KEYS[kind]}: {self.experiment} needs positive "
                              f"mass, but the {kind} data are zero on every node")
        top = float(np.max(u0.values))
        power = max(4.0, self.model.m)
        if top > 0.0 and power * math.log10(top) > 200.0:
            key = "initial.path" if kind == "file" else "initial.mass"
            raise ConfigError(f"{key}: sup {top:.3g} of the {kind} data to the "
                              f"power max(4, m) = {power:g} passes 1e200")
        return u0


def _section(parser, section: str) -> dict:
    """The declared keys of `section`, cast; defaults for the keys it omits."""
    values = {}
    for key, (cast, default) in SCHEMA[section].items():
        dotted = f"{section}.{key}"
        if not parser.has_option(section, key):
            if default is REQUIRED:
                raise ConfigError(f"{dotted}: required key is missing")
            values[key] = default
            continue
        raw = parser.get(section, key)
        try:
            values[key] = cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{dotted}: cannot use {raw!r} ({exc})") from None
    return values


def _check_undeclared(parser) -> None:
    for section in parser.sections():
        keys = parser.options(section)
        if section not in SCHEMA:
            where = f"{section}.{keys[0]}" if keys else section
            raise ConfigError(f"{where}: unknown section [{section}]; valid "
                              "sections: " + ", ".join(SCHEMA))
        for key in keys:
            if key not in SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown key; [{section}] "
                                  "takes " + ", ".join(SCHEMA[section]))


def _smoothing_times(lo: float, t_end: float) -> np.ndarray:
    """Smoothing's snapshot times, which replace [time]'s: 0, then 33 times
    geometric from max(lo/4, 1e-3) to t_end, for a window starting at lo."""
    first = max(lo / 4, 1e-3)
    if first > t_end:
        raise ConfigError(
            f"smoothing.window: snapshots start at max(lo/4, 1e-3) = {first:g}, "
            f"after time.t_end = {t_end:g}")
    return np.concatenate([[0.0], np.geomspace(first, t_end, 33)])


def _check_knobs(cfg: ExperimentConfig, section: str) -> None:
    """The checks of the selected experiment's knobs that need other keys."""
    kind, knobs = cfg.experiment, cfg.knobs
    if kind == "continuation" and not knobs["checkpoint"] <= cfg.t_end:
        raise ConfigError(f"continuation.checkpoint: must lie in [0, time.t_end], "
                          f"got {knobs['checkpoint']:g}")
    if kind == "transform-check" and cfg.grid.n < 32:  # make_grid needs n >= 16
        raise ConfigError(f"grid.n: transform-check refines from a grid of n/2 "
                          f"nodes, so n must be at least 32, got {cfg.grid.n}")
    if kind == "smoothing":
        lo, hi = knobs["window"]
        inside = cfg.snap_times[(cfg.snap_times >= lo) & (cfg.snap_times <= hi)]
        if not decay_fit_span(inside):
            raise ConfigError(
                f"smoothing.window: holds {len(inside)} of the snapshot times "
                f"(geometric from {cfg.snap_times[1]:g} to time.t_end = {cfg.t_end:g}); "
                "the decay fit needs >= 5 spanning at least a decade")
    if kind == "propagation" and _finite_speed(cfg.model.m):  # the support fit
        lo, hi = knobs["window"]
        inside = np.count_nonzero((cfg.snap_times >= lo) & (cfg.snap_times <= hi))
        if inside < 3:
            raise ConfigError(
                f"propagation.window: holds {inside} of the snapshot times; "
                "the affine support fit needs at least 3")
    elif kind in ("barrier-check", "propagation"):  # the barrier witness
        m, x0 = cfg.model.m, knobs["x0"]
        center, radius = _bump_support(x0)
        if not center + radius < cfg.grid.half_length:
            raise ConfigError(f"{section}.x0: need the barrier bump on "
                              f"[-x0+1, -x0+3] inside the grid, got {x0:g}")
        try:
            _check_barrier_range(m, cfg.model.s, x0, knobs["t_probe"])
        except ValueError as err:
            raise ConfigError(f"model.m: {err}") from None


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse and validate configuration text.

    `experiment` (e.g. from the command line) overrides the config's own
    [experiment] kind; a conflict between the two is an error.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    _check_undeclared(parser)

    head = _section(parser, "experiment")
    kind = head["kind"]
    if experiment is not None:
        if kind is not None and kind != experiment:
            raise ConfigError(
                f"experiment.kind: config says {kind!r} but the command line "
                f"selected {experiment!r}"
            )
        kind = experiment
    if kind is None:
        raise ConfigError("experiment.kind: required key is missing")
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"experiment.kind: unknown experiment {kind!r}; valid names: "
            + ", ".join(EXPERIMENTS)
        )

    grid = make_grid(**_section(parser, "grid"))

    model = None
    if parser.has_section("model"):
        model = ModelParams(**_section(parser, "model"))
    elif kind != "transform-check":
        raise ConfigError("model: required section is missing")

    times = _section(parser, "time")
    t_end = times["t_end"]
    if times["snap_times"] is not None:
        snap_times = np.sort(np.asarray(times["snap_times"], dtype=float))
        snap_times = snap_times[np.concatenate(([True], snap_times[1:] != snap_times[:-1]))]
        if snap_times[0] < 0 or snap_times[-1] > t_end:
            raise ConfigError("time.snap_times: values must lie in [0, t_end]")
    else:
        snap_times = np.linspace(0.0, t_end, times["snapshots"])

    initial = _section(parser, "initial")
    if initial["mass"] == 0 and kind in NEEDS_MASS:
        raise ConfigError(f"initial.mass: {kind} needs positive mass, got 0")
    if initial["kind"] == "file":
        if not initial["path"]:
            raise ConfigError("initial.path: required for kind = file")
        if not os.path.exists(initial["path"]):
            raise ConfigError(f"initial.path: no such file {initial['path']!r}")

    cfg = ExperimentConfig(
        experiment=kind,
        seed=head["seed"],
        model=model,
        grid=grid,
        t_end=t_end,
        snap_times=snap_times,
        initial=initial,
        output_dir=_section(parser, "output")["dir"],
        raw_text=text,
    )
    section = KNOB_SECTION.get(kind, kind)
    if section in SCHEMA:
        cfg.knobs = {key: value(cfg) if callable(value) else value
                     for key, value in _section(parser, section).items()}
        if kind == "smoothing":
            cfg.snap_times = _smoothing_times(cfg.knobs["window"][0], t_end)
        _check_knobs(cfg, section)
    return cfg


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), experiment)
