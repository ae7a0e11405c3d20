"""Experiment configuration: INI-style text with validated semantics.

A config is sections of `key = value` lines; dotted section headers nest
experiment-specific knobs.  Every violated precondition is reported with
the dotted key that caused it and, for syntax errors, the line number from
the parser.

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

from .evolve import ModelParams
from .grid import Field, Grid1D, make_grid
from . import initial_data as _init

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config",
           "EXPERIMENTS"]

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

INITIAL_KINDS = ("gaussian", "bump", "two-bump", "heaviside-primitive", "file")

# pipelines that normalize by the initial mass or its support
NEEDS_MASS = ("continuation", "propagation", "asymptotics")
# the key that sets how far each initial kind spreads over the grid
EXTENT_KEYS = {"gaussian": "initial.width", "bump": "initial.radius",
               "two-bump": "initial.widths", "heaviside-primitive": "initial.radius",
               "file": "initial.path"}


class ConfigError(ValueError):
    """Raised for syntax or semantic problems; message names the key."""


@dataclass
class InitialSpec:
    kind: str
    mass: float = 1.0
    width: float = 1.0
    radius: float = 1.0
    center: float = 0.0
    centers: tuple = (-2.0, 1.5)
    widths: tuple = (0.9, 0.5)
    weights: tuple = (0.65, 0.35)
    x0: float = -1.0
    path: str = ""

    def build(self, grid: Grid1D) -> Field:
        if self.kind == "gaussian":
            if self.width <= 0.0:  # mollified point mass at grid scale
                return _init.mollified_dirac(grid, self.mass, self.center)
            return _init.gaussian_bump(grid, self.mass, self.width, self.center)
        if self.kind == "bump":
            return _init.compact_bump(grid, self.mass, self.radius, self.center)
        if self.kind == "two-bump":
            return _init.two_bump(grid, self.mass, self.centers, self.widths,
                                  self.weights)
        if self.kind == "heaviside-primitive":
            # density whose primitive is a smoothed step at x0: a compact
            # bump of the requested mass just left of x0
            return _init.compact_bump(grid, self.mass, self.radius,
                                      self.x0 - 1.05 * self.radius)
        if self.kind == "file":
            from .csvio import read_csv

            header, cols = read_csv(self.path)
            if len(cols) < 2 or len(cols[1]) != grid.n:
                raise ConfigError(
                    f"initial.path: file {self.path!r} does not hold {grid.n} samples"
                )
            return Field(grid, cols[1])
        raise ConfigError(f"initial.kind: unknown kind {self.kind!r}")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    model: ModelParams | None
    grid: Grid1D
    t_end: float
    snap_times: np.ndarray
    initial: InitialSpec
    output_dir: str
    knobs: dict = field(default_factory=dict)
    raw_text: str = ""

    def initial_field(self) -> Field:
        """The initial data on the grid.

        Raises ConfigError, naming the key, when the data are not finite or
        not nonnegative on the nodes, when no node samples them, when a
        pipeline of NEEDS_MASS gets zero mass, or when the data are so large
        that sup^max(4, m), the scale of the L4 diagnostic and of the flux,
        passes 1e200 and the run would overflow.
        """
        kind = self.initial.kind
        try:
            u0 = self.initial.build(self.grid)
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


def _get(parser, section, key, cast, default=None, required=False):
    dotted = f"{section}.{key}"
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"{dotted}: required key is missing")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{dotted}: cannot parse {raw!r} ({exc})") from None


def _finite(raw: str) -> float:
    """float(raw), rejecting nan and inf, which parse but no run can use."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _floats(raw: str):
    return tuple(_finite(tok) for tok in raw.replace(",", " ").split())


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

    kind = None
    if parser.has_section("experiment"):
        kind = _get(parser, "experiment", "kind", str)
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
    seed = _get(parser, "experiment", "seed", int, default=0) \
        if parser.has_section("experiment") else 0

    if not parser.has_section("grid"):
        raise ConfigError("grid: required section is missing")
    half_length = _get(parser, "grid", "half_length", _finite, required=True)
    n = _get(parser, "grid", "n", int, required=True)
    try:
        grid = make_grid(half_length, n)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None

    model = None
    if parser.has_section("model"):
        kwargs = dict(
            m=_get(parser, "model", "m", _finite, required=True),
            s=_get(parser, "model", "s", _finite, required=True),
            N=_get(parser, "model", "n", int, default=1),
            eps=_get(parser, "model", "eps", _finite, default=0.0),
            delta=_get(parser, "model", "delta", _finite, default=0.0),
            mu=_get(parser, "model", "mu", _finite, default=0.0),
        )
        if kwargs["N"] != 1:
            raise ConfigError(
                f"model.n: the solvers are one-dimensional, got n = {kwargs['N']}")
        try:
            model = ModelParams(**kwargs)
        except ValueError as exc:
            msg = str(exc)
            key = "model.m" if msg.startswith("m ") else (
                "model.s" if msg.startswith("s ") else "model")
            raise ConfigError(f"{key}: {msg}") from None
    elif kind not in ("transform-check",):
        raise ConfigError("model: required section is missing")

    t_end = 1.0
    snap_times = np.linspace(0.0, 1.0, 11)
    if parser.has_section("time"):
        t_end = _get(parser, "time", "t_end", _finite, default=1.0)
        if t_end <= 0:
            raise ConfigError(f"time.t_end: must be positive, got {t_end}")
        listed = _get(parser, "time", "snap_times", _floats)
        if listed is not None:
            snap_times = np.asarray(listed, dtype=float)
            if np.any(snap_times < 0) or np.any(snap_times > t_end):
                raise ConfigError("time.snap_times: values must lie in [0, t_end]")
            snap_times = np.sort(snap_times)
        else:
            count = _get(parser, "time", "snapshots", int, default=11)
            if count < 2:
                raise ConfigError(f"time.snapshots: need at least 2, got {count}")
            snap_times = np.linspace(0.0, t_end, count)

    initial = InitialSpec(kind="gaussian")
    if parser.has_section("initial"):
        ikind = _get(parser, "initial", "kind", str, default="gaussian")
        if ikind not in INITIAL_KINDS:
            raise ConfigError(
                f"initial.kind: unknown kind {ikind!r}; valid kinds: "
                + ", ".join(INITIAL_KINDS)
            )
        initial = InitialSpec(
            kind=ikind,
            mass=_get(parser, "initial", "mass", _finite, default=1.0),
            width=_get(parser, "initial", "width", _finite, default=1.0),
            radius=_get(parser, "initial", "radius", _finite, default=1.0),
            center=_get(parser, "initial", "center", _finite, default=0.0),
            centers=_get(parser, "initial", "centers", _floats,
                         default=(-2.0, 1.5)),
            widths=_get(parser, "initial", "widths", _floats,
                        default=(0.9, 0.5)),
            weights=_get(parser, "initial", "weights", _floats,
                         default=(0.65, 0.35)),
            x0=_get(parser, "initial", "x0", _finite, default=-1.0),
            path=_get(parser, "initial", "path", str, default=""),
        )
        if initial.mass < 0:
            raise ConfigError(f"initial.mass: must be nonnegative, got {initial.mass}")
        if initial.kind in ("bump", "heaviside-primitive") and not initial.radius > 0:
            raise ConfigError(f"initial.radius: must be positive, got {initial.radius}")
        if initial.kind == "two-bump" and not all(w > 0 for w in initial.widths):
            raise ConfigError(f"initial.widths: must be positive, got {initial.widths}")
        if initial.mass == 0 and kind in NEEDS_MASS:
            raise ConfigError(f"initial.mass: {kind} needs positive mass, got 0")
        if initial.kind == "file":
            if not initial.path:
                raise ConfigError("initial.path: required for kind = file")
            if not os.path.exists(initial.path):
                raise ConfigError(f"initial.path: no such file {initial.path!r}")

    output_dir = "out"
    if parser.has_section("output"):
        output_dir = _get(parser, "output", "dir", str, default="out")

    knobs: dict = {}
    for section in parser.sections():
        if section in ("experiment", "model", "grid", "time", "initial", "output"):
            continue
        for key, raw in parser.items(section):
            knobs[f"{section}.{key}"] = raw

    return ExperimentConfig(
        experiment=kind,
        seed=seed,
        model=model,
        grid=grid,
        t_end=float(t_end),
        snap_times=snap_times,
        initial=initial,
        output_dir=output_dir,
        knobs=knobs,
        raw_text=text,
    )


def load_config(path, experiment: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read(), experiment)


def knob(cfg: ExperimentConfig, dotted: str, cast, default):
    """Typed access to an experiment-specific knob; a float must be finite."""
    raw = cfg.knobs.get(dotted)
    if raw is None:
        return default
    try:
        return (_finite if cast is float else cast)(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{dotted}: cannot parse {raw!r} ({exc})") from None


def window_knob(cfg: ExperimentConfig, dotted: str, default: tuple) -> tuple:
    """Time-window knob `lo hi`: two floats with 0 < lo < hi.

    The default is validated too, since some defaults depend on t_end.
    """
    window = knob(cfg, dotted, _floats, default)
    if len(window) != 2 or not 0.0 < window[0] < window[1]:
        raise ConfigError(f"{dotted}: need two times 0 < lo < hi, got {window}")
    return window
