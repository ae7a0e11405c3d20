"""Standard initial data: bumps, two-bump profiles, mollified point masses.

All builders normalize discretely so that the box quadrature h*sum(u)
returns the requested mass exactly (to roundoff).
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Field, Grid1D

__all__ = ["gaussian_bump", "compact_bump", "two_bump", "mollified_dirac"]


def _normalized(grid: Grid1D, values: np.ndarray, mass: float) -> Field:
    if mass == 0.0:
        return Field(grid, np.zeros(grid.n))
    total = grid.spacing * values.sum()
    if total <= 0.0:
        raise ValueError("initial profile has no mass")
    # Python floats: an overflow gives inf here, not a numpy warning
    scale = mass / float(total)
    if not math.isfinite(scale * float(values.max())):
        raise ValueError(f"mass {mass:g} over profile mass {total:g} overflows")
    return Field(grid, values * scale)


def gaussian_bump(grid: Grid1D, mass: float = 1.0, width: float = 1.0,
                  center: float = 0.0) -> Field:
    """Gaussian of the given mass, standard deviation `width`."""
    v = np.exp(-0.5 * ((grid.nodes - center) / width) ** 2)
    return _normalized(grid, v, mass)


def _bump(x, center: float, radius: float, height: float = 1.0) -> np.ndarray:
    """height * exp(1 - 1/(1 - y^2)) for |y| < 1, else 0; y = (x - center)/radius."""
    y = (np.asarray(x, dtype=float) - center) / radius
    out = np.zeros_like(y)
    inside = np.abs(y) < 1.0
    out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - y[inside] ** 2))
    return out


def compact_bump(grid: Grid1D, mass: float = 1.0, radius: float = 1.0,
                 center: float = 0.0) -> Field:
    """Smooth compactly supported bump exp(1 - 1/(1-y^2)) on |y| < 1."""
    return _normalized(grid, _bump(grid.nodes, center, radius), mass)


def two_bump(grid: Grid1D, mass: float = 1.0,
             centers: tuple = (-2.0, 1.5),
             widths: tuple = (0.9, 0.5),
             weights: tuple = (0.65, 0.35)) -> Field:
    """Asymmetric superposition of two Gaussians with total mass `mass`."""
    v = np.zeros(grid.n)
    for c, w, a in zip(centers, widths, weights):
        v += a * np.exp(-0.5 * ((grid.nodes - c) / w) ** 2)
    return _normalized(grid, v, mass)


def mollified_dirac(grid: Grid1D, mass: float = 1.0, center: float = 0.0) -> Field:
    """Point mass mollified at grid scale: Gaussian of width 4h."""
    return gaussian_bump(grid, mass=mass, width=4.0 * grid.spacing, center=center)
