"""Uniform periodic grids and real-valued fields sampled on them.

The computational domain is a truncated periodic box [-L, L) with n
uniformly spaced nodes, n a power of two so that all spectral operators
can use the FFT.  Everything downstream (nonlocal operators, solvers,
diagnostics) works on :class:`Field` objects, which are just a grid plus
an array of samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid1D", "Field", "FracOrder", "make_grid"]


@dataclass(frozen=True, eq=False)
class Grid1D:
    """Uniform periodic grid on [-L, L).

    Attributes
    ----------
    half_length : float
        L; the box is [-L, L).
    n : int
        Number of nodes, a power of two >= 16.
    spacing : float
        Node spacing h = 2L/n.
    nodes : ndarray
        Node positions x_i = -L + i*h.
    """

    half_length: float
    n: int
    spacing: float
    nodes: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return self.half_length == other.half_length and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.half_length, self.n))

    def interior_mask(self, fraction: float = 0.6) -> np.ndarray:
        """Boolean mask selecting the central `fraction` of the box."""
        return np.abs(self.nodes) <= fraction * self.half_length


def make_grid(half_length: float, n: int) -> Grid1D:
    """Build a uniform periodic grid on [-half_length, half_length).

    Raises
    ------
    ValueError
        If half_length <= 0 or n is not a power of two >= 16.
    """
    if not half_length > 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 16, got {n}")
    half_length = float(half_length)
    spacing = 2.0 * half_length / n
    nodes = -half_length + spacing * np.arange(n)
    return Grid1D(half_length, n, spacing, nodes)


@dataclass(eq=False)
class Field:
    """Real samples of a function on a :class:`Grid1D`.

    Values must be finite and match the grid size.  Fields are treated as
    immutable by every operator in this package: operations return new
    instances and never write into `values`.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {values.shape} does not match grid with n={self.grid.n}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.values = values

    def with_values(self, values: np.ndarray) -> "Field":
        """New field on the same grid."""
        return Field(self.grid, np.asarray(values, dtype=float))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


@dataclass(frozen=True)
class FracOrder:
    """Order alpha of the fractional Laplacian (-Delta)^alpha, 0 < alpha <= 1."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"fractional order must lie in (0, 1], got {self.alpha}")
