"""Discretized service area: rectangular cell grid, midpoint quadrature and
user-density fields.

Cells are indexed flat, k = iy * nx + ix, with x running fastest.  Densities
are stored per square meter and always integrate to 1 over the area under
the midpoint rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class AreaGrid:
    """Rectangular area [0, width] x [0, height] split into nx * ny cells.

    density is flat, length nx * ny, non-negative, and must integrate to 1
    within NORMALIZATION_TOL.  The array is locked read-only on construction.
    """

    width: float
    height: float
    nx: int
    ny: int
    density: np.ndarray

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ValueError("area dimensions must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")
        f = np.ascontiguousarray(self.density, dtype=float)
        if f.shape != (self.nx * self.ny,):
            raise ValueError(
                f"density must be flat with {self.nx * self.ny} entries, got shape {f.shape}"
            )
        if not np.all(np.isfinite(f)) or np.any(f < 0):
            raise ValueError("density must be finite and non-negative")
        total = f.sum() * self.cell_area
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {total!r}, not 1")
        f.setflags(write=False)
        object.__setattr__(self, "density", f)

    @property
    def n_cells(self):
        return self.nx * self.ny

    @property
    def dx(self):
        return self.width / self.nx

    @property
    def dy(self):
        return self.height / self.ny

    @property
    def cell_area(self):
        return self.dx * self.dy

    @cached_property
    def column_x(self):
        """x coordinate of the cell centers in each grid column, length nx."""
        x = (np.arange(self.nx) + 0.5) * self.dx
        x.setflags(write=False)
        return x

    @cached_property
    def row_y(self):
        """y coordinate of the cell centers in each grid row, length ny."""
        y = (np.arange(self.ny) + 0.5) * self.dy
        y.setflags(write=False)
        return y

    @cached_property
    def cell_x(self):
        """x coordinate of each cell center, flat: column_x once per row."""
        x = np.tile(self.column_x, self.ny)
        x.setflags(write=False)
        return x

    @cached_property
    def cell_y(self):
        """y coordinate of each cell center, flat: each row_y nx times."""
        y = np.repeat(self.row_y, self.nx)
        y.setflags(write=False)
        return y

    @cached_property
    def cell_mass(self):
        """User mass of each cell: density * cell_area.  Sums to 1."""
        m = self.density * self.cell_area
        m.setflags(write=False)
        return m

    @cached_property
    def cell_cdf(self):
        """Cumulative cell mass scaled to end at exactly 1, for inverse-CDF
        sampling."""
        c = np.cumsum(self.cell_mass)
        c /= c[-1]
        c.setflags(write=False)
        return c


def uniform_density(width, height, nx, ny):
    """Grid with a constant density 1 / (width * height)."""
    f = np.full(nx * ny, 1.0 / (width * height))
    return AreaGrid(width, height, nx, ny, f)


def truncated_gaussian(width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y):
    """Grid with a Gaussian hot spot truncated to the area.

    The separable kernel exp(-(x-mu_x)^2 / 2 sigma_x^2) * exp(-(y-mu_y)^2 /
    2 sigma_y^2) is evaluated at cell centers and renormalized discretely, so
    the midpoint rule integrates to exactly 1 on this grid.  The mean may lie
    outside the area; a cell whose squared offset overflows gets zero density.
    """
    if not all(s > 0 and 0.0 < s * s < math.inf for s in (sigma_x, sigma_y)):
        raise ValueError("sigma must be positive with a finite, non-zero square")
    nc = nx * ny
    x = (np.arange(nc) % nx + 0.5) * (width / nx)
    y = (np.arange(nc) // nx + 0.5) * (height / ny)
    with np.errstate(over="ignore"):
        kern = np.exp(
            -((x - mu_x) ** 2) / (2.0 * sigma_x**2) - ((y - mu_y) ** 2) / (2.0 * sigma_y**2)
        )
    if not kern.sum() > 0:
        raise ValueError("hot spot density underflows to zero on every cell")
    cell_area = (width / nx) * (height / ny)
    f = kern / (kern.sum() * cell_area)
    return AreaGrid(width, height, nx, ny, f)

