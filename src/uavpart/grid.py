"""Discretized service area: rectangular cell grid, midpoint quadrature and
user-density fields.

Cells are indexed flat, k = iy * nx + ix, with x running fastest.  Densities
are stored per square meter and always integrate to 1 over the area under
the midpoint rule.
"""

from __future__ import annotations

import math
import sys
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
        _check_shape(self.width, self.height, self.nx, self.ny)
        f = np.ascontiguousarray(self.density, dtype=float)
        if f.shape != (self.nx * self.ny,):
            raise ValueError(
                f"density must be flat with {self.nx * self.ny} entries, got shape {f.shape}"
            )
        if not np.all(np.isfinite(f)) or np.any(f < 0):
            raise ValueError("density must be finite and non-negative")
        total = f.sum() * self.cell_area
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"density integrates to {float(total)!r}, not 1")
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
        return _centers(self.nx, self.width)

    @cached_property
    def row_y(self):
        """y coordinate of the cell centers in each grid row, length ny."""
        return _centers(self.ny, self.height)

    @cached_property
    def cell_mass(self):
        """User mass of each cell: density * cell_area.  Sums to 1."""
        m = self.density * self.cell_area
        m.setflags(write=False)
        return m


def _check_shape(width, height, nx, ny):
    """Raise ValueError unless the grid has a cell per axis and the area's
    sides are positive with a finite, non-zero cell area, the factor of
    AreaGrid's integral: every grid constructor runs this before any other
    arithmetic on the area."""
    if nx < 1 or ny < 1:
        raise ValueError("grid must have at least one cell per axis")
    if not (width > 0 and height > 0 and 0.0 < (width / nx) * (height / ny) < math.inf):
        raise ValueError("area dimensions must be positive with a finite, non-zero cell area")


def _centers(n, length):
    """Read-only midpoints of n equal cells along [0, length]."""
    c = (np.arange(n) + 0.5) * (length / n)
    c.setflags(write=False)
    return c


def uniform_density(width, height, nx, ny):
    """Grid with a constant density 1 / (width * height)."""
    _check_shape(width, height, nx, ny)
    f = np.full(nx * ny, 1.0 / (width * height))
    return AreaGrid(width, height, nx, ny, f)


def check_sigma(sigma_x, sigma_y):
    """Raise ValueError unless both hot-spot sigmas are positive with a
    finite, non-zero square."""
    if not all(s > 0 and 0.0 < s * s < math.inf for s in (sigma_x, sigma_y)):
        raise ValueError("sigma must be positive with a finite, non-zero square")


def truncated_gaussian(width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y):
    """Grid with a Gaussian hot spot truncated to the area.

    The separable kernel exp(-(x-mu_x)^2 / 2 sigma_x^2) * exp(-(y-mu_y)^2 /
    2 sigma_y^2) is evaluated at cell centers as exp(col - row), from the
    column terms -(x - mu_x)^2 / 2 sigma_x^2 and the row terms
    (y - mu_y)^2 / 2 sigma_y^2, and renormalized discretely, so the midpoint
    rule integrates to exactly 1 on this grid.  The mean may lie outside the
    area; a cell whose squared offset overflows gets zero density.

    Raises ValueError when the grid's shape rule or check_sigma does, and
    when the kernel's peak times min(cell area, 1) is not a normal float.
    Passing that, the kernel sum S and S * cell area, by which the kernel is
    divided, are normal floats, so the density integrates to 1; a subnormal
    S * cell area carries fewer than 53 bits and fails AreaGrid's check.
    Since subtraction and exp are monotone, the peak is exp(max(col) -
    min(row)), found in O(nx + ny) work before the (ny, nx) kernel is built.
    """
    _check_shape(width, height, nx, ny)
    check_sigma(sigma_x, sigma_y)
    cell_area = (width / nx) * (height / ny)
    with np.errstate(over="ignore"):
        col = -((_centers(nx, width) - mu_x) ** 2) / (2.0 * sigma_x**2)
        row = ((_centers(ny, height) - mu_y) ** 2) / (2.0 * sigma_y**2)
        if not np.exp(col.max() - row.min()) * min(cell_area, 1.0) >= sys.float_info.min:
            raise ValueError("hot spot density underflows on the grid")
        kern = np.exp(col - row[:, None]).ravel()  # the (ny, nx) grid in cell order
    return AreaGrid(width, height, nx, ny, kern / (kern.sum() * cell_area))
