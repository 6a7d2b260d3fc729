"""Fairness and throughput summaries over users drawn from the density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UserSample:
    """The grid cell of each sampled user and the seed used."""

    cells: np.ndarray
    seed: int

    @property
    def n_users(self):
        return len(self.cells)


def sample_users(grid, n_users, seed):
    """Draw users' cells from the cell-mass distribution.

    Inverse-CDF sampling over the flat cell masses; fully determined by the
    seed.  The CDF ends at exactly 1 and draws lie in [0, 1), so every index
    is a cell with positive mass.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    rng = np.random.default_rng(seed)
    cells = np.searchsorted(grid.cell_cdf, rng.random(n_users), side="right")
    return UserSample(cells=cells, seed=seed)


def jain_index(values):
    """Fairness of an allocation: (sum v)^2 / (n * sum v^2), 1 when even.

    Defined for non-negative allocations with at least one positive entry;
    all-zero input raises ValueError.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise ValueError("need a 1-D, non-empty allocation")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("allocations must be finite and non-negative")
    peak = float(v.max())
    if peak == 0.0:
        raise ValueError("Jain's index is undefined for an all-zero allocation")
    w = v / peak  # rescale so the sums cannot over- or underflow
    return float(w.sum()) ** 2 / (len(v) * float((w**2).sum()))


def service_per_user(service, sample):
    """Bits for each sampled user: service holds each cell's bits per user
    on its own link, zero on unassigned cells."""
    return service[sample.cells]


def total_data_service(grid, service, n_users):
    """Total bits delivered to the expected user population, from each
    cell's bits per user (zero on unassigned cells)."""
    idx = np.flatnonzero(service)
    # einsum, not a BLAS dot: a threaded ddot stalls when the CPUs are busy
    return n_users * float(np.einsum("c,c->", service[idx], grid.cell_mass[idx]))
