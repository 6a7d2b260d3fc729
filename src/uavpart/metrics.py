"""Fairness and throughput summaries over users drawn from the density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class UserSample:
    """The grid cell of each sampled user, one row of cells per seed."""

    cells: np.ndarray

    @property
    def n_users(self):
        """Every user drawn: n_seeds * n_users."""
        return self.cells.size


def sample_users(grid, n_users, seeds):
    """Draw n_users users' cells from the cell-mass distribution for each
    of a sequence of seeds: cells of shape (len(seeds), n_users).

    Inverse-CDF sampling over the flat cell masses; each row is that seed's
    own generator's draws.  The CDF ends at exactly 1 and draws lie in
    [0, 1), so every index is a cell with positive mass.  All draws are
    located in one search, taken in sorted order so it walks the CDF once.
    ValueError names n_users when NumPy cannot shape or allocate the draws.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    try:
        draws = np.empty((len(seeds), n_users))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"cannot draw n_users = {n_users} users for n_seeds = {len(seeds)}: "
                         f"{exc}") from None
    for row, seed in zip(draws, seeds):
        np.random.default_rng(seed).random(out=row)
    flat = draws.reshape(-1)
    order = np.argsort(flat)
    cells = np.empty(flat.size, dtype=np.intp)
    cells[order] = np.searchsorted(grid.cell_cdf, flat[order], side="right")
    return UserSample(cells=cells.reshape(draws.shape))


def jain_index(values):
    """Fairness of an allocation: (sum v)^2 / (n * sum v^2), 1 when even.

    Defined for non-negative allocations with at least one positive entry;
    all-zero input raises ValueError.  A 2-D allocation is scored row by
    row: the result is an array holding, for each row, the float the 1-D
    call on that row returns, bit for bit, and any all-zero row raises.
    """
    v = np.asarray(values, dtype=float, order="C")  # C rows sum as 1-D arrays do
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("need a 1-D or 2-D, non-empty allocation")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise ValueError("allocations must be finite and non-negative")
    rows = v.reshape(-1, v.shape[-1])
    peak = rows.max(axis=1, keepdims=True)
    if np.any(peak == 0.0):
        raise ValueError("Jain's index is undefined for an all-zero allocation")
    w = rows / peak  # rescale so the sums cannot over- or underflow
    n = rows.shape[1]
    # Python floats, as the 1-D index always took: float ** 2 is C pow, which
    # is not always s * s
    index = [s**2 / (n * q) for s, q in zip(w.sum(axis=1).tolist(), (w**2).sum(axis=1).tolist())]
    return index[0] if v.ndim == 1 else np.array(index)


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
