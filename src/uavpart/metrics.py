"""Fairness and throughput summaries over users drawn from the density."""

import operator
from dataclasses import dataclass

import numpy as np

GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter step (Steele, Lea & Flood 2014)


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
    of a sequence of integer seeds in [0, 2**64): cells of shape
    (len(seeds), n_users).

    Inverse-CDF sampling over the flat cell masses.  Each row is that
    seed's own stream (_splitmix64_doubles), so a seed draws the same users
    alone or in any batch.  The CDF, built for this call, ends at exactly 1
    and draws lie in [0, 1), so every index is a cell with positive mass.
    All draws are located in one search, taken in sorted order so it walks
    the CDF once.  ValueError names n_users when NumPy cannot shape or
    allocate the draws, and the seed range when a seed lies outside it.  On
    a host that overcommits memory the allocation can succeed, and the
    process is then killed as the draws fill it.
    """
    if n_users < 1:
        raise ValueError("need at least one user")
    if not all(0 <= operator.index(seed) < 2**64 for seed in seeds):
        raise ValueError("seeds must be non-negative and below 2**64")
    try:
        draws = np.empty((len(seeds), n_users))
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"cannot draw n_users = {n_users} users for n_seeds = {len(seeds)}: "
                         f"{exc}") from None
    _splitmix64_doubles(seeds, draws)
    flat = draws.reshape(-1)
    order = np.argsort(flat)
    cells = np.empty(flat.size, dtype=np.intp)
    cells[order] = np.searchsorted(_cell_cdf(grid), flat[order], side="right")
    return UserSample(cells=cells.reshape(draws.shape))


def _cell_cdf(grid):
    """Cumulative cell mass scaled to end at exactly 1."""
    cdf = np.cumsum(grid.cell_mass)
    cdf /= cdf[-1]
    return cdf


def _splitmix64_doubles(seeds, out):
    """Fill row r of out, a C-ordered float64 (len(seeds), n) array, with
    seed r's n draws in [0, 1): SplitMix64's finalizer over a counter.  Seed
    r's key is k_r = mix(seed_r * GAMMA + GAMMA) and its draw j the top 53
    bits of mix(k_r + (j + 1) * GAMMA) over 2**53, all mod 2**64.  The words
    are worked in out itself, viewed as uint64; the arithmetic is on arrays,
    whose uint64 products wrap without a warning."""
    keys = _mix(np.array(seeds, dtype=np.uint64).reshape(-1, 1) * GAMMA + GAMMA)
    steps = np.arange(1, out.shape[1] + 1, dtype=np.uint64) * GAMMA
    words = _mix(np.add(keys, steps, out=out.view(np.uint64)))
    np.multiply(np.right_shift(words, 11, out=words), 2.0**-53, out=out)


def _mix(z):
    """SplitMix64's finalizer of uint64 z, in place."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    return z


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
