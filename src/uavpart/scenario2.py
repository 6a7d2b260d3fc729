"""Hover-time minimization for fixed per-user loads.

Inside a region the bandwidth split that finishes all users together is
closed-form; between regions the shared dual ascent prices each UAV's control
time, and each cell goes to its least marginal hover cost at those prices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import compute_radio_field
from .errors import InfeasibleError
from .grid import measure
from .partition import (
    INFEASIBLE,
    DualPotentials,
    Partition,
    ascend_dual,
    assign_by_min_cost,
    region_masses,
    weighted_voronoi,
)
from .scenario1 import DEFAULT_MASS_TOL, DEFAULT_MAX_ITER, per_uav_controls

BRUTE_FORCE_LIMIT = 1_000_000


@dataclass(frozen=True)
class LoadField:
    """Per-cell demand in bits for a user at that cell."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.ascontiguousarray(self.bits, dtype=float)
        if b.ndim != 1:
            raise ValueError("load must be 1-D over cells")
        if not np.all(np.isfinite(b)) or np.any(b < 0):
            raise ValueError("load must be finite and non-negative")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    @classmethod
    def uniform(cls, grid, bits):
        return cls(np.full(grid.n_cells, float(bits)))


@dataclass(frozen=True)
class HoverReport:
    """Per-UAV hover breakdown for a partition."""

    serve_times: np.ndarray
    control_times: np.ndarray

    @property
    def hover_times(self):
        return self.serve_times + self.control_times

    @property
    def total(self):
        return float(self.hover_times.sum())


def optimal_bandwidth_split(loads, efficiencies, bandwidth):
    """Split a band over users so that all of them finish together.

    Returns (per-user Hz, common finish seconds).  Shares are proportional
    to load over spectral efficiency, and the finish time equals serving the
    users one after another on the full band.  A user with demand but zero
    efficiency raises InfeasibleError; with zero total demand the band is
    split evenly and the finish time is zero.
    """
    u = np.atleast_1d(np.asarray(loads, dtype=float))
    e = np.atleast_1d(np.asarray(efficiencies, dtype=float))
    if u.shape != e.shape or u.ndim != 1 or len(u) == 0:
        raise ValueError("loads and efficiencies must be 1-D and equal length")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if np.any(u < 0) or np.any(e < 0):
        raise ValueError("loads and efficiencies must be non-negative")
    if np.any((u > 0) & (e == 0)):
        raise InfeasibleError("user with demand but no usable rate")
    ratio = np.divide(u, e, out=np.zeros_like(u), where=e > 0)
    total = float(ratio.sum())
    if total == 0.0:
        return np.full(len(u), bandwidth / len(u)), 0.0
    return bandwidth * ratio / total, total / bandwidth


def hover_time_equal_split(grid, region, radio, uav_index, load, control, n_users):
    """Seconds to clear the region when every user gets the same bandwidth
    share; the slowest populated cell sets the finish time."""
    models = per_uav_controls(control, radio.n_uavs)
    region = np.asarray(region, dtype=bool)
    if np.any(region & ~radio.feasible_by_uav[uav_index]):
        raise InfeasibleError(
            f"region of UAV {uav_index} contains cells below its SINR floor"
        )
    a = measure(grid, region)
    ctrl = models[uav_index].time_of_mass(a, n_users)
    idx = np.flatnonzero(region & (grid.cell_mass > 0))
    if len(idx) == 0 or a == 0.0:
        return ctrl
    eff = radio.spectral_eff[uav_index, idx]
    slowest = float((load.bits[idx] / eff).max())
    return n_users * a * slowest / radio.bandwidths[uav_index] + ctrl


def region_hover_report(grid, part, radio, load, control, n_users):
    """HoverReport for every UAV of a partition: transmission seconds under
    the optimal in-region bandwidth split plus control overhead."""
    models = per_uav_controls(control, radio.n_uavs)
    if part.assignment.shape != (grid.n_cells,) or load.bits.shape != (grid.n_cells,):
        raise ValueError("partition and load must cover every grid cell")
    serve = np.zeros(part.n_uavs)
    ctrl = np.zeros(part.n_uavs)
    for i in range(part.n_uavs):
        region = part.region(i)
        if np.any(region & ~radio.feasible_by_uav[i]):
            raise InfeasibleError(f"region of UAV {i} contains cells below its SINR floor")
        idx = np.flatnonzero(region)
        eff = radio.spectral_eff[i, idx]
        demand = load.bits[idx] * grid.cell_mass[idx]
        serve[i] = n_users * float((demand / eff).sum()) / radio.bandwidths[i]
        ctrl[i] = models[i].time_of_mass(measure(grid, region), n_users)
    return HoverReport(serve_times=serve, control_times=ctrl)


def marginal_hover_cost(grid, radio, load, control, masses, n_users):
    """Per-cell cost of adding the cell to each UAV: transmission seconds for
    the cell's users plus the control-time slope at the UAV's current mass.
    +inf below the SINR floor."""
    models = per_uav_controls(control, radio.n_uavs)
    if load.bits.shape != (grid.n_cells,):
        raise ValueError("load must cover every grid cell")
    masses = np.asarray(masses, dtype=float)
    eff = np.where(radio.feasible_by_uav, radio.spectral_eff, 1.0)
    serve = n_users * load.bits[None, :] / (radio.bandwidths[:, None] * eff)
    slope = np.array(
        [m.rate_of_mass(a, n_users) for m, a in zip(models, masses)]
    )
    return np.where(radio.feasible_by_uav, serve + slope[:, None], np.inf)


@dataclass(frozen=True)
class Scenario2Result:
    partition: Partition
    report: HoverReport
    radio: object
    potentials: DualPotentials | None = None
    duality_gap: float | None = None


def solve_scenario2(grid, uavs, params, load, control, n_users,
                    mass_tol=DEFAULT_MASS_TOL, max_iter=DEFAULT_MAX_ITER, radio=None):
    """Minimize total hover time by ascending the dual of the relaxed problem,
    D(l) = sum_c m_c min_i (s_ic + l_i) - sum_i l_i^2 / (2 k_i), over psi = -l.

    s_ic is the cell's transmission seconds per unit mass, k_i = 2 alpha_i N^2,
    and l_i = g_i'(b_i) the control slope at the mass b_i that UAV i is priced
    at.  The ascent starts from the slopes at the max-SINR diagram's masses
    and stops when the region masses match b within mass_tol (or stall); each
    cell then goes to its least marginal hover cost at b.  That partition's
    hover total minus D is duality_gap = sum_i k_i (a_i - b_i)^2 / 2 seconds.
    Unservable populated cells raise InfeasibleError.
    """
    if radio is None:
        radio = compute_radio_field(grid, uavs, params)
    models = per_uav_controls(control, len(uavs))
    dead = ~radio.feasible & (grid.cell_mass > 0)
    if np.any(dead):
        k = np.flatnonzero(dead)
        raise InfeasibleError(
            f"{len(k)} populated cells have no link above the SINR floor, "
            f"first at ({grid.cell_x[k[0]]:.0f} m, {grid.cell_y[k[0]]:.0f} m)"
        )
    curvature = np.array([m.rate_of_mass(1.0, n_users) for m in models])
    priced = curvature > 0

    def gap(masses, wanted):
        return 0.5 * float(curvature @ (masses - wanted) ** 2)

    # at zero mass the marginal hover cost is the transmission time alone
    seconds = marginal_hover_cost(grid, radio, load, models, np.zeros(len(uavs)), n_users)
    potentials = ascend_dual(
        grid, seconds, -curvature * weighted_voronoi(grid, radio).masses,
        term=lambda psi: -float(psi[priced] ** 2 @ (0.5 / curvature[priced])),
        target=lambda psi, masses: np.divide(-psi, curvature, out=masses.copy(), where=priced),
        mass_tol=mass_tol, max_iter=max_iter, gap=gap,
    )
    priced_at = np.divide(-potentials.psi, curvature, out=np.zeros(len(uavs)), where=priced)
    costs = marginal_hover_cost(grid, radio, load, models, priced_at, n_users)
    part = assign_by_min_cost(grid, costs, feasible=radio.feasible)
    report = region_hover_report(grid, part, radio, load, models, n_users)
    return Scenario2Result(part, report, radio, potentials, gap(part.masses, priced_at))


def brute_force_min_hover(grid, uavs, params, load, control, n_users, radio=None):
    """Exhaustive minimum of total hover time over all feasible assignments.

    Every cell ranges over the UAVs whose SINR floor it meets; instances with
    more than BRUTE_FORCE_LIMIT assignments raise ValueError.  Ties go to the first
    assignment in lexicographic order.
    """
    if radio is None:
        radio = compute_radio_field(grid, uavs, params)
    models = per_uav_controls(control, len(uavs))
    choices = [np.flatnonzero(radio.feasible_by_uav[:, c]) for c in range(grid.n_cells)]
    if any(len(ch) == 0 and grid.cell_mass[c] > 0 for c, ch in enumerate(choices)):
        raise InfeasibleError("populated cell with no link above the SINR floor")
    count = 1
    for ch in choices:
        count *= max(len(ch), 1)
        if count > BRUTE_FORCE_LIMIT:
            raise ValueError(f"instance exceeds the {BRUTE_FORCE_LIMIT} assignment limit")
    eff = np.where(radio.feasible_by_uav, radio.spectral_eff, 1.0)
    serve_cost = (
        n_users * load.bits[None, :] * grid.cell_mass[None, :]
        / (radio.bandwidths[:, None] * eff)
    )
    options = [ch if len(ch) else np.array([0]) for ch in choices]
    best_total, best_assignment = np.inf, None
    for combo in itertools.product(*options):
        assignment = np.array(combo)
        masses = region_masses(grid, assignment, len(uavs))
        total = float(serve_cost[assignment, np.arange(grid.n_cells)].sum()) + sum(
            mo.time_of_mass(a, n_users) for mo, a in zip(models, masses)
        )
        if total < best_total:
            best_total = total
            best_assignment = assignment
    unservable = np.array([len(ch) == 0 for ch in choices])
    best_assignment = np.where(unservable, INFEASIBLE, best_assignment)
    part = Partition(best_assignment, region_masses(grid, best_assignment, len(uavs)))
    report = region_hover_report(grid, part, radio, load, models, n_users)
    return Scenario2Result(part, report, radio)
