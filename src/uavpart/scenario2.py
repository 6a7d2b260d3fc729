"""Hover-time minimization for fixed per-user loads.

Inside a region the bandwidth split that finishes all users together is
closed-form; between regions the shared dual ascent prices each UAV's control
time, and each cell goes to its least marginal hover cost at those prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import compute_radio_field
from .errors import InfeasibleError
from .grid import measure
from .partition import DualPotentials, Partition, ascend_dual, shifted_pass
from .partition import assign_by_min_cost  # probed by perfbench as partition.assign
from .partition import weighted_voronoi  # probed by perfbench as partition.voronoi
from .scenario1 import DEFAULT_MASS_TOL, DEFAULT_MAX_ITER


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


def hover_time_equal_split(grid, region, radio, uav_index, load_bits, alpha, n_users):
    """Seconds to clear the region when every user gets the same bandwidth
    share; the slowest populated cell sets the finish time."""
    alpha = np.broadcast_to(alpha, radio.n_uavs)
    region = np.asarray(region, dtype=bool)
    if np.any(region & ~radio.feasible_by_uav[uav_index]):
        raise InfeasibleError(
            f"region of UAV {uav_index} contains cells below its SINR floor"
        )
    a = measure(grid, region)
    ctrl = alpha[uav_index] * (n_users * a) ** 2
    idx = np.flatnonzero(region & (grid.cell_mass > 0))
    if len(idx) == 0 or a == 0.0:
        return ctrl
    eff = radio.spectral_eff[uav_index, idx]
    slowest = float((load_bits / eff).max())
    return n_users * a * slowest / radio.bandwidths[uav_index] + ctrl


def region_hover_report(grid, part, radio, load_bits, alpha, n_users):
    """HoverReport for every UAV of a partition: transmission seconds under
    the optimal in-region bandwidth split plus control overhead."""
    alpha = np.broadcast_to(alpha, radio.n_uavs)
    if part.assignment.shape != (grid.n_cells,):
        raise ValueError("partition must cover every grid cell")
    serve = np.zeros(part.n_uavs)
    ctrl = np.zeros(part.n_uavs)
    for i in range(part.n_uavs):
        region = part.region(i)
        if np.any(region & ~radio.feasible_by_uav[i]):
            raise InfeasibleError(f"region of UAV {i} contains cells below its SINR floor")
        idx = np.flatnonzero(region)
        eff = radio.spectral_eff[i, idx]
        demand = load_bits * grid.cell_mass[idx]
        serve[i] = n_users * float((demand / eff).sum()) / radio.bandwidths[i]
        ctrl[i] = alpha[i] * (n_users * measure(grid, region)) ** 2
    return HoverReport(serve_times=serve, control_times=ctrl)


def marginal_hover_cost(radio, load_bits, alpha, masses, n_users):
    """Per-cell cost of adding the cell to each UAV: transmission seconds for
    the cell's users plus the control-time slope 2 alpha_i N^2 a_i at the
    UAV's current mass a_i.  +inf below the SINR floor."""
    alpha = np.broadcast_to(alpha, radio.n_uavs)
    slope = 2.0 * alpha * n_users**2 * np.asarray(masses, dtype=float)
    # one (n_uavs, n_cells) buffer worked in place: scenario 2 peaks in here
    cost = np.where(radio.feasible_by_uav, radio.spectral_eff, 1.0)
    cost *= radio.bandwidths[:, None]
    np.divide(n_users * load_bits, cost, out=cost)
    cost += slope[:, None]
    cost[~radio.feasible_by_uav] = np.inf
    return cost


@dataclass(frozen=True)
class Scenario2Result:
    partition: Partition
    report: HoverReport
    radio: object
    potentials: DualPotentials
    duality_gap: float


def solve_scenario2(grid, uavs, params, load_bits, alpha, n_users,
                    mass_tol=DEFAULT_MASS_TOL, max_iter=DEFAULT_MAX_ITER, radio=None):
    """Minimize total hover time by ascending the dual of the relaxed problem,
    D(l) = sum_c m_c min_i (s_ic + l_i) - sum_i l_i^2 / (2 k_i), over psi = -l.

    load_bits is every user's demand in bits and alpha the control-time
    weight (one value, or one per UAV).  s_ic is the cell's transmission
    seconds per unit mass, k_i = 2 alpha_i N^2, and l_i = k_i b_i the control
    slope at the mass b_i that UAV i is priced at.  The ascent starts from the
    slopes at the masses of the least-transmission-time assignment (the
    optimum at alpha = 0) and stops when the region masses match b within
    mass_tol (or stall).  The partition is the one ascend_dual returns: each
    cell at its least s_ic - psi_i, its marginal hover cost at b.  That
    partition's hover total minus D is duality_gap = sum_i k_i (a_i - b_i)^2
    / 2 seconds.  A populated cell with no finite transmission time (no link
    above the SINR floor, or a load too large for a float) raises
    InfeasibleError.
    """
    if radio is None:
        radio = compute_radio_field(grid, uavs, params)
    # at zero mass the marginal hover cost is the transmission time alone
    zeros = np.zeros(len(uavs))
    seconds = marginal_hover_cost(radio, load_bits, alpha, zeros, n_users)
    dead = ~np.isfinite(seconds).any(axis=0) & (grid.cell_mass > 0)
    if np.any(dead):
        k = np.flatnonzero(dead)
        raise InfeasibleError(
            f"{len(k)} populated cells have no finite transmission time, "
            f"first at ({grid.cell_x[k[0]]:.0f} m, {grid.cell_y[k[0]]:.0f} m)"
        )
    curvature = 2.0 * np.broadcast_to(alpha, len(uavs)) * n_users**2
    priced = curvature > 0

    def gap(masses, wanted):
        return 0.5 * float(curvature @ (masses - wanted) ** 2)

    potentials = ascend_dual(
        grid, seconds, -curvature * shifted_pass(grid, seconds, zeros, masses=True)[1],
        term=lambda psi: -0.5 * float(psi[priced] / curvature[priced] @ psi[priced]),
        target=lambda psi, masses: np.divide(-psi, curvature, out=masses.copy(), where=priced),
        mass_tol=mass_tol, max_iter=max_iter, gap=gap,
    )
    part = potentials.partition
    priced_at = np.divide(-potentials.psi, curvature, out=np.zeros(len(uavs)), where=priced)
    report = region_hover_report(grid, part, radio, load_bits, alpha, n_users)
    return Scenario2Result(part, report, radio, potentials, gap(part.masses, priced_at))
