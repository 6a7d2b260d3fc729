"""Hover-time minimization for fixed per-user loads.

Inside a region the bandwidth split that finishes all users together is
closed-form; between regions the shared dual ascent prices each UAV's control
time, and each cell goes to its least marginal hover cost at those prices.
The control weight alpha is one value for the fleet or one per UAV; ValueError
names a wrong length or an entry that is not finite and non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _per_uav
from .config import ExperimentConfig
from .errors import InfeasibleError
from .partition import INFEASIBLE, DualPotentials, Partition, ascend_dual, own_links, shifted_pass
from .partition import assign_by_min_cost  # probed by perfbench as partition.assign
from .partition import weighted_voronoi  # probed by perfbench as partition.voronoi


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


def _link_seconds(grid, part, radio, load_bits, alpha, n_users):
    """The served cells, their UAVs, load_bits / spectral efficiency on each
    cell's own link (the seconds one of its users needs on 1 Hz) and the
    control time alpha_i (N a_i)^2 of each region.  Raises InfeasibleError
    naming the lowest UAV that serves a cell below its SINR floor."""
    if part.assignment.shape != (grid.n_cells,):
        raise ValueError("partition must cover every grid cell")
    alpha = _per_uav(alpha, part.n_uavs, "control weight alpha")
    cells, uavs, eff, usable = own_links(part, radio.spectral_eff, radio.feasible_by_uav)
    if not usable.all():
        raise InfeasibleError(
            f"region of UAV {uavs[~usable].min()} contains cells below its SINR floor"
        )
    control = alpha * (n_users * part.masses) ** 2
    return cells, uavs, np.divide(load_bits, eff, out=eff), control


def hover_time_equal_split(grid, part, radio, load_bits, alpha, n_users):
    """HoverReport for every UAV of a partition when each UAV gives its users
    equal bandwidth shares: the slowest populated cell sets the finish time,
    N a_i load / (B_i eff), to which the control overhead is added."""
    cells, uavs, seconds, control = _link_seconds(grid, part, radio, load_bits, alpha, n_users)
    seconds[grid.cell_mass[cells] == 0] = 0.0  # empty cells take no time
    slowest = np.zeros(part.n_uavs)
    np.maximum.at(slowest, uavs, seconds)
    return HoverReport(n_users * part.masses * slowest / radio.bandwidths, control)


def region_hover_report(grid, part, radio, load_bits, alpha, n_users):
    """HoverReport for every UAV of a partition under the optimal in-region
    bandwidth split: N sum_c m_c load / (B_i eff_ic) transmission seconds
    over the region, plus control overhead."""
    cells, uavs, seconds, control = _link_seconds(grid, part, radio, load_bits, alpha, n_users)
    demand = np.multiply(seconds, grid.cell_mass[cells], out=seconds)
    sums = np.bincount(uavs, weights=demand, minlength=part.n_uavs)
    return HoverReport(n_users * sums / radio.bandwidths, control)


def marginal_hover_cost(radio, load_bits, alpha, masses, n_users):
    """Per-cell cost of adding the cell to each UAV: transmission seconds for
    the cell's users plus the control-time slope 2 alpha_i N^2 a_i at the
    UAV's current mass a_i.  +inf below the SINR floor."""
    alpha = _per_uav(alpha, radio.n_uavs, "control weight alpha")
    slope = 2.0 * alpha * n_users**2 * np.asarray(masses, dtype=float)
    # one (n_uavs, n_cells) buffer worked in place: scenario 2 peaks in here
    cost = np.where(radio.feasible_by_uav, radio.spectral_eff, 1.0)
    cost *= radio.bandwidths[:, None]
    np.divide(n_users * load_bits, cost, out=cost)
    cost += slope[:, None]
    cost[~radio.feasible_by_uav] = np.inf
    return cost


def _least_time_masses(grid, seconds):
    """Region masses of the least-transmission-time assignment, the claim at
    psi = 0.  It leaves exactly the cells with no finite seconds unassigned
    (seconds hold no NaN); InfeasibleError names the populated ones."""
    part = shifted_pass(grid, seconds, np.zeros(len(seconds)), partition=True)[1]
    dead = np.flatnonzero((part.assignment == INFEASIBLE) & (grid.cell_mass > 0))
    if len(dead):
        raise InfeasibleError(
            f"{len(dead)} populated cells have no finite transmission time, "
            f"first at ({grid.cell_x[dead[0]]:.0f} m, {grid.cell_y[dead[0]]:.0f} m)"
        )
    return part.masses


@dataclass(frozen=True)
class Scenario2Result:
    partition: Partition
    report: HoverReport
    potentials: DualPotentials
    duality_gap: float


def solve_scenario2(grid, radio, load_bits, alpha, n_users, mass_tol=ExperimentConfig.mass_tol,
                    max_iter=ExperimentConfig.max_ascent_iter):
    """Minimize total hover time by ascending the dual of the relaxed problem,
    D(l) = sum_c m_c min_i (s_ic + l_i) - sum_i l_i^2 / (2 k_i), over psi = -l.

    load_bits is every user's demand in bits.  s_ic is the cell's
    transmission seconds per unit mass, k_i = 2 alpha_i N^2, and l_i = k_i b_i
    the control slope at the mass b_i that UAV i is priced at.  The ascent
    starts from the slopes at the masses of the least-transmission-time
    assignment (the optimum at alpha = 0) and stops when the region masses
    match b within mass_tol or at a kink of the dual.  The partition is the
    one ascend_dual returns: each cell at its least s_ic - psi_i, its marginal
    hover cost at b.  That partition's hover total minus D is duality_gap =
    sum_i k_i (a_i - b_i)^2 / 2 seconds.  A populated cell with no finite
    transmission time (no link above the SINR floor, or a load too large for
    a float) raises InfeasibleError.
    """
    alpha = _per_uav(alpha, radio.n_uavs, "control weight alpha")
    # at zero mass the marginal hover cost is the transmission time alone
    zeros = np.zeros(radio.n_uavs)
    seconds = marginal_hover_cost(radio, load_bits, alpha, zeros, n_users)
    curvature = 2.0 * alpha * n_users**2
    priced = curvature > 0
    potentials = ascend_dual(
        grid, seconds, -curvature * _least_time_masses(grid, seconds),
        term=lambda psi: -0.5 * float(psi[priced] / curvature[priced] @ psi[priced]),
        target=lambda psi, masses: np.divide(-psi, curvature, out=masses.copy(), where=priced),
        mass_tol=mass_tol, max_iter=max_iter,
    )
    del seconds  # the ascent's alone: the report below peaks without it
    part = potentials.partition
    priced_at = np.divide(-potentials.psi, curvature, out=np.zeros(radio.n_uavs), where=priced)
    report = region_hover_report(grid, part, radio, load_bits, alpha, n_users)
    gap = 0.5 * float(curvature @ (part.masses - priced_at) ** 2)
    return Scenario2Result(part, report, potentials, gap)
