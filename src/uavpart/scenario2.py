"""Hover-time minimization for fixed per-user loads.

Inside a region the bandwidth split that finishes all users together is
closed-form; between regions the shared dual ascent prices each UAV's control
time, and each cell goes to its least marginal hover cost at those prices.
The control weight alpha is one value for the fleet or one per UAV; ValueError
names a wrong length or an entry that is not finite and non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import _per_uav
from .config import ExperimentConfig
from .errors import InfeasibleError
from .partition import INFEASIBLE, DualPotentials, Partition, ascend_dual, assign_by_min_cost
from .partition import own_links, weighted_voronoi  # weighted_voronoi is probed by perfbench


@dataclass(frozen=True)
class HoverReport:
    """Per-UAV hover breakdown for a partition.  region_hover_report's
    report also holds, as equal_split, the report of the same partition
    under equal bandwidth shares."""

    serve_times: np.ndarray
    control_times: np.ndarray
    equal_split: HoverReport | None = field(default=None, repr=False, compare=False)

    @property
    def hover_times(self):
        return self.serve_times + self.control_times

    @property
    def total(self):
        return float(self.hover_times.sum())


def _link_seconds(grid, part, radio, load_bits, alpha, n_users):
    """The UAV and the mass of each served cell, load_bits over the spectral
    efficiency of its own link by _seconds' rule (the seconds one of its
    users needs on 1 Hz, 0 on an empty cell, which takes no time) and the
    control time alpha_i (N a_i)^2 of each region.  Raises InfeasibleError
    naming the lowest UAV that serves a cell below its SINR floor, or the
    populated cells whose seconds are not finite."""
    if part.assignment.shape != (grid.n_cells,):
        raise ValueError("partition must cover every grid cell")
    alpha = _per_uav(alpha, part.n_uavs, "control weight alpha")
    cells, uavs, eff, usable = own_links(part, radio.spectral_eff, radio.feasible_by_uav)
    if not usable.all():
        raise InfeasibleError(
            f"region of UAV {uavs[~usable].min()} contains cells below its SINR floor"
        )
    mass = grid.cell_mass[cells]
    seconds = _seconds(load_bits, eff)
    seconds[mass == 0] = 0.0  # empty cells take no time, so no inf * 0 reaches the sums
    _no_dead_cells(grid, cells[~np.isfinite(seconds)])
    control = alpha * (n_users * part.masses) ** 2
    return uavs, mass, seconds, control


def hover_time_equal_split(grid, part, radio, load_bits, alpha, n_users):
    """HoverReport for every UAV of a partition when each UAV gives its users
    equal bandwidth shares: region_hover_report's equal_split."""
    return region_hover_report(grid, part, radio, load_bits, alpha, n_users).equal_split


def region_hover_report(grid, part, radio, load_bits, alpha, n_users):
    """HoverReport for every UAV of a partition under the optimal in-region
    bandwidth split: N sum_c m_c load / (B_i eff_ic) transmission seconds
    over the region, plus control overhead.  Its equal_split is the report
    under equal bandwidth shares, from the same read of the own links: the
    slowest populated cell sets the finish time, N a_i load / (B_i eff), to
    which the control overhead is added.  The report checks itself:
    ValueError names the first UAV whose hover time under either split is
    not a finite float."""
    uavs, mass, seconds, control = _link_seconds(grid, part, radio, load_bits, alpha, n_users)
    slowest = np.zeros(part.n_uavs)
    np.maximum.at(slowest, uavs, seconds)
    with np.errstate(over="ignore"):  # an overflow is caught by the check below
        equal_split = HoverReport(n_users * part.masses * slowest / radio.bandwidths, control)
        demand = np.multiply(seconds, mass, out=seconds)
        sums = np.bincount(uavs, weights=demand, minlength=part.n_uavs)
        report = HoverReport(n_users * sums / radio.bandwidths, control, equal_split)
        finite = np.isfinite(report.hover_times) & np.isfinite(equal_split.hover_times)
    if not finite.all():
        raise ValueError(f"the hover time of UAV {np.argmin(finite)} under the optimal or the "
                         "equal bandwidth split is not a finite float")
    return report


def marginal_hover_cost(radio, load_bits, n_users):
    """Per-cell cost of adding the cell to each UAV at zero mass, where the
    control-time slope is zero: the transmission seconds N load / (B_i eff_ic)
    for the cell's users, by _seconds' rule.  +inf below the SINR floor."""
    # one (n_uavs, n_cells) buffer worked in place: scenario 2 peaks in here
    cost = np.where(radio.feasible_by_uav, radio.spectral_eff, 1.0)
    with np.errstate(over="ignore"):  # a rate beyond a float sends any finite load in 0 s
        cost *= radio.bandwidths[:, None]
    _seconds(n_users * load_bits, cost)
    cost[~radio.feasible_by_uav] = np.inf
    return cost


def _seconds(bits, rate):
    """The seconds that sending bits takes at each rate, written over the
    rate array and returned: 0 for no bits, even at rate 0; +inf at every
    rate for bits beyond a float; else bits / rate, +inf where the rate is 0
    or the quotient overflows.  Never NaN."""
    if not 0 < bits < np.inf:
        rate.fill(0.0 if bits == 0 else np.inf)
    else:
        with np.errstate(over="ignore", divide="ignore"):
            np.divide(bits, rate, out=rate)
    return rate


def _least_time_masses(grid, seconds):
    """Region masses of the least-transmission-time assignment, the claim at
    psi = 0.  It leaves exactly the cells with no finite seconds unassigned
    (seconds hold no NaN); InfeasibleError names the populated ones."""
    part = assign_by_min_cost(grid, seconds)
    _no_dead_cells(grid, np.flatnonzero((part.assignment == INFEASIBLE) & (grid.cell_mass > 0)))
    return part.masses


def _no_dead_cells(grid, dead):
    """InfeasibleError naming the cells in dead, ascending indices of
    populated cells with no finite transmission time, unless there are none."""
    if len(dead):
        raise InfeasibleError(
            f"{len(dead)} populated cells have no finite transmission time, "
            f"first at ({grid.column_x[dead[0] % grid.nx]:.0f} m, "
            f"{grid.row_y[dead[0] // grid.nx]:.0f} m)"
        )


@dataclass(frozen=True)
class Scenario2Result:
    partition: Partition
    report: HoverReport
    potentials: DualPotentials


def solve_scenario2(grid, radio, load_bits, alpha, n_users, mass_tol=ExperimentConfig.mass_tol,
                    max_iter=ExperimentConfig.max_ascent_iter):
    """Minimize total hover time by ascending the dual of the relaxed problem,
    D(l) = sum_c m_c min_i (s_ic + l_i) - sum_i l_i^2 / (2 k_i) over psi = -l,
    ascend_dual's dual with b = 0 and curvature k_i = 2 alpha_i N^2.

    load_bits is every user's demand in bits and s_ic the cell's transmission
    seconds per unit mass; l_i = k_i t_i is the control slope at UAV i's
    aimed mass t_i, and alpha_i = 0 holds l_i at 0.  The ascent
    starts from the slopes at the masses of the least-transmission-time
    assignment (the optimum at alpha = 0) and stops when the region masses
    match t within mass_tol or at a kink of the dual.  The partition is the
    one ascend_dual returns: each cell at its least s_ic - psi_i, its marginal
    hover cost at t.  That partition's hover total minus D is potentials.gap
    seconds.  A populated cell with no finite transmission time (no link
    above the SINR floor, or a load too large for a float) raises
    InfeasibleError.
    """
    alpha = _per_uav(alpha, radio.n_uavs, "control weight alpha")
    seconds = marginal_hover_cost(radio, load_bits, n_users)
    curvature = 2.0 * alpha * n_users**2
    potentials = ascend_dual(grid, seconds, -curvature * _least_time_masses(grid, seconds),
                             np.zeros(radio.n_uavs), curvature, mass_tol, max_iter)
    del seconds  # the ascent's alone: the report below peaks without it
    part = potentials.partition
    report = region_hover_report(grid, part, radio, load_bits, alpha, n_users)
    return Scenario2Result(part, report, potentials)
