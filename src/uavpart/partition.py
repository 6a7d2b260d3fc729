"""Cell-to-UAV assignment maps, their user masses, and the shared dual ascent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError

INFEASIBLE = -1
MIN_STEP = 1e-18
STALL_RATIO = 1e-3


@dataclass(frozen=True)
class Partition:
    """Assignment of every grid cell to a UAV index, or INFEASIBLE.

    masses holds the user mass of each UAV's region; the masses plus the
    unassigned mass sum to 1.
    """

    assignment: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.assignment, dtype=np.int64)
        m = np.ascontiguousarray(self.masses, dtype=float)
        if a.ndim != 1 or m.ndim != 1:
            raise ValueError("assignment and masses must be 1-D")
        if a.min(initial=INFEASIBLE) < INFEASIBLE or a.max(initial=0) >= len(m):
            raise ValueError("assignment indices out of range")
        if np.any(m < 0):
            raise ValueError("region masses must be non-negative")
        a.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "masses", m)

    @property
    def n_uavs(self):
        return len(self.masses)

    def region(self, i):
        """Boolean mask of UAV i's cells."""
        return self.assignment == i


def region_masses(grid, assignment, n_uavs):
    """User mass per UAV for a given assignment array, always float64 (an
    empty selection makes np.bincount return integer zeros)."""
    served = assignment >= 0
    return np.bincount(
        assignment[served], weights=grid.cell_mass[served], minlength=n_uavs
    ).astype(float, copy=False)


def assign_by_min_cost(grid, costs, feasible=None):
    """Assign each cell to its cheapest UAV, lowest index winning ties.

    costs is (n_uavs, n_cells) and may hold +inf for unusable links.  Cells
    outside `feasible` get INFEASIBLE; by default a cell is feasible when it
    has at least one finite cost.  A cell marked feasible but with no finite
    cost raises InfeasibleError.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[1] != grid.n_cells:
        raise ValueError("costs must be (n_uavs, n_cells)")
    if np.any(np.isnan(costs)):
        raise ValueError("costs must not contain NaN")
    has_choice = np.isfinite(costs).any(axis=0)
    if feasible is None:
        feasible = has_choice
    else:
        feasible = np.asarray(feasible, dtype=bool)
        stuck = int(np.count_nonzero(feasible & ~has_choice))
        if stuck:
            raise InfeasibleError(f"{stuck} feasible cells have no finite cost")
    assignment = np.where(feasible, np.argmin(costs, axis=0), INFEASIBLE)
    return Partition(assignment, region_masses(grid, assignment, costs.shape[0]))


def weighted_voronoi(grid, radio, weights=None):
    """Best-signal partition: each cell goes to argmax of SINR / weight.

    Unweighted (weights None or all ones) this is the max-SINR diagram used
    as a baseline and as a starting partition.  Cells below the SINR floor
    for every UAV are left unassigned.
    """
    if weights is None:
        w = np.ones(radio.n_uavs)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (radio.n_uavs,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite, one per UAV")
    score = radio.sinr / w[:, None]
    costs = np.where(radio.feasible_by_uav, -score, np.inf)
    return assign_by_min_cost(grid, costs, feasible=radio.feasible)


def partition_to_csv(grid, part, path):
    """Write the assignment as cell_x_m,cell_y_m,uav_index rows.

    The bytes are those of np.savetxt with fmt "%.9g,%.9g,%d", written one
    grid row at a time: a cell's coordinates repeat along its column and
    row, so each coordinate and label string is formatted once per grid.
    """
    xs = ["%.9g," % x for x in grid.cell_x[:grid.nx].tolist()]
    ys = ["%.9g," % y for y in grid.cell_y[::grid.nx].tolist()]
    labels = ["%d\n" % i for i in range(INFEASIBLE, part.n_uavs)]
    rows = (part.assignment - INFEASIBLE).reshape(grid.ny, grid.nx).tolist()
    with open(path, "w") as fh:
        fh.write("cell_x_m,cell_y_m,uav_index\n")
        for y, row in zip(ys, rows):
            fh.write("".join([x + y + labels[k] for x, k in zip(xs, row)]))


def shifted_min_cost(grid, costs, psi):
    """Integral of min_i (c_ic - psi_i) over the cells some UAV can serve."""
    best = (costs - psi[:, None]).min(axis=0)
    covered = np.isfinite(best)
    return best[covered] @ grid.cell_mass[covered]


def shifted_masses(grid, costs, psi):
    """Region masses of the shifted min-cost assignment argmin_i (c_ic - psi_i)."""
    shifted = costs - psi[:, None]
    covered = np.isfinite(shifted.min(axis=0))
    winner = np.where(covered, np.argmin(shifted, axis=0), INFEASIBLE)
    return region_masses(grid, winner, len(psi))


@dataclass(frozen=True)
class DualPotentials:
    """Potentials psi with the ascent trace: f_trace is the accepted objective
    per iteration (strictly increasing), grad_trace the mass-mismatch norm,
    step_trace the accepted step (zero on the first row)."""

    psi: np.ndarray
    f_trace: np.ndarray
    grad_trace: np.ndarray
    step_trace: np.ndarray


def ascend_dual(grid, costs, psi, term, target, mass_tol, max_iter, gap=None):
    """Maximize the concave dual F(psi) = term(psi) + shifted_min_cost(psi).

    The ascent direction is target(psi, masses), the region masses the
    separable term prices at psi, minus the shifted min-cost masses.  The step
    starts at 1, doubles while F keeps improving, otherwise halves until it
    improves.  Stops when the mass-mismatch norm is at most mass_tol or, with
    gap(masses, target), when an accepted gain is at most STALL_RATIO times
    that duality gap, which ends grids too coarse for the masses to meet.
    Raises ConvergenceError (trace attached) when max_iter runs out or no step
    improves."""
    f_trace, grad_trace, step_trace = [], [], []

    def value_at(p):
        return float(term(p) + shifted_min_cost(grid, costs, p))

    def failure(message):
        trace = (np.array(f_trace), np.array(grad_trace), np.array(step_trace))
        return ConvergenceError(message, trace=trace)

    value, step, gain = value_at(psi), 0.0, np.inf
    while True:
        masses = shifted_masses(grid, costs, psi)
        wanted = target(psi, masses)
        grad = wanted - masses
        f_trace.append(value)
        grad_trace.append(float(np.linalg.norm(grad)))
        step_trace.append(step)
        if grad_trace[-1] <= mass_tol or (
                gap is not None and gain <= STALL_RATIO * gap(masses, wanted)):
            break
        if len(step_trace) > max_iter:
            raise failure(f"mass mismatch {grad_trace[-1]:.3e} after {max_iter} iterations")
        step = 1.0
        cand = value_at(psi + step * grad)
        if cand > value:
            while (trial := value_at(psi + 2.0 * step * grad)) > cand:
                step *= 2.0
                cand = trial
        else:
            while cand <= value:
                step *= 0.5
                if step < MIN_STEP:
                    raise failure("no improving step along the ascent direction")
                cand = value_at(psi + step * grad)
        psi = psi + step * grad
        gain, value = cand - value, cand
    return DualPotentials(psi, np.array(f_trace), np.array(grad_trace), np.array(step_trace))
