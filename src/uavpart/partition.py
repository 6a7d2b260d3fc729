"""Cell-to-UAV assignment maps, their user masses, and the shared dual ascent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError

INFEASIBLE = -1
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


def weighted_voronoi(grid, radio):
    """Best-signal partition: each cell goes to its highest-SINR UAV.

    This max-SINR diagram is the baseline of both scenarios.  Cells below
    the SINR floor for every UAV are left unassigned.
    """
    costs = np.negative(radio.sinr)  # one (n_uavs, n_cells) array
    costs[~radio.feasible_by_uav] = np.inf
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


def shifted_pass(grid, costs, psi, buf=None, masses=False):
    """One in-place pass of the shifted min-cost assignment argmin_i (c_ic - psi_i).

    Fills buf, an (n_uavs, n_cells) array allocated when None, with
    costs - psi_i and returns F, the integral of the per-cell minimum over the
    cells some UAV can serve.  With masses=True it returns (F, region masses),
    the masses read from the same buffer: UAV i gets the cells whose shifted
    cost equals the minimum and that no lower index claimed, so the lowest
    index wins ties, as with argmin.  costs itself is never copied.
    """
    if buf is None:
        buf = np.empty(costs.shape)
    np.subtract(costs, psi[:, None], out=buf)
    best = buf.min(axis=0)
    best[best == np.inf] = 0.0  # cells no UAV can serve
    # einsum, not a BLAS dot: a threaded ddot stalls when the CPUs are busy
    value = float(np.einsum("c,c->", best, grid.cell_mass))
    if not masses:
        return value
    region = np.empty(len(best), dtype=bool)
    free = np.ones(len(best), dtype=bool)
    out = np.empty(len(psi))
    for i in range(len(psi)):
        np.equal(buf[i], best, out=region)
        region &= free
        out[i] = grid.cell_mass.sum(where=region)
        free ^= region
    return value, out


@dataclass(frozen=True)
class DualPotentials:
    """Potentials psi with the partition they induce and the ascent trace.

    partition assigns each cell to argmin_i (c_ic - psi_i); f_trace is the
    accepted objective per iteration (strictly increasing), grad_trace the
    mass-mismatch norm, step_trace the accepted step (zero on the first row),
    and evals the number of dual-value evaluations the ascent made."""

    psi: np.ndarray
    partition: Partition
    f_trace: np.ndarray
    grad_trace: np.ndarray
    step_trace: np.ndarray
    evals: int


def ascend_dual(grid, costs, psi, term, target, mass_tol, max_iter, gap=None):
    """Maximize the concave dual F(psi) = term(psi) + shifted_pass(psi) and
    return the potentials with the partition argmin_i (c_ic - psi_i) at them.

    The ascent direction is target(psi, masses), the region masses the
    separable term prices at psi, minus the shifted min-cost masses.  Each
    evaluation of F is one shifted_pass into a buffer allocated once per
    ascent; the partition is read from the final pass's buffer, so cells no
    UAV can serve stay unassigned and the lowest index wins ties.  The step
    search is free of the units: the first iteration tries the larger of the
    spread of the finite costs and the largest |psi| it starts from, and every
    later one the last accepted step.  It halves until F improves, then walks
    to a local maximum of F over step * 2**k: it doubles while F keeps
    improving, or halves when it had to halve before or the first doubling
    fails.  Stops when the mass-mismatch norm is at most mass_tol or, with
    gap(masses, target), when an accepted gain is at most STALL_RATIO times
    that duality gap, which ends grids too coarse for the masses to meet.
    Raises ConvergenceError (trace attached) when max_iter runs out or no step
    that still changes psi improves F."""
    f_trace, grad_trace, step_trace = [], [], []
    finite = np.isfinite(costs)
    spread = float(costs.max(where=finite, initial=-np.inf)
                   - costs.min(where=finite, initial=np.inf))
    del finite  # one (n_uavs, n_cells) array at a time
    first_step = max(spread, float(np.abs(psi).max(initial=0.0)))
    if not first_step > 0:
        first_step = 1.0
    buf = np.empty(costs.shape)
    evals = 0

    def value_at(p, masses=False):
        nonlocal evals
        evals += 1
        out = shifted_pass(grid, costs, p, buf, masses)
        if masses:
            return float(term(p)) + out[0], out[1]
        return float(term(p)) + out

    def failure(message):
        trace = (np.array(f_trace), np.array(grad_trace), np.array(step_trace))
        return ConvergenceError(message, trace=trace)

    step, gain = 0.0, np.inf
    while True:
        value, masses = value_at(psi, masses=True)
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
        step = step or first_step
        cand = value_at(psi + step * grad)
        factors = (2.0, 0.5)
        while cand <= value:
            factors = (0.5,)
            step *= 0.5
            moved = psi + step * grad
            if np.array_equal(moved, psi):
                raise failure("no improving step along the ascent direction")
            cand = value_at(moved)
        for factor in factors:  # climb to a local maximum over step * 2**k
            climbed = False
            while (trial := value_at(psi + factor * step * grad)) > cand:
                step *= factor
                cand, climbed = trial, True
            if climbed:
                break
        psi = psi + step * grad
        gain = cand - value
    # the last pass was at psi, so buf holds costs - psi
    return DualPotentials(
        psi, assign_by_min_cost(grid, buf), np.array(f_trace), np.array(grad_trace),
        np.array(step_trace), evals,
    )
