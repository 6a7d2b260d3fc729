"""Cell-to-UAV assignment maps, their user masses, and the shared dual ascent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

INFEASIBLE = -1
CSV_BLOCK_CELLS = 1 << 14  # cells per partition_to_csv block, about 0.5 MB


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


def own_links(part, *fields):
    """The served cells (ascending), their UAVs and each (n_uavs, n_cells)
    field read on those links, field[a(c), c], with one flat take per field."""
    cells = np.flatnonzero(part.assignment != INFEASIBLE)
    uavs = part.assignment[cells]
    flat = uavs * part.assignment.size
    flat += cells
    return (cells, uavs, *(np.take(f, flat) for f in fields))


def _shifted_rows(costs, psi, row):
    """costs[i] - psi[i] for each UAV i in turn, each written over row."""
    return (np.subtract(c, p, out=row) for c, p in zip(costs, psi))


def _claim(grid, rows, best, n_uavs):
    """The partition argmin_i rows[i][c] over the n_uavs rows, given best, the
    per-cell minimum: each row in turn claims the free cells where it equals
    best, so the lowest index wins ties and no argmin runs; cells with
    best = +inf stay unassigned.  rows is read once, one row at a time.  A
    cell's code, index + 1 (0 when unassigned), counts the rows it was free
    at, in the smallest unsigned type that holds n_uavs + 1, and each region's
    mass is the masked sum cell_mass.sum(where=claimed)."""
    free = best < np.inf
    codes = np.zeros(len(best), dtype=np.min_scalar_type(n_uavs + 1))
    claimed = np.empty(len(best), dtype=bool)
    masses = np.empty(n_uavs)
    for i, row in enumerate(rows):
        codes += free
        np.equal(row, best, out=claimed)
        claimed &= free
        masses[i] = grid.cell_mass.sum(where=claimed)
        free ^= claimed
    return Partition(np.add(codes, INFEASIBLE, dtype=np.int64), masses)


def assign_by_min_cost(grid, costs):
    """Assign each cell to its cheapest UAV, lowest index winning ties.

    costs is (n_uavs, n_cells) and may hold +inf for unusable links; NaN or
    -inf raises ValueError.  A cell with no finite cost gets INFEASIBLE.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2 or costs.shape[1] != grid.n_cells:
        raise ValueError("costs must be (n_uavs, n_cells)")
    best = costs.min(axis=0)  # NaN wherever a column holds one
    if not np.all(best > -np.inf):
        raise ValueError("costs must not contain NaN or -inf")
    return _claim(grid, costs, best, len(costs))


def weighted_voronoi(grid, radio):
    """Best-signal partition: each cell goes to its highest-SINR UAV.

    This max-SINR diagram is the baseline of both scenarios.  Cells below
    the SINR floor for every UAV are left unassigned.
    """
    costs = np.negative(radio.sinr)  # one (n_uavs, n_cells) array
    costs[~radio.feasible_by_uav] = np.inf
    return assign_by_min_cost(grid, costs)


def _byte_table(strings):
    """bytes strings as the rows of a uint8 table, zero-padded to the longest."""
    return np.array(strings, dtype=bytes).view(np.uint8).reshape(len(strings), -1)


def partition_to_csv(grid, part, path):
    """Write the assignment as cell_x_m,cell_y_m,uav_index rows.

    The bytes are those of np.savetxt with fmt "%.9g,%.9g,%d", and the file
    is written in binary mode, so lines end in \\n on every platform.  Each
    grid column's x string, each grid row's y string and each label is
    formatted once, into a zero-padded byte table.  Blocks of about
    CSV_BLOCK_CELLS cells (at least one grid row) are gathered from the
    three tables into a (rows, nx, width) uint8 array; no formatted string
    holds a NUL byte, so dropping the zero padding leaves the CSV text.
    """
    xs = _byte_table([b"%.9g," % x for x in grid.cell_x[:grid.nx].tolist()])
    ys = _byte_table([b"%.9g," % y for y in grid.cell_y[::grid.nx].tolist()])
    labels = _byte_table([b"%d\n" % i for i in range(INFEASIBLE, part.n_uavs)])
    codes = (part.assignment - INFEASIBLE).reshape(grid.ny, grid.nx)
    rows = min(max(1, CSV_BLOCK_CELLS // grid.nx), grid.ny)
    x_end = xs.shape[1]
    y_end = x_end + ys.shape[1]
    block = np.empty((rows, grid.nx, y_end + labels.shape[1]), dtype=np.uint8)
    block[:, :, :x_end] = xs
    with open(path, "wb") as fh:
        fh.write(b"cell_x_m,cell_y_m,uav_index\n")
        for start in range(0, grid.ny, rows):
            chunk = codes[start:start + rows]
            out = block[:len(chunk)]
            out[:, :, x_end:y_end] = ys[start:start + len(chunk), None]
            out[:, :, y_end:] = labels[chunk]
            fh.write(out[out != 0].tobytes())


def _lower_envelope(grid, costs, psi, best, row):
    """Fill best with the per-cell minimum min_i (c_ic - psi_i), taken over the
    cost rows in row order with row as scratch, and return F, its integral
    over the cells some UAV can serve; best keeps its +inf cells."""
    np.subtract(costs[0], psi[0], out=best)
    for shifted in _shifted_rows(costs[1:], psi[1:], row):
        np.minimum(best, shifted, out=best)
    np.copyto(row, best)
    row[best == np.inf] = 0.0  # cells no UAV can serve
    # einsum, not a BLAS dot: a threaded ddot stalls when the CPUs are busy
    return float(np.einsum("c,c->", row, grid.cell_mass))


def shifted_pass(grid, costs, psi, partition=False):
    """One pass of the shifted min-cost assignment argmin_i (c_ic - psi_i).

    Returns F, the integral of the per-cell minimum over the cells some UAV
    can serve, taken row by row into n_cells-length arrays: no
    (n_uavs, n_cells) array is allocated and costs itself is never copied.
    With partition=True it returns (F, Partition), the partition claimed by
    re-deriving each shifted row against that minimum: each cell goes to the
    lowest index whose shifted cost equals the minimum, as with argmin, and
    cells no UAV can serve stay unassigned.
    """
    best, row = np.empty(costs.shape[1]), np.empty(costs.shape[1])
    value = _lower_envelope(grid, costs, psi, best, row)
    if not partition:
        return value
    return value, _claim(grid, _shifted_rows(costs, psi, row), best, len(costs))


@dataclass(frozen=True)
class DualPotentials:
    """Potentials psi with the partition they induce and the ascent trace.

    partition assigns each cell to argmin_i (c_ic - psi_i), and its masses
    are the ones the ascent stopped on; f_trace is the accepted objective per
    iteration (strictly increasing), grad_trace the mass-mismatch norm,
    step_trace the accepted step (zero on the first row), and evals the
    number of dual values the ascent used: one per iterate plus one per trial
    step.  Only the first iterate evaluates F itself; every later one takes
    the value its accepted trial step already computed, so the ascent ran
    evals - len(f_trace) + 1 evaluations."""

    psi: np.ndarray
    partition: Partition
    f_trace: np.ndarray
    grad_trace: np.ndarray
    step_trace: np.ndarray
    evals: int


def ascend_dual(grid, costs, psi, term, target, mass_tol, max_iter):
    """Maximize the concave dual F(psi) = term(psi) + shifted_pass(psi) and
    return the potentials with the partition argmin_i (c_ic - psi_i) at them.

    The ascent iterates on partitions: at each iterate a claim pass gives the
    partition at psi, and the direction is target(psi, masses), the region
    masses the separable term prices at psi, minus that partition's masses.
    Every evaluation of F takes the per-cell minimum row by row into
    n_cells-length arrays allocated once per ascent; no (n_uavs, n_cells)
    buffer is used.  The accepted trial's F and per-cell minimum are kept by
    swapping two such arrays, so an iterate after the first evaluates nothing:
    its claim pass re-derives each shifted row into one array and compares it
    to the kept minimum.  The partition of the last iterate is the one
    returned, so its masses are the ones the stopping test read; cells no UAV
    can serve stay unassigned and the lowest index wins ties.  The step search
    is free of the units: the first iteration tries the larger of the spread
    of the finite costs and the largest |psi| it starts from, and every later
    one the last accepted step.  It halves until F improves, then walks to a
    local maximum of F over step * 2**k: it doubles while F keeps improving,
    or halves when it had to halve before or the first doubling fails.
    Returns when the mass-mismatch norm is at most mass_tol, or at a kink,
    where no step that still changes psi improves F (a kink the tie-break's
    masses do not climb, as on grids too coarse for the masses to meet); the
    last traced mismatch tells the two apart.  Raises ConvergenceError (trace
    attached) when max_iter runs out."""
    f_trace, grad_trace, step_trace = [], [], []
    finite = np.isfinite(costs)
    spread = float(costs.max(where=finite, initial=-np.inf)
                   - costs.min(where=finite, initial=np.inf))
    del finite  # the ascent's only (n_uavs, n_cells) temporary
    first_step = max(spread, float(np.abs(psi).max(initial=0.0)))
    if not first_step > 0:
        first_step = 1.0
    kept, spare, row = (np.empty(costs.shape[1]) for _ in range(3))
    evals = 0

    def value_at(p, best):
        nonlocal evals
        evals += 1
        return float(term(p)) + _lower_envelope(grid, costs, p, best, row)

    value = float(term(psi)) + _lower_envelope(grid, costs, psi, kept, row)
    step = 0.0
    while True:
        evals += 1  # the iterate's F: its own on the first, else its accepted trial's
        part = _claim(grid, _shifted_rows(costs, psi, row), kept, len(costs))
        wanted = target(psi, part.masses)
        grad = wanted - part.masses
        f_trace.append(value)
        grad_trace.append(float(np.linalg.norm(grad)))
        step_trace.append(step)
        if grad_trace[-1] <= mass_tol:
            break
        if len(step_trace) > max_iter:
            trace = (np.array(f_trace), np.array(grad_trace), np.array(step_trace))
            raise ConvergenceError(
                f"mass mismatch {grad_trace[-1]:.3e} after {max_iter} iterations", trace=trace)
        step = step or first_step
        cand = value_at(psi + step * grad, kept)
        factors = (2.0, 0.5)
        while cand <= value:
            factors = (0.5,)
            step *= 0.5
            moved = psi + step * grad
            if np.array_equal(moved, psi):
                break
            cand = value_at(moved, kept)
        if cand <= value:  # a kink: no step that still changes psi improves F
            break
        for factor in factors:  # climb to a local maximum over step * 2**k
            climbed = False
            while (trial := value_at(psi + factor * step * grad, spare)) > cand:
                step *= factor
                cand, climbed = trial, True
                kept, spare = spare, kept  # the minimum at psi + step * grad
            if climbed:
                break
        psi = psi + step * grad
        value = cand
    return DualPotentials(
        psi, part, np.array(f_trace), np.array(grad_trace), np.array(step_trace), evals,
    )
