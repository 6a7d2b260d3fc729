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
    """The codes and region masses of the partition argmin_i rows[i][c] over
    the n_uavs rows, given best, the per-cell minimum: each row in turn claims
    the free cells where it equals best, so the lowest index wins ties and no
    argmin runs; cells with best = +inf stay unassigned.  rows is read once,
    one row at a time.  A cell's code, index + 1 (0 when unassigned), counts
    the rows it was free at, in the smallest unsigned type that holds
    n_uavs + 1, and each region's mass is the masked sum
    cell_mass.sum(where=claimed).  _partition makes the pair a Partition."""
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
    return codes, masses


def _partition(codes, masses):
    """The Partition of a claim's codes, index + 1 (0 when unassigned)."""
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
    return _partition(*_claim(grid, costs, best, len(costs)))


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
    xs = _byte_table([b"%.9g," % x for x in grid.column_x.tolist()])
    ys = _byte_table([b"%.9g," % y for y in grid.row_y.tolist()])
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


def _lower_envelope(costs, psi, best, row):
    """Fill best with the per-cell minimum min_i (c_ic - psi_i), taken over the
    cost rows in row order with row as scratch."""
    np.subtract(costs[0], psi[0], out=best)
    for shifted in _shifted_rows(costs[1:], psi[1:], row):
        np.minimum(best, shifted, out=best)


def _finite_spread(costs, row):
    """max - min over the finite entries of costs, -inf when there are none,
    one row at a time with row as scratch: c * 0 + c is c where c is finite
    and NaN elsewhere, which fmax and fmin skip."""
    hi, lo = -np.inf, np.inf
    with np.errstate(invalid="ignore"):
        for c in costs:
            np.multiply(c, 0.0, out=row)
            row += c
            hi = max(hi, float(np.fmax.reduce(row, initial=-np.inf)))
            lo = min(lo, float(np.fmin.reduce(row, initial=np.inf)))
    return hi - lo


def _served_integral(grid, best, dead, row):
    """F, the integral of the per-cell minimum best over the cells some UAV can
    serve.  dead holds the indices of the others, +inf in best at every psi;
    when there are some, F is taken over a copy of best in row that zeroes
    them, and best keeps its +inf cells."""
    if len(dead):
        np.copyto(row, best)
        row[dead] = 0.0
        best = row
    # einsum, not a BLAS dot: a threaded ddot stalls when the CPUs are busy
    return float(np.einsum("c,c->", best, grid.cell_mass))


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
    _lower_envelope(costs, psi, best, row)
    value = _served_integral(grid, best, np.flatnonzero(best == np.inf), row)
    if not partition:
        return value
    return value, _partition(*_claim(grid, _shifted_rows(costs, psi, row), best, len(costs)))


def _min_norm_point(points):
    """The point of least norm in the convex hull of the rows of points, by
    Wolfe's algorithm on the rows scaled to a largest norm of 1.  Each major
    cycle adds to the corral, the rows in use, the row with the least inner
    product with the current point x; each minor cycle moves x to the affine
    minimizer of the corral, first stepping back to a face of the corral's
    hull when that minimizer falls outside it and dropping the rows that step
    leaves at zero weight.  The corral's least norm falls at every major
    cycle, so no corral repeats; on random hulls of up to 8 rows the cycles
    never outnumbered the rows, and 10 per row is a guard that returns the
    current point, still in the hull."""
    norms = np.einsum("ij,ij->i", points, points)
    scale = float(np.sqrt(norms.max()))
    if scale == 0:
        return points[0].copy()
    unit = points / scale
    corral, weights = [int(np.argmin(norms))], np.ones(1)
    for _ in range(10 * len(unit)):
        x = weights @ unit[corral]
        j = int(np.argmin(unit @ x))
        if j in corral or unit[j] @ x >= x @ x - 1e-15:
            break
        corral.append(j)
        weights = np.append(weights, 0.0)
        while True:
            n = len(corral)
            kkt = np.ones((n + 1, n + 1))
            kkt[:n, :n] = unit[corral] @ unit[corral].T
            kkt[n, n] = 0.0
            affine = np.linalg.lstsq(kkt, np.eye(n + 1)[n], rcond=None)[0][:n]
            if affine.min() > 0:
                weights = affine
                break
            # the largest move towards affine that keeps every weight >= 0
            theta = min(w / (w - a) if w > a else 0.0
                        for w, a in zip(weights, affine) if a <= 0)
            weights += theta * (affine - weights)
            keep = weights > 1e-15
            corral = [c for c, k in zip(corral, keep) if k]
            weights = weights[keep] / weights[keep].sum()
    return scale * (weights @ unit[corral])


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
    An iterate keeps its partition as the claim's one-byte codes; the int64
    Partition is built once, for the iterate the ascent returns.  Every
    evaluation of F takes the per-cell minimum row by row into n_cells-length
    arrays allocated once per ascent; no (n_uavs, n_cells) buffer is used, and
    the cells no UAV can serve, which F skips, are found once, from the first
    per-cell minimum.  The accepted trial's F and per-cell minimum are kept by
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
    Steps along the partition's own direction, grad, zigzag across a kink:
    tied cells flip between UAVs and the masses alternate between pieces of
    F.  So when an iterate's masses repeat those of one of the last
    len(costs) + 1 iterates, the search first tries the least-norm point of
    the hull of every piece's direction, target(psi, m) - m over the distinct
    masses m since that repeat, which climbs on each of those pieces, along
    the kink; grad is tried when no step along it improves F.  Returns when
    the mass-mismatch norm is at most mass_tol, or at a kink, where no step
    along grad that still changes psi improves F (a kink the tie-break's
    masses do not climb, as on grids too coarse for the masses to meet); the
    last traced mismatch tells the two apart.  Raises
    ConvergenceError (trace attached) when max_iter runs out."""
    f_trace, grad_trace, step_trace = [], [], []
    kept, spare, row = (np.empty(costs.shape[1]) for _ in range(3))
    first_step = max(_finite_spread(costs, row), float(np.abs(psi).max(initial=0.0)))
    if not first_step > 0:
        first_step = 1.0
    _lower_envelope(costs, psi, kept, row)
    dead = np.flatnonzero(kept == np.inf)  # no UAV serves these at any psi
    value = float(term(psi)) + _served_integral(grid, kept, dead, row)
    evals = 0

    def value_at(p, best):
        nonlocal evals
        evals += 1
        _lower_envelope(costs, p, best, row)
        return float(term(p)) + _served_integral(grid, best, dead, row)

    step = 0.0
    visited = []  # the region masses of the last len(costs) + 2 iterates
    while True:
        evals += 1  # the iterate's F: its own on the first, else its accepted trial's
        codes, masses = _claim(grid, _shifted_rows(costs, psi, row), kept, len(costs))
        grad = target(psi, masses) - masses
        f_trace.append(value)
        grad_trace.append(float(np.linalg.norm(grad)))
        step_trace.append(step)
        if grad_trace[-1] <= mass_tol:
            break
        if len(step_trace) > max_iter:
            trace = (np.array(f_trace), np.array(grad_trace), np.array(step_trace))
            raise ConvergenceError(
                f"mass mismatch {grad_trace[-1]:.3e} after {max_iter} iterations", trace=trace)
        # back at the masses of a recent iterate, the ascent zigzags across a
        # kink: try first the least-norm supergradient of the pieces visited
        visited.append(masses)
        del visited[:-len(costs) - 2]
        back = next(j for j, seen in enumerate(visited) if np.array_equal(seen, masses))
        pieces = list({m.tobytes(): m for m in visited[back:]}.values())
        directions = [grad]
        if len(pieces) > 1:
            directions.insert(0, _min_norm_point(np.array([target(psi, m) - m for m in pieces])))
        start = step or first_step
        for direction in directions:
            step, factors = start, (2.0, 0.5)
            cand = value_at(psi + step * direction, kept)
            while cand <= value:
                factors = (0.5,)
                step *= 0.5
                moved = psi + step * direction
                if np.array_equal(moved, psi):
                    break
                cand = value_at(moved, kept)
            if cand > value:
                break
        if cand <= value:  # a kink: no step along grad that still changes psi improves F
            break
        for factor in factors:  # climb to a local maximum over step * 2**k
            climbed = False
            while (trial := value_at(psi + factor * step * direction, spare)) > cand:
                step *= factor
                cand, climbed = trial, True
                kept, spare = spare, kept  # the minimum at psi + step * direction
            if climbed:
                break
        psi = psi + step * direction
        value = cand
    return DualPotentials(
        psi, _partition(codes, masses), np.array(f_trace), np.array(grad_trace),
        np.array(step_trace), evals,
    )
