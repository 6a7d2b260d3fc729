"""Cell-to-UAV assignment maps, their user masses, and the shared dual ascent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

INFEASIBLE = -1
CSV_BLOCK_CELLS = 1 << 14  # cells per partition_to_csv block, about 0.5 MB
NEWTON_TRIALS = 3  # Newton steps tried, halving from 1, before the step search
BAND_LEVELS = 24  # band Hessians at first_step / 2**l, l < BAND_LEVELS
BAND_REACH = 2.0  # a band fits a Newton move within this factor of its width


def _band_bins():
    """The band bin of a gap by its float64 biased exponent e: a gap below
    2**-l for l <= 1022 - e goes to bin l + 1 for the finest such band l, and
    to bin 0 past every band or when tied, below 2**-BAND_LEVELS: a tied cell
    sits on a kink, where the masses jump."""
    e = np.arange(2048)
    return np.where(e > 1022 - BAND_LEVELS, np.clip(1023 - e, 0, BAND_LEVELS), 0).astype(np.int64)


_BAND_BIN = _band_bins()


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


def _claim(grid, rows, best, n_uavs, runner_up=None):
    """The codes and region masses of the partition argmin_i rows[i][c] over
    the n_uavs rows, given best, the per-cell minimum: each row in turn claims
    the free cells where it equals best, so the lowest index wins ties and no
    argmin runs; cells with best = +inf stay unassigned.  rows is read once,
    one row at a time.  A cell's code, index + 1 (0 when unassigned), counts
    the rows it was free at, in the smallest unsigned type that holds
    n_uavs + 1, and each region's mass is the masked sum
    cell_mass.sum(where=claimed).  _partition makes the pair a Partition.

    runner_up, when given, is a pair of n_cells-length arrays (second,
    runner) that the claim fills with each cell's least row value among the
    rows that do not claim it and the lowest index of such a row; second is
    +inf, and runner 0, where no other row is below +inf."""
    free = best < np.inf
    codes = np.zeros(len(best), dtype=np.min_scalar_type(n_uavs + 1))
    claimed = np.empty(len(best), dtype=bool)
    masses = np.empty(n_uavs)
    if runner_up is not None:
        second, runner = runner_up
        second.fill(np.inf)
        runner.fill(0)
        lower = np.empty(len(best), dtype=bool)
    for i, row in enumerate(rows):
        codes += free
        np.equal(row, best, out=claimed)
        claimed &= free
        masses[i] = grid.cell_mass.sum(where=claimed)
        free ^= claimed
        if runner_up is not None:
            np.less(row, second, out=lower)
            np.greater(lower, claimed, out=lower)  # lower and not claimed
            np.copyto(second, row, where=lower)
            np.copyto(runner, i, where=lower)
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


def _best_signal_rows(radio, row, unusable):
    """-spectral_eff[i], +inf below UAV i's SINR floor, for each UAV i in
    turn, each written over row, with unusable as scratch for the mask."""
    for eff, usable in zip(radio.spectral_eff, radio.feasible_by_uav):
        np.negative(eff, out=row)
        np.copyto(row, np.inf, where=np.logical_not(usable, out=unusable))
        yield row


def weighted_voronoi(grid, radio):
    """Best-signal partition: each cell goes to its highest-SINR UAV.

    This max-SINR diagram is the baseline of both scenarios.  It is taken on
    the spectral efficiency log2(1 + SINR), which keeps the SINR order; SINRs
    that round to one efficiency go to the lowest UAV index, as in every
    claim.  Cells below the SINR floor for every UAV are left unassigned.
    The minimum and the claim each read the rows one at a time into two
    n_cells-length arrays.
    """
    best, row = np.empty(grid.n_cells), np.empty(grid.n_cells)
    unusable = np.empty(grid.n_cells, dtype=bool)
    _lower_envelope(_best_signal_rows(radio, row, unusable), best)
    return _partition(*_claim(grid, _best_signal_rows(radio, row, unusable), best, radio.n_uavs))


def _byte_field(strings):
    """bytes strings as fixed-width void items, zero-padded to the longest."""
    table = np.array(strings, dtype=bytes)
    return table.view(f"V{table.itemsize}")


def partition_to_csv(grid, part, path):
    """Write the assignment as cell_x_m,cell_y_m,uav_index rows.

    The bytes are those of np.savetxt with fmt "%.9g,%.9g,%d", and the file
    is written in binary mode, so lines end in \\n on every platform.  Each
    grid column's x string, each grid row's y string and each label is
    formatted once, as a zero-padded fixed-width item.  Blocks of about
    CSV_BLOCK_CELLS cells (at least one grid row) are gathered from the three
    tables into a (rows, nx) array of (x, y, label) records; no formatted
    string holds a NUL byte, so dropping the zero padding of the records'
    bytes leaves the CSV text.
    """
    xs = _byte_field([b"%.9g," % x for x in grid.column_x.tolist()])
    ys = _byte_field([b"%.9g," % y for y in grid.row_y.tolist()])
    labels = _byte_field([b"%d\n" % i for i in range(INFEASIBLE, part.n_uavs)])
    codes = (part.assignment - INFEASIBLE).reshape(grid.ny, grid.nx)
    rows = min(max(1, CSV_BLOCK_CELLS // grid.nx), grid.ny)
    record = [("x", xs.dtype), ("y", ys.dtype), ("label", labels.dtype)]
    block = np.empty((rows, grid.nx), dtype=record)
    block["x"] = xs
    with open(path, "wb") as fh:
        fh.write(b"cell_x_m,cell_y_m,uav_index\n")
        for start in range(0, grid.ny, rows):
            chunk = codes[start:start + rows]
            out = block[:len(chunk)]
            out["y"] = ys[start:start + len(chunk), None]
            out["label"] = labels[chunk]
            text = out.view(np.uint8)
            fh.write(text[text != 0].tobytes())


def _lower_envelope(rows, best):
    """Fill best with the per-cell minimum of the rows an iterator yields, in
    order, one row at a time; the rows may all be one reused array."""
    np.copyto(best, next(rows))
    for row in rows:
        np.minimum(best, row, out=best)


def _finite_spread(costs):
    """max - min over the finite entries of costs, -inf when there are none,
    one row at a time."""
    hi, lo = -np.inf, np.inf
    for c in costs:
        finite = np.isfinite(c)
        hi = max(hi, float(c.max(where=finite, initial=-np.inf)))
        lo = min(lo, float(c.min(where=finite, initial=np.inf)))
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


def _band_pairs(grid, gaps, codes, runner, n_uavs, scratch):
    """The pair masses of the band Hessians: pairs[l, i, j] is the mass of the
    cells that UAV i claims with runner-up j and a gap below 2**-l but not
    tied (_band_bins), for l < BAND_LEVELS, where gaps holds each cell's runner-up cost minus its
    claim's over the widest band (+inf where no UAV serves, never negative).
    Each cell is binned once, at its finest band, read from the float
    exponent of its gap, by one np.add.at of the cell masses at the keys
    (claim * n_uavs + runner-up) * bins + bin.  They are built in place over
    gaps and scratch, two float64 n_cells-length arrays viewed as int64, whose
    values are lost; the codes and runner-up UAVs are each copied into
    scratch before they are scaled, since a ufunc that mixes their one-byte
    type with int64 casts through a buffer of its own."""
    bins = BAND_LEVELS + 1
    keys, term = gaps.view(np.int64), scratch.view(np.int64)
    np.right_shift(keys, 52, out=term)  # the sign bit is clear
    np.take(_BAND_BIN, term, mode="clip", out=keys)
    np.copyto(term, runner)
    term *= bins
    keys += term
    np.copyto(term, codes)
    term *= n_uavs * bins
    keys += term
    hist = np.zeros((n_uavs + 1) * n_uavs * bins)
    np.add.at(hist, keys, grid.cell_mass)
    hist = hist.reshape(n_uavs + 1, n_uavs, bins)[1:, :, :0:-1].transpose(2, 0, 1)
    return np.cumsum(hist, axis=0)[::-1]  # code 0, unassigned, dropped


def _newton_move(pairs, grad, bands, curvature):
    """The Newton move J^-1 grad, zero on the held UAVs, at the band h that
    fits it: the finest band whose move is within a factor BAND_REACH of h,
    or else the band whose move comes closest, when within BAND_REACH**2;
    None when no band's move does.  J is diag(W 1) - W + diag(1 / k) over
    the free UAVs, W the pair masses over 2 h: a cell's mass crosses the
    band of width 2 h around its boundary.  J is positive semi-definite, and
    J 1 = 0 when every k_i = inf; all bands are solved at once, with 1e-12
    of the mean of J's diagonal added to it, so a UAV no cell of the band
    reaches moves too far to fit, and with every k_i = inf that mean added
    to every entry, which fixes the gauge."""
    free = curvature > 0
    with np.errstate(over="ignore"):  # 1 / k is +inf for a subnormal k
        inverse = np.divide(1.0, curvature, out=np.zeros(len(grad)), where=free)
    hessian = pairs + pairs.transpose(0, 2, 1)
    hessian /= (-2.0 * bands)[:, None, None]  # -W
    diagonal = np.arange(len(grad))
    reach = inverse - hessian.sum(axis=2)
    hessian[:, diagonal, diagonal] = reach
    if not free.all():
        hessian, reach = hessian[:, free][:, :, free], reach[:, free]
    scale = reach.mean(axis=1)
    empty = scale == 0  # no cell in the band and no curvature: J = 0
    scale[empty] = 1.0
    if np.all(curvature == np.inf):
        hessian += scale[:, None, None]
    diagonal = np.arange(len(reach[0]))
    hessian[:, diagonal, diagonal] += 1e-12 * scale[:, None]
    moves = np.zeros((len(bands), len(grad)))
    try:
        moves[:, free] = np.linalg.solve(hessian, grad[free])
    except np.linalg.LinAlgError:  # an infinite 1 / k makes J not finite
        return None
    with np.errstate(divide="ignore"):  # a move of 0 fits no band
        misfit = np.abs(np.log(np.abs(moves).max(axis=1) / bands)) / np.log(BAND_REACH)
    misfit[empty] = np.inf
    fits = np.flatnonzero(misfit <= 1.0)
    level = fits[-1] if len(fits) else int(np.argmin(misfit))
    return moves[level] if misfit[level] <= 2.0 else None


def _tie_split(grid, gaps, codes, runner, masses, grad, aimed, free):
    """At a kink, the step s along grad to the middle of the piece whose
    masses come closest to aimed, the target masses, among the pieces the
    tied cells pass through as s grows from 0, or None when that is the
    current piece.  A tied cell's gap is below 2**-BAND_LEVELS (gaps as in
    _band_pairs); it moves to its runner-up at s = gap / (grad_runner -
    grad_claim), and no other cell moves before s = 2**-BAND_LEVELS /
    (2 max |grad|).  The mismatch is taken over the free UAVs."""
    tie = 2.0**-BAND_LEVELS
    tied = np.flatnonzero(gaps < tie)
    claim = codes[tied].astype(np.intp) - 1
    rival = runner[tied].astype(np.intp)
    rate = grad[rival] - grad[claim]
    limit = tie / (2.0 * float(np.abs(grad).max()))
    at = np.divide(gaps[tied], rate, out=np.full(len(tied), np.inf), where=rate > 0)
    order = np.argsort(at, kind="stable")
    order = order[at[order] < limit]
    shift = np.zeros((len(order) + 1, len(masses)))  # row j: the j-th cell's move
    moved = np.arange(1, len(order) + 1)
    shift[moved, claim[order]] = -grid.cell_mass[tied[order]]
    shift[moved, rival[order]] = grid.cell_mass[tied[order]]
    pieces = masses + np.cumsum(shift, axis=0)
    ends = np.append(at[order], limit)
    starts = np.insert(ends[:-1], 0, 0.0)
    mismatch = np.linalg.norm((aimed - pieces)[:, free], axis=1)
    spans = np.flatnonzero(starts < ends)
    best = spans[np.argmin(mismatch[spans])]
    return None if mismatch[best] >= mismatch[0] else 0.5 * (starts[best] + ends[best])


@dataclass(frozen=True)
class DualPotentials:
    """Potentials psi with the partition they induce and the ascent trace.

    partition assigns each cell to argmin_i (c_ic - psi_i), and its masses
    are the ones the ascent stopped on; f_trace is the accepted objective per
    iteration (strictly increasing), grad_trace the mass-mismatch norm,
    step_trace the accepted step (zero on the first row): the damping 1, 1/2
    or 1/4 of a Newton step, or the step along the search direction, evals
    the number of dual evaluations the ascent ran, and gap the duality gap
    sum_i k_i (a_i - t_i)^2 / 2 over the finite curvatures (see ascend_dual;
    0.0 when none is finite)."""

    psi: np.ndarray
    partition: Partition
    f_trace: np.ndarray
    grad_trace: np.ndarray
    step_trace: np.ndarray
    evals: int
    gap: float


def ascend_dual(grid, costs, psi, shares, curvature, mass_tol, max_iter):
    """Maximize the concave dual
    F(psi) = psi . b - sum_i psi_i^2 / (2 k_i) + sum_c m_c min_i (c_ic - psi_i),
    b = shares and k = curvature, and return the potentials with the
    partition argmin_i (c_ic - psi_i) at them.

    F prices the masses t = b - psi / k: k_i = inf drops UAV i's quadratic
    term, so t_i = b_i, and k_i = 0 holds psi_i where it starts, with the
    UAV's own region mass as t_i.  Each iterate claims the partition at psi,
    keeping each cell's runner-up UAV and cost, and steps along grad, t minus
    that partition's masses a; the gap returned is
    sum_i k_i (a_i - t_i)^2 / 2 over the finite k_i at the last iterate.
    Every evaluation of F takes the per-cell minimum row by row into
    n_cells-length arrays allocated once per ascent, so no (n_uavs, n_cells)
    buffer is used, and skips the cells no UAV can serve, found once from the
    first minimum.  The accepted trial's F and minimum are kept by swapping
    two such arrays, so an iterate after the first evaluates nothing: its
    claim re-derives each shifted row into one array, compares it to the kept
    minimum and keeps one-byte codes.  The int64 Partition is built once, for
    the last iterate, so its masses are the ones the stopping test read; cells
    no UAV can serve stay unassigned and the lowest index wins ties.

    Each iterate first tries the damped Newton step psi + d, d/2, d/4 with
    d = J^-1 grad and J a band Hessian (_newton_move; Kitagawa, Merigot and
    Thibert 2019): the response of the masses to psi, from the cells whose
    runner-up cost lies within a band h of their claim's.  The bands are
    first_step / 2**l, l < BAND_LEVELS, first_step the larger of the spread
    of the finite costs and the largest |psi| the ascent starts from, so the
    steps are free of the units (a 100 MHz band or a hover budget of 1.8e6 s
    solves like the defaults), and the band used is one whose move is about
    as wide as it.  When no trial raises F, or no band fits its move, the
    step search runs, and the next iterate goes straight to it too, since
    the model just failed there.  Both run one backtracking search, F at
    psi + s d for s = s0, s0 / 2, ... until F rises or psi stops moving:
    from s0 = 1, at most NEWTON_TRIALS times, along the Newton move, and
    along the search direction from first_step rounded up to a power of two
    on the step search's first run, so every step it takes is one, and from
    the last step it tried on later runs.  A search step that raises F is
    walked to a local maximum of F over step * 2**k: it doubles while F
    keeps improving, or halves when the search had to halve or the first
    doubling fails.  Steps zigzag across a kink: tied cells flip between
    UAVs and the masses alternate between pieces of F.  So when
    an iterate's masses repeat those of one of the last len(costs) + 1
    iterates, the Newton step is skipped and the search first tries the
    least-norm point of the hull of every piece's direction, t - m over the
    distinct masses m since that repeat, which climbs on each of those
    pieces, along the kink; grad is tried when no step along it improves F.
    At a kink where no step along grad that still changes psi improves F,
    the pieces the tied cells pass through along grad (_tie_split) can come
    closer to t at a step too small for F to resolve: once per ascent, the
    iterate moves there, at no lower F, and the ascent goes on from it.
    Returns when the mass-mismatch norm is at most mass_tol, or at such a
    kink (a kink the tie-break's masses do not climb, as on grids too coarse
    for the masses to meet); the last traced mismatch tells the two apart.
    Raises ConvergenceError (trace attached) when max_iter runs out."""
    f_trace, grad_trace, step_trace = [], [], []
    n_uavs, n_cells = costs.shape
    kept, spare, row = (np.empty(n_cells) for _ in range(3))
    runner = np.empty(n_cells, dtype=np.min_scalar_type(max(n_uavs - 1, 0)))
    first_step = max(_finite_spread(costs), float(np.abs(psi).max(initial=0.0)))
    if not first_step > 0:
        first_step = 1.0
    bands = first_step * 2.0 ** -np.arange(BAND_LEVELS)
    _lower_envelope(_shifted_rows(costs, psi, row), kept)
    dead = np.flatnonzero(kept == np.inf)  # no UAV serves these at any psi
    free = curvature > 0  # k_i = 0 holds psi_i where it starts

    def quadratic(p):  # psi / k before the product: psi**2 overflows first
        return float(p @ shares) - 0.5 * float(p[free] / curvature[free] @ p[free])

    def aim(p, masses):  # t, with no division by k = 0 to warn
        t = np.subtract(shares, np.divide(p, curvature, out=np.zeros_like(p), where=free))
        return np.where(free, t, masses)

    value = quadratic(psi) + _served_integral(grid, kept, dead, row)
    evals = 1  # later iterates take their accepted trial's value

    def value_at(p, best):
        nonlocal evals
        evals += 1
        _lower_envelope(_shifted_rows(costs, p, row), best)
        return quadratic(p) + _served_integral(grid, best, dead, row)

    def halving(direction, step, trials):
        """The backtracking search from psi, each minimum over kept: the last
        step tried, halved again when trials run out, and F there or -inf."""
        cand = -np.inf
        while trials > 0:
            moved = psi + step * direction
            if np.array_equal(moved, psi):
                break
            cand = value_at(moved, kept)
            if cand > value:
                break
            step, trials = 0.5 * step, trials - 1
        return step, cand

    def gaps():  # runner-up cost minus claim over first_step, into row
        with np.errstate(invalid="ignore"):  # +inf - +inf where no UAV serves
            np.subtract(spare, kept, out=row)
        row[dead] = np.inf
        return np.divide(row, first_step, out=row)

    step = taken = 0.0
    split = None  # the step of the one tie split
    failed = False
    visited = []  # the region masses of the last len(costs) + 2 iterates
    while True:
        codes, masses = _claim(grid, _shifted_rows(costs, psi, row), kept, n_uavs,
                               (spare, runner))
        grad = aim(psi, masses) - masses
        f_trace.append(value)
        grad_trace.append(float(np.linalg.norm(grad)))
        step_trace.append(taken)
        if grad_trace[-1] <= mass_tol:
            break
        if len(step_trace) > max_iter:
            trace = (np.array(f_trace), np.array(grad_trace), np.array(step_trace))
            raise ConvergenceError(
                f"mass mismatch {grad_trace[-1]:.3e} after {max_iter} iterations", trace=trace)
        visited.append(masses)
        del visited[:-n_uavs - 2]
        # back at the masses of a recent iterate, the ascent zigzags across a
        # kink: the Newton step is skipped there, and the step search tries
        # first the least-norm supergradient of the pieces visited
        back = next(j for j, seen in enumerate(visited) if np.array_equal(seen, masses))
        pieces = list({m.tobytes(): m for m in visited[back:]}.values())
        if len(pieces) == 1 and not failed:
            # kept is free until the first trial: the trials and the step
            # search each write their own minimum over it
            newton = _newton_move(
                _band_pairs(grid, gaps(), codes, runner, n_uavs, kept), grad, bands, curvature)
            taken, cand = halving(newton, 1.0, NEWTON_TRIALS if newton is not None else 0)
            if cand > value:
                psi, value = psi + taken * newton, cand
                continue
            failed = True
        else:
            failed = False
        directions = [grad]
        if len(pieces) > 1:
            directions.insert(0, _min_norm_point(np.array([aim(psi, m) - m for m in pieces])))
        start = step or 2.0 ** int(np.frexp(first_step)[1])
        for direction in directions:
            # the next iterate starts from the last step tried, even a failed one
            step, cand = halving(direction, start, np.inf)
            if cand > value:
                break
        if cand <= value:  # a kink: no step along grad that still changes psi improves F
            if split:
                break
            value_at(psi, kept)  # the minimum at psi, which the trials overwrote
            split = _tie_split(grid, gaps(), codes, runner, masses, grad, aim(psi, masses), free)
            if split is None:
                break
            moved = psi + split * first_step * grad
            if np.array_equal(moved, psi) or (cand := value_at(moved, kept)) < value:
                break
            # the kink's iterate gives way to the closer piece, at no lower F,
            # once: F need not rise, so a second split could undo the first
            psi, value = moved, cand
            del f_trace[-1], grad_trace[-1], step_trace[-1], visited[-1]
            continue
        # climb to a local maximum over step * 2**k
        for factor in (2.0, 0.5) if step == start else (0.5,):
            climbed = False
            while (trial := value_at(psi + factor * step * direction, spare)) > cand:
                step *= factor
                cand, climbed = trial, True
                kept, spare = spare, kept  # the minimum at psi + step * direction
            if climbed:
                break
        psi = psi + step * direction
        value, taken = cand, step
    del kept, spare, row  # before the int64 assignment is built
    finite = np.where(curvature < np.inf, curvature, 0.0)  # one full-length dot
    gap = 0.5 * float(finite @ (masses - aim(psi, masses)) ** 2)
    return DualPotentials(
        psi, _partition(codes, masses), np.array(f_trace), np.array(grad_trace),
        np.array(step_trace), evals, gap,
    )
