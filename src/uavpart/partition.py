"""Cell-to-UAV assignment maps, their user masses, and the shared dual ascent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError

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


class _Ascent:
    """What the step rules of one ascent share (see ascend_dual): the iterate
    psi, F there (value) and its claim; n_cells-length arrays for the minimum
    at psi (kept), the runner-up costs (spare) and the shifted rows (row);
    first_step, the larger of the finite costs' spread and the largest |psi|
    the ascent starts from; the UAVs with a finite 1 / k (free; the others
    hold psi_i); the last len(costs) + 2 iterates' masses (visited); the step
    the step search starts from (step: first_step rounded up to a power of
    two, then the last step it kept) and the one that reached psi (taken)."""

    def __init__(self, grid, costs, psi, shares, curvature):
        self.grid, self.costs, self.shares, self.curvature = grid, costs, shares, curvature
        with np.errstate(divide="ignore", over="ignore"):
            self.free = np.isfinite(1.0 / curvature)
        self.kept, self.spare, self.row = (np.empty(costs.shape[1]) for _ in range(3))
        self.runner = np.empty(costs.shape[1], dtype=np.min_scalar_type(max(len(costs) - 1, 0)))
        self.first_step = max(_finite_spread(costs), float(np.abs(psi).max(initial=0.0)))
        if not self.first_step > 0:
            self.first_step = 1.0
        self.bands = self.first_step * 2.0 ** -np.arange(BAND_LEVELS)
        self.step = 2.0 ** int(np.frexp(self.first_step)[1])
        self.dead, self.evals, self.taken, self.failed, self.split = None, 0, 0.0, False, False
        self.psi, self.value = psi, _evaluate(self, psi, self.kept)
        self.visited = []


def _evaluate(s, p, into):
    """F at p, the one place evaluations are counted, with the minimum of
    the shifted rows taken row by row into into.  The integral skips the
    cells no UAV serves, +inf at every p, found once from the first minimum."""
    s.evals += 1
    _lower_envelope(_shifted_rows(s.costs, p, s.row), into)
    if s.dead is None:
        s.dead = np.flatnonzero(into == np.inf)
    if len(s.dead):
        np.copyto(s.row, into)
        s.row[s.dead] = 0.0
        into = s.row
    # p / k before the product: p**2 overflows first
    quadratic = float(p @ s.shares) - 0.5 * float(p[s.free] / s.curvature[s.free] @ p[s.free])
    # einsum, not a BLAS dot: a threaded ddot stalls when the CPUs are busy
    return quadratic + float(np.einsum("c,c->", into, s.grid.cell_mass))


def _claim_iterate(s):
    """Claim the partition at psi with each cell's runner-up, set grad and
    the pieces visited since the masses last repeated: the mismatch norm."""
    s.codes, s.masses = _claim(s.grid, _shifted_rows(s.costs, s.psi, s.row), s.kept,
                               len(s.costs), (s.spare, s.runner))
    s.grad = _aim(s, s.masses) - s.masses
    s.visited = s.visited[-len(s.costs) - 1:] + [s.masses]
    back = next(j for j, seen in enumerate(s.visited) if np.array_equal(seen, s.masses))
    s.pieces = list({m.tobytes(): m for m in s.visited[back:]}.values())
    return float(np.linalg.norm(s.grad))


def _aim(s, masses):
    """The priced masses t = b - psi / k, with no division by k = 0 to warn,
    and masses on the held UAVs."""
    t = s.shares - np.divide(s.psi, s.curvature, out=np.zeros_like(s.psi), where=s.free)
    return np.where(s.free, t, masses)


def _gaps(s):
    """Each cell's runner-up cost minus its claim's over first_step, into
    row: never negative, and +inf where no UAV serves."""
    with np.errstate(invalid="ignore"):  # +inf - +inf where no UAV serves
        np.subtract(s.spare, s.kept, out=s.row)
    s.row[s.dead] = np.inf
    return np.divide(s.row, s.first_step, out=s.row)


def _backtrack(s, direction, step, trials):
    """F at psi + step * direction, each minimum over kept, for step, step / 2,
    ... until F rises, psi stops moving or the move step * max |direction|
    falls below first_step * 2**-60, the rounding level of the shifted costs,
    at most trials times: the last step tried, halved again when trials run
    out, and F there or -inf."""
    value = -np.inf
    while trials > 0:
        psi = s.psi + step * direction
        if np.array_equal(psi, s.psi) or step * np.abs(direction).max() < s.first_step * 2.0**-60:
            break
        value = _evaluate(s, psi, s.kept)
        if value > s.value:
            break
        step, trials = 0.5 * step, trials - 1
    return step, value


def _finite_trial(s, step, direction):
    """psi + step * direction, formed with no warning.  When it is not finite
    a climb has doubled its step while F rose all the way: F is unbounded
    along direction, as it is when some UAVs' shares exceed the user mass
    their links reach (Hall 1935), and no partition meets the shares.  So
    InfeasibleError names, of the sets of UAVs that direction raises most,
    the one whose shares most exceed that mass."""
    with np.errstate(over="ignore", invalid="ignore"):
        psi = s.psi + step * direction
    if np.isfinite(psi).all():
        return psi
    order = np.argsort(-direction, kind="stable")
    need = np.cumsum(s.shares[order])
    reach = np.logical_or.accumulate(s.costs[order] < np.inf) @ s.grid.cell_mass
    k = int(np.argmax(need - reach)) + 1
    uavs = ", ".join(map(str, np.sort(order[:k])))
    raise InfeasibleError(f"no partition meets the shares: the UAV set {{{uavs}}} needs "
                          f"{need[k - 1]:.6g} of the user mass, and its links reach "
                          f"{reach[k - 1]:.6g}")


def _climb(s, direction, start, step, value):
    """A search step that raises F to value, walked to a local maximum of F over
    step * 2**k: doubled while F improves, or halved when the search halved from
    start or the first doubling fails; kept takes each improving trial's minimum.
    A trial whose potentials are not finite is never evaluated (_finite_trial)."""
    for factor in (2.0, 0.5) if step == start else (0.5,):
        climbed = False
        while (trial := _evaluate(s, _finite_trial(s, factor * step, direction), s.spare)) > value:
            step *= factor
            value, climbed = trial, True
            s.kept, s.spare = s.spare, s.kept
        if climbed:
            break
    s.step = step
    return s.psi + step * direction, value, step


def _newton_move(s):
    """The Newton move J^-1 grad, zero on the held UAVs, at the band h that
    fits it: the finest band whose move is within a factor BAND_REACH of h, or
    else the band whose move comes closest, when within BAND_REACH**2; None
    when no band's move does.  J is diag(W 1) - W + diag(1 / k) over the free
    UAVs, W the pair masses (_band_pairs, over kept) over 2 h: a cell's mass
    crosses the band of width 2 h around its boundary.  J is positive
    semi-definite, and J 1 = 0 when every k_i = inf; all bands are solved at
    once, with 1e-12 of the mean of J's diagonal added to it, so a UAV no cell
    of the band reaches moves too far to fit, and with every k_i = inf that
    mean added to every entry, which fixes the gauge.  Where the mean of W 1
    is positive and the largest 1 / k exceeds it 1e12 times, a stiff UAV would
    swamp the others' band response in that mean, and 1e-12 of the mean of
    W 1 is added instead."""
    pairs = _band_pairs(s.grid, _gaps(s), s.codes, s.runner, len(s.costs), s.kept)
    inverse = np.divide(1.0, s.curvature, out=np.zeros(len(s.grad)), where=s.free)
    # W over a tiny band can overflow: a band whose J or move is not finite fits no band
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hessian = pairs + pairs.transpose(0, 2, 1)
        hessian /= (-2.0 * s.bands)[:, None, None]  # -W
        diagonal = np.arange(len(s.grad))
        transport = -hessian.sum(axis=2)  # W 1
        reach = inverse + transport
        hessian[:, diagonal, diagonal] = reach
        if not s.free.all():
            hessian, reach = hessian[:, s.free][:, :, s.free], reach[:, s.free]
        scale = reach.mean(axis=1)
        empty = scale == 0  # no cell in the band and no curvature: J = 0
        scale[empty] = 1.0
        if np.all(s.curvature == np.inf):
            hessian += scale[:, None, None]
        transport = transport[:, s.free].mean(axis=1)
        stiff = (transport > 0) & (inverse.max() > 1e12 * transport)
        diagonal = np.arange(len(reach[0]))
        hessian[:, diagonal, diagonal] += 1e-12 * np.where(stiff, transport, scale)[:, None]
        finite = np.isfinite(hessian).all(axis=(1, 2))
        moves = np.zeros((len(s.bands), len(s.grad)))
        try:
            moves[np.ix_(finite, s.free)] = np.linalg.solve(hessian[finite], s.grad[s.free])
        except np.linalg.LinAlgError:  # a singular J; the free mask keeps every 1 / k finite
            return None
        # a move of 0 fits no band
        misfit = np.abs(np.log(np.abs(moves).max(axis=1) / s.bands)) / np.log(BAND_REACH)
    misfit[empty | ~np.isfinite(misfit)] = np.inf
    fits = np.flatnonzero(misfit <= 1.0)
    level = fits[-1] if len(fits) else int(np.argmin(misfit))
    return moves[level] if misfit[level] <= 2.0 else None


def _newton_rule(s):
    """The damped Newton step psi + d, d/2, d/4 with d = J^-1 grad and J a
    band Hessian (_newton_move; Kitagawa, Merigot and Thibert 2019): the
    response of the masses to psi, from the cells whose runner-up cost lies
    within a band h = first_step / 2**l of their claim's, so the steps are free
    of the units.  None when no trial raises F or no band fits; the next
    iterate then skips the rule, since the model just failed there, as does
    one whose masses repeat (_search_rule)."""
    if len(s.pieces) > 1 or s.failed:
        s.failed = False
        return None
    move = _newton_move(s)
    step, value = _backtrack(s, move, 1.0, NEWTON_TRIALS if move is not None else 0)
    s.failed = not value > s.value
    return None if s.failed else (s.psi + step * move, value, step)


def _search_rule(s):
    """The step search: backtracking from s.step, a power of two, so every
    step it takes is one; a step that raises F is climbed.  Steps along grad
    zigzag across a kink: tied cells flip between UAVs and the masses
    alternate between pieces of F.  So when the iterate's masses repeat a
    visited iterate's, the search first runs along the least-norm point of
    the hull of t - m over the distinct masses m since then (pieces), which
    climbs on each piece, along the kink, and only then along grad, from the
    same step.  A climb keeps its step, and a failed search along grad its
    last trial, as the next start; a failed kink trial keeps none.  None at a
    kink: no step along grad that moves psi improves F."""
    pieces = np.array([_aim(s, m) - m for m in s.pieces])
    directions = (_min_norm_point(pieces), s.grad) if len(pieces) > 1 else (s.grad,)
    for direction in directions:
        step, value = _backtrack(s, direction, s.step, np.inf)
        if value > s.value:
            return _climb(s, direction, s.step, step, value)
    s.step = step
    return None


def _tie_split_rule(s):
    """At a kink, the pieces the tied cells pass through along grad can come
    closer to t at a step too small for F to resolve: the iterate moves along
    first_step * grad to the middle of the piece whose masses (on the free
    UAVs) come closest to t, at no lower F, and replaces the kink's iterate,
    step included.  A tied cell, gap below 2**-BAND_LEVELS, moves to its
    runner-up at step gap / (grad_runner - grad_claim); no other cell moves
    before 2**-BAND_LEVELS / (2 max |grad|).  None when the current piece
    comes closest, the move leaves psi or lowers F, or after one split."""
    if s.split:
        return None
    _evaluate(s, s.psi, s.kept)  # the minimum at psi, which the trials overwrote
    gaps, tie = _gaps(s), 2.0**-BAND_LEVELS
    tied = np.flatnonzero(gaps < tie)
    claim = s.codes[tied].astype(np.intp) - 1
    rival = s.runner[tied].astype(np.intp)
    rate = s.grad[rival] - s.grad[claim]
    limit = tie / (2.0 * float(np.abs(s.grad).max()))
    at = np.divide(gaps[tied], rate, out=np.full(len(tied), np.inf), where=rate > 0)
    order = np.argsort(at, kind="stable")
    order = order[at[order] < limit]
    shift = np.zeros((len(order) + 1, len(s.masses)))  # row j: the j-th cell's move
    moved = np.arange(1, len(order) + 1)
    shift[moved, claim[order]] = -s.grid.cell_mass[tied[order]]
    shift[moved, rival[order]] = s.grid.cell_mass[tied[order]]
    pieces = s.masses + np.cumsum(shift, axis=0)
    ends = np.append(at[order], limit)
    starts = np.insert(ends[:-1], 0, 0.0)
    mismatch = np.linalg.norm((_aim(s, s.masses) - pieces)[:, s.free], axis=1)
    spans = np.flatnonzero(starts < ends)
    best = spans[np.argmin(mismatch[spans])]
    if mismatch[best] >= mismatch[0]:
        return None
    psi = s.psi + 0.5 * (starts[best] + ends[best]) * s.first_step * s.grad
    if np.array_equal(psi, s.psi) or (value := _evaluate(s, psi, s.kept)) < s.value:
        return None
    s.split = True  # F need not rise, so a second split could undo the first
    del s.visited[-1]
    return psi, value, s.taken


def ascend_dual(grid, costs, psi, shares, curvature, mass_tol, max_iter):
    """Maximize the concave dual
    F(psi) = psi . b - sum_i psi_i^2 / (2 k_i) + sum_c m_c min_i (c_ic - psi_i),
    b = shares and k = curvature, and return the potentials with the
    partition argmin_i (c_ic - psi_i) at them, the lowest index winning ties
    and cells no UAV can serve unassigned.

    F prices the masses t = b - psi / k: k_i = inf drops UAV i's quadratic
    term, so t_i = b_i, and k_i = 0, or a k_i whose 1 / k_i overflows,
    holds psi_i where it starts, with the UAV's own region mass as t_i.
    Each iterate claims the partition at psi, its masses a and each cell's
    runner-up, and moves to the trial of the first rule that returns one:
    _newton_rule, _search_rule (along the kink's least-norm direction when
    the masses repeat, then along grad = t - a) and, at a kink neither
    climbs, _tie_split_rule.  A trial's F and minimum are kept, so the claim
    evaluates nothing; the int64 Partition is built once, at the last
    iterate, whose masses the stopping test read and where the gap
    sum_i k_i (a_i - t_i)^2 / 2 over the finite k_i is taken.

    Every backtracking search also stops once its move falls below
    first_step * 2**-60, the rounding level of the shifted costs, so a kink
    costs about 60 evaluations even where psi is near 0.

    Returns when the mass-mismatch norm is at most mass_tol, or at a kink no
    rule moves (as on grids too coarse for the masses to meet); the last
    traced mismatch tells the two apart.  Raises ConvergenceError (trace
    attached) when max_iter runs out, and InfeasibleError when a climb's
    potentials leave the floats: F is unbounded (_finite_trial)."""
    s = _Ascent(grid, costs, psi, shares, curvature)
    f_trace, grad_trace, step_trace = [], [], []
    while True:
        grad_trace.append(_claim_iterate(s))
        f_trace.append(s.value)
        step_trace.append(s.taken)
        if grad_trace[-1] <= mass_tol:
            break
        if len(step_trace) > max_iter:
            trace = (np.array(f_trace), np.array(grad_trace), np.array(step_trace))
            raise ConvergenceError(
                f"mass mismatch {grad_trace[-1]:.3e} after {max_iter} iterations", trace=trace)
        trial = _newton_rule(s) or _search_rule(s)
        if trial is None:  # a kink
            trial = _tie_split_rule(s)
            if trial is None:
                break
            del f_trace[-1], grad_trace[-1], step_trace[-1]
        s.psi, s.value, s.taken = trial
    del s.kept, s.spare, s.row  # before the int64 assignment is built
    finite = np.where(curvature < np.inf, curvature, 0.0)  # one full-length dot
    gap = 0.5 * float(finite @ (s.masses - _aim(s, s.masses)) ** 2)
    return DualPotentials(s.psi, _partition(s.codes, s.masses), np.array(f_trace),
                          np.array(grad_trace), np.array(step_trace), s.evals, gap)
