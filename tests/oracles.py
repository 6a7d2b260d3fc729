"""Exhaustive oracles the tests hold the solvers to: the closed-form
in-region bandwidth split, the brute-force minimum of total hover time,
plain per-region loops that weigh and score a partition the way the library
does, whole-array and UAV-by-UAV forms of the radio field and the shifted
min-cost pass that the library's in-place kernels must match bit for bit,
and the one-seed-at-a-time user sampling, Jain scoring and metrics.csv rows
that the runner's batched seeds must match byte for byte."""

import csv
import io
import itertools
from dataclasses import dataclass

import numpy as np

from uavpart.channel import RadioField, mean_path_loss
from uavpart.config import format_value
from uavpart.errors import InfeasibleError
from uavpart.partition import INFEASIBLE, Partition
from uavpart.runner import METRICS_HEADER
from uavpart.scenario2 import HoverReport, region_hover_report

BRUTE_FORCE_LIMIT = 1_000_000


def region_masses(grid, assignment, n_uavs):
    """User mass per UAV for an assignment array, one region at a time, each
    summed as cell_mass.sum(where=region) like the library's partitions."""
    return np.array([grid.cell_mass.sum(where=assignment == i) for i in range(n_uavs)],
                    dtype=float)


def cell_centers(grid):
    """x and y of every cell center, flat in cell order k = iy * nx + ix: the
    grid's column_x once per row and each row_y nx times."""
    return np.tile(grid.column_x, grid.ny), np.repeat(grid.row_y, grid.nx)


def gaussian_kernel_reference(width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y):
    """The hot spot's unnormalized kernel, with each cell's center computed
    from its flat index k as (k % nx, k // nx) and the kernel evaluated cell
    by cell in one flat array."""
    nc = nx * ny
    x = (np.arange(nc) % nx + 0.5) * (width / nx)
    y = (np.arange(nc) // nx + 0.5) * (height / ny)
    with np.errstate(over="ignore"):
        return np.exp(
            -((x - mu_x) ** 2) / (2.0 * sigma_x**2) - ((y - mu_y) ** 2) / (2.0 * sigma_y**2)
        )


def truncated_gaussian_reference(width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y):
    """The truncated Gaussian hot spot's density: the per-cell kernel of
    gaussian_kernel_reference over its sum times the cell area."""
    kern = gaussian_kernel_reference(width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y)
    return kern / (kern.sum() * ((width / nx) * (height / ny)))


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


@dataclass(frozen=True)
class ExactPlan:
    """The brute-force optimum: its partition and hover report."""

    partition: Partition
    report: HoverReport


def brute_force_min_hover(grid, radio, load_bits, alpha, n_users):
    """Exhaustive minimum of total hover time over all feasible assignments.

    Every cell ranges over the UAVs whose SINR floor it meets; instances with
    more than BRUTE_FORCE_LIMIT assignments raise ValueError.  Ties go to the first
    assignment in lexicographic order.
    """
    alpha = np.broadcast_to(alpha, radio.n_uavs)
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
        n_users * load_bits * grid.cell_mass[None, :]
        / (radio.bandwidths[:, None] * eff)
    )
    options = [ch if len(ch) else np.array([0]) for ch in choices]
    best_total, best_assignment = np.inf, None
    for combo in itertools.product(*options):
        assignment = np.array(combo)
        masses = region_masses(grid, assignment, radio.n_uavs)
        total = float(serve_cost[assignment, np.arange(grid.n_cells)].sum()) + float(
            alpha @ (n_users * masses) ** 2
        )
        if total < best_total:
            best_total = total
            best_assignment = assignment
    unservable = np.array([len(ch) == 0 for ch in choices])
    best_assignment = np.where(unservable, INFEASIBLE, best_assignment)
    part = Partition(best_assignment, region_masses(grid, best_assignment, radio.n_uavs))
    report = region_hover_report(grid, part, radio, load_bits, alpha, n_users)
    return ExactPlan(part, report)


def hover_report_reference(grid, part, radio, load_bits, alpha, n_users, equal_split=False):
    """HoverReport of a partition, one UAV region at a time.

    Each region is a boolean mask and its mass the sum of its cell masses.
    The optimal split serves the region's users one after another on the
    full band; the equal split finishes when its slowest populated cell
    does.  A region with a cell below its UAV's SINR floor raises
    InfeasibleError, checked in UAV order."""
    alpha = np.broadcast_to(alpha, part.n_uavs)
    serve, control = np.zeros(part.n_uavs), np.zeros(part.n_uavs)
    for i in range(part.n_uavs):
        region = part.assignment == i
        if np.any(region & ~radio.feasible_by_uav[i]):
            raise InfeasibleError(f"region of UAV {i} contains cells below its SINR floor")
        mass = float(grid.cell_mass[region].sum())
        eff = radio.spectral_eff[i, region]
        if equal_split:
            populated = grid.cell_mass[region] > 0
            slowest = float((load_bits / eff[populated]).max(initial=0.0))
            serve[i] = n_users * mass * slowest / radio.bandwidths[i]
        else:
            demand = load_bits * grid.cell_mass[region]
            serve[i] = n_users * float((demand / eff).sum()) / radio.bandwidths[i]
        control[i] = alpha[i] * (n_users * mass) ** 2
    return HoverReport(serve_times=serve, control_times=control)


def service_matrix_reference(radio, budgets, alpha, n_users, part):
    """Bits per user for every UAV and cell, (n_uavs, n_cells): each UAV
    splits its budget left after control time evenly over its region's
    users, B_i max(tau_i - alpha_i (N a_i)^2, 0) / (N a_i) times the link's
    spectral efficiency, and zero for a UAV whose region has no mass."""
    alpha = np.broadcast_to(alpha, radio.n_uavs)
    tau = np.broadcast_to(budgets, radio.n_uavs)
    a = part.masses
    serve = np.maximum(tau - alpha * (n_users * a) ** 2, 0.0)
    scale = np.divide(radio.bandwidths * serve, n_users * a, out=np.zeros(radio.n_uavs),
                      where=a > 0)
    return scale[:, None] * radio.spectral_eff


def on_own_links(matrix, part):
    """matrix[a(c), c] for every assigned cell c, zero on unassigned cells."""
    cells = np.flatnonzero(part.assignment != INFEASIBLE)
    out = np.zeros(len(part.assignment))
    out[cells] = matrix[part.assignment[cells], cells]
    return out


def received_power_reference(uav, x, y, params):
    """Mean received power at ground point(s), each quantity one whole-array
    expression: slant range, elevation, LoS probability, path loss."""
    with np.errstate(over="ignore"):
        d2 = (x - uav.x) ** 2 + (y - uav.y) ** 2 + uav.altitude**2
        theta_deg = np.degrees(np.arcsin(uav.altitude / np.sqrt(d2)))
        base = np.maximum(theta_deg - 15.0, 0.0)
        p = np.minimum(params.b1 * base**params.b2, 1.0)
        loss = params.reference_loss * d2 * (p * params.mu_los + (1.0 - p) * params.mu_nlos)
    return uav.power / loss


def _sinr_reference(power, uavs, params):
    """The SINR of stacked received powers, a whole-array expression."""
    noise = params.noise_w_per_hz * np.array([u.bandwidth for u in uavs], dtype=float)
    interference = params.beta * (power.sum(axis=0)[None, :] - power)
    return power / (interference + noise[:, None])


def links_reference(grid, uavs, params):
    """Received power and SINR stacked from per-UAV powers over the flat cell
    coordinates, the SINR a whole-array expression."""
    x, y = cell_centers(grid)
    power = np.stack([received_power_reference(u, x, y, params) for u in uavs])
    return power, _sinr_reference(power, uavs, params)


def links_uav_by_uav(grid, uavs, params):
    """Received power and SINR with every UAV's power built from its own
    mean_path_loss over the grid's separable coordinates: no UAV's power is
    copied from another's."""
    x, y = grid.column_x, grid.row_y[:, None]
    power = np.stack([(u.power / mean_path_loss(u, x, y, params)).reshape(-1) for u in uavs])
    return power, _sinr_reference(power, uavs, params)


def radio_field_reference(grid, uavs, params, links=links_reference):
    """The radio field over the SINR of links (links_reference's by default),
    with spectral efficiency and the masks as whole-array expressions."""
    sinr = links(grid, uavs, params)[1]
    feasible_by_uav = sinr >= params.sinr_threshold
    return RadioField(spectral_eff=np.log2(1.0 + sinr), feasible_by_uav=feasible_by_uav,
                      feasible=feasible_by_uav.any(axis=0),
                      bandwidths=np.array([u.bandwidth for u in uavs], dtype=float))


def shifted_pass_reference(grid, costs, psi, partition=False):
    """F and, with partition=True, the partition of argmin_i (c_ic - psi_i)
    from one (n_uavs, n_cells) buffer: np.argmin picks the lowest tied index,
    cells with no finite shifted cost stay unassigned, and each region's mass
    is summed with region_masses."""
    buf = costs - psi[:, None]
    best = buf.min(axis=0)
    assignment = np.where(best < np.inf, np.argmin(buf, axis=0), INFEASIBLE)
    best[best == np.inf] = 0.0
    value = float(np.einsum("c,c->", best, grid.cell_mass))
    if not partition:
        return value
    return value, Partition(assignment, region_masses(grid, assignment, len(costs)))


def min_norm_point_reference(points):
    """The least norm over the convex hull of the rows of points, by trying
    every subset of at most dim + 1 rows: the minimizer over a subset's affine
    hull, from its KKT system, counts when its weights are non-negative.  The
    rows are scaled to a largest norm of 1 first, so the KKT system's blocks
    are of one size."""
    k, dim = points.shape
    scale = float(np.sqrt(np.einsum("ij,ij->i", points, points).max()))
    if scale == 0:
        return 0.0
    points = points / scale
    best = np.inf
    for size in range(1, min(k, dim + 1) + 1):
        for subset in itertools.combinations(range(k), size):
            p = points[list(subset)]
            kkt = np.ones((size + 1, size + 1))
            kkt[:size, :size] = p @ p.T
            kkt[size, size] = 0.0
            weights = np.linalg.lstsq(kkt, np.eye(size + 1)[size], rcond=None)[0][:size]
            if weights.min() >= -1e-12:
                best = min(best, float(np.linalg.norm(weights @ p)))
    return scale * best


def sample_cells_reference(grid, n_users, seed):
    """One seed's users' cells: that seed's own generator's draws, each
    located by an unsorted search of the cell CDF."""
    return np.searchsorted(grid.cell_cdf, np.random.default_rng(seed).random(n_users),
                           side="right")


def jain_reference(values):
    """Jain's index of one 1-D allocation with a positive entry, rescaled by
    its peak and summed as a 1-D array, with Python floats for the last step."""
    w = values / values.max()
    return float(w.sum()) ** 2 / (len(w) * float((w**2).sum()))


def per_seed_jain(grid, n_users, seeds, service):
    """Each seed's Jain index of per-user service, one seed at a time: that
    seed's users drawn alone and scored alone, nan when none is served."""
    index = []
    for seed in seeds:
        allocation = service[sample_cells_reference(grid, n_users, seed)]
        index.append(jain_reference(allocation) if allocation.any() else float("nan"))
    return index


def metrics_csv_reference(point, shared, per_seed):
    """metrics.csv of one sweep point with every row written by csv.writer:
    the header, then for each seed the shared rows and that seed's own, as
    (*point, seed, metric, value)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(METRICS_HEADER)
    writer.writerows((*point, seed, metric, format_value(float(value)))
                     for seed, seed_rows in enumerate(per_seed)
                     for metric, value in shared + seed_rows)
    return buf.getvalue()
