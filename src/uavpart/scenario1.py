"""Service maximization under per-UAV hover budgets.

The hover budget of each UAV splits into control overhead plus serving time.
A fairness system turns the budgets into per-UAV load shares and a common
per-user resource; a concave dual ascent then shapes the regions so every
UAV's region mass hits its share while total delivered data is maximal.
Budgets (seconds) and control weights alpha (seconds per user^2) are each one
value for the fleet or one per UAV; ValueError names a wrong length, a budget
that is not positive and finite, or an alpha that is not finite and
non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _per_uav
from .config import ExperimentConfig
from .errors import ConfigError, ConvergenceError, InfeasibleError
from .partition import DualPotentials, Partition, ascend_dual, own_links
from .partition import assign_by_min_cost  # probed by perfbench as partition.assign


@dataclass(frozen=True)
class FairnessSolution:
    """Serving times and load shares that give every user the same resource.

    serve_times is the post-control serving time per UAV, target_masses the
    load shares (sum 1), and resource_per_user the common bandwidth-time
    product per user in Hz * s.
    """

    serve_times: np.ndarray
    target_masses: np.ndarray
    resource_per_user: float


def solve_fairness_system(bandwidths, budgets, alpha, n_users):
    """Solve T_i = tau_i - alpha_i (N w_i)^2, w_i = B_i T_i / sum_k B_k T_k.

    bandwidths holds B_i in Hz, budgets tau_i.  At a pool P = sum_k B_k T_k
    each T_i is a quadratic's positive root, and sum_i B_i T_i(P) / P falls
    strictly from C / N to 0, where the capacity C = sum_i sqrt(tau_i / alpha_i)
    is infinite if some alpha_i = 0.  So a split exists exactly when C > N,
    and bisection on P over (0, B . tau] finds it to adjacent floats.  Raises
    InfeasibleError when C <= N, and else ConfigError when the pool the split
    ends at is not a normal float: some term overflowed (B . tau, 4 alpha_i
    tau_i or 2 tau_i) or the pool keeps too few significant bits to price
    the links.
    """
    bw = np.asarray(bandwidths, dtype=float)
    tau = _per_uav(budgets, len(bw), "hover budget", positive=True)
    alpha = _per_uav(alpha, len(bw), "control weight alpha")
    if n_users < 1:
        raise ValueError("need at least one user")
    # alpha_i = 0 or a huge tau_i / alpha_i makes C infinite, which is no fault
    with np.errstate(divide="ignore", over="ignore"):
        capacity = np.sqrt(tau / alpha).sum()
    if capacity <= n_users:
        raise InfeasibleError(f"fleet capacity sum(sqrt(tau / alpha)) = {capacity:.6g} "
                              f"users is at most N = {n_users}")
    # an inf or a NaN on the way ends the bisection and shows in the pool
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        load = 4.0 * alpha * tau
        # the control term load_i (N B_i / P)^2 is 0 where load_i is 0, at any
        # pool: N B_i / P, or its square, can overflow there when P is tiny
        users_bw = np.where(load > 0, n_users * bw, 0.0)

        def serve_at(pool):
            return 2.0 * tau / (1.0 + np.sqrt(1.0 + load * (users_bw / pool) ** 2))
        lo, hi = 0.0, float(bw @ tau)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if bw @ serve_at(mid) > mid:
                lo = mid
            else:
                hi = mid
        serve = serve_at(hi)
        pool = float(bw @ serve)
    if not np.finfo(float).tiny <= pool < np.inf:
        raise ConfigError(f"the fairness split's pool sum_i B_i T_i = {pool:.6g} "
                          "is not a normal float")
    return FairnessSolution(serve_times=serve, target_masses=bw * serve / pool,
                            resource_per_user=pool / n_users)


def build_cost_field(radio, fairness):
    """Per-UAV transport cost: minus the per-user data volume, +inf on the
    links below the SINR floor, built in one (n_uavs, n_cells) array."""
    costs = np.multiply(radio.spectral_eff, -fairness.resource_per_user)
    costs[~radio.feasible_by_uav] = np.inf
    return costs


def dual_value(grid, costs, psi, shares):  # probed by perfbench as scenario1.dual_eval
    """Concave dual objective psi . shares + integral of the shifted cell min
    over the cells some UAV can serve: ascend_dual's F with every k_i = inf,
    as an ascent that stops at its start evaluates it."""
    ascent = ascend_dual(grid, costs, psi, shares, np.full(len(psi), np.inf), np.inf, 0)
    return float(ascent.f_trace[0])


def _service_field(radio, part, scale):
    """Each cell's bits per user on its own link, scale_i * eff_ic for the
    cell's UAV i, zero on unassigned cells; scale is per UAV in Hz * s.

    The field checks itself once, with one max over the cells: ValueError
    names the first UAV whose per-user service is not finite, because its
    scale or a product scale_i * eff_ic overflows a float."""
    cells, uavs, eff = own_links(part, radio.spectral_eff)
    service = np.zeros(part.assignment.size)
    with np.errstate(over="ignore", invalid="ignore"):
        service[cells] = np.multiply(eff, scale[uavs], out=eff)
    if np.isfinite(service.max()):  # max propagates NaN and inf alike
        return service
    raise ValueError(f"the per-user service of UAV {uavs[~np.isfinite(eff)].min()} "
                     "overflows a float")


@dataclass(frozen=True)
class Scenario1Result:
    partition: Partition
    fairness: FairnessSolution
    potentials: DualPotentials
    service: np.ndarray


def solve_scenario1(grid, radio, budgets, alpha, n_users, mass_tol=ExperimentConfig.mass_tol,
                    max_iter=ExperimentConfig.max_ascent_iter):
    """Partition the area so each UAV's region mass matches its fair share
    of the hover budgets and the radio field's bandwidths.

    Ascends the concave dual psi . shares + integral of min_i (c_ic - psi_i),
    ascend_dual's F with b = shares and every k_i = inf, from psi = 0;
    the first step is the spread of the costs, so the steps scale with the
    bandwidth and the hover budget.  The certificate is the mass-mismatch
    norm, at most mass_tol at the stop (potentials.gap is 0.0).  The
    partition is the one ascend_dual returns, each cell at its least shifted
    cost.  The returned service array holds each cell's bits per user on its
    own link, zero on unassigned cells.

    Raises InfeasibleError when more than mass_tol of the user mass has no
    link above the SINR floor or when some UAVs' shares exceed the user mass
    their links reach, which the ascent finds as potentials that leave the
    floats, and ConvergenceError (with the trace attached)
    when the iteration budget runs out or the ascent ends at a kink, where no
    step that still changes the potentials improves the dual, with the masses
    still off their shares.  The kink's message gives the mass mismatch,
    mass_tol and the heaviest cell's mass: whole cells cannot always meet
    the shares within mass_tol when one cell outweighs it.
    """
    fairness = solve_fairness_system(radio.bandwidths, budgets, alpha, n_users)
    uncovered_mass = float(grid.cell_mass[~radio.feasible].sum())
    if uncovered_mass > mass_tol:
        raise InfeasibleError(
            f"{uncovered_mass:.3e} of the user mass has no link above the SINR floor"
        )
    # the cost field is the ascent's alone: it is freed before the service field
    potentials = ascend_dual(
        grid, build_cost_field(radio, fairness), np.zeros(radio.n_uavs),
        fairness.target_masses, np.full(radio.n_uavs, np.inf), mass_tol, max_iter,
    )
    if potentials.grad_trace[-1] > mass_tol:
        trace = (potentials.f_trace, potentials.grad_trace, potentials.step_trace)
        raise ConvergenceError(
            f"dual ascent ended at a kink with mass mismatch {potentials.grad_trace[-1]:.3e} "
            f"above mass_tol = {mass_tol:.3e}; the heaviest cell holds "
            f"{float(grid.cell_mass.max()):.3e} of the user mass", trace=trace)
    service = _service_field(radio, potentials.partition,
                             np.full(radio.n_uavs, fairness.resource_per_user))
    return Scenario1Result(potentials.partition, fairness, potentials, service)


def service_field_for_partition(grid, part, radio, budgets, alpha, n_users):
    """Per-user service when each UAV splits its own budget over its own
    region, with no cross-region fairness coupling.

    Serving time is tau_i minus the control overhead for the region's users,
    floored at zero; each of the region's N * a_i users gets an equal share
    B_i T_i / (N a_i) of the bandwidth-time product.  Returns each cell's
    bits per user on its own link, zero on unassigned cells.  Used to
    evaluate baseline partitions; for a partition whose masses equal the
    fairness shares this reduces to the solver's own service field.
    """
    tau = _per_uav(budgets, radio.n_uavs, "hover budget", positive=True)
    alpha = _per_uav(alpha, radio.n_uavs, "control weight alpha")
    a = part.masses
    serve = np.maximum(tau - alpha * (n_users * a) ** 2, 0.0)
    with np.errstate(over="ignore"):  # _service_field names a scale that overflows
        scale = np.divide(radio.bandwidths * serve, n_users * a, out=np.zeros(radio.n_uavs),
                          where=a > 0)
    return _service_field(radio, part, scale)
