"""Service maximization under per-UAV hover budgets.

The hover budget of each UAV splits into control overhead plus serving time.
A fairness system turns the budgets into per-UAV load shares and a common
per-user resource; a concave dual ascent then shapes the regions so every
UAV's region mass hits its share while total delivered data is maximal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import compute_radio_field
from .errors import InfeasibleError
from .partition import (
    DualPotentials,
    Partition,
    ascend_dual,
    assign_by_min_cost,
    shifted_pass,
)

DEFAULT_MASS_TOL = 1e-3
DEFAULT_MAX_ITER = 100_000
FAIRNESS_TOL_SCALE = 1e-9
FAIRNESS_MAX_ITER = 10_000
FAIRNESS_DAMPING = 0.5


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
    n_users: int


def solve_fairness_system(uavs, alpha, n_users):
    """Solve T_i = tau_i - alpha_i (N w_i)^2, w_i = B_i T_i / sum_k B_k T_k.

    alpha is the control-time weight in seconds per user^2, one value for the
    fleet or one per UAV.  Fixed-point iteration damped by FAIRNESS_DAMPING,
    starting from T_i = tau_i, converged when the largest serving-time update
    falls below FAIRNESS_TOL_SCALE * max(tau).  Raises InfeasibleError when a
    budget cannot cover its control overhead (negative serving time) or the
    iteration does not settle.
    """
    if len(uavs) == 0:
        raise ValueError("need at least one UAV")
    if n_users < 1:
        raise ValueError("need at least one user")
    bw = np.array([u.bandwidth for u in uavs], dtype=float)
    tau = np.array([u.max_hover for u in uavs], dtype=float)
    if np.any(tau <= 0):
        raise ValueError("every hover budget must be positive")
    alpha = np.broadcast_to(alpha, len(uavs))
    tol = FAIRNESS_TOL_SCALE * tau.max()
    serve = tau.copy()
    for _ in range(FAIRNESS_MAX_ITER):
        pool = float(bw @ serve)
        if pool <= 0:
            raise InfeasibleError("serving-time pool collapsed to zero")
        shares = bw * serve / pool
        target = tau - alpha * (n_users * shares) ** 2
        updated = (1.0 - FAIRNESS_DAMPING) * serve + FAIRNESS_DAMPING * target
        if np.any(updated < 0):
            raise InfeasibleError("hover budget below control overhead")
        shift = np.abs(updated - serve).max()
        serve = updated
        if shift <= tol:
            break
    else:
        raise InfeasibleError("fairness split did not settle")
    pool = float(bw @ serve)
    shares = bw * serve / pool
    return FairnessSolution(serve, shares, pool / n_users, n_users)


def build_cost_field(grid, radio, fairness):
    """Per-UAV transport cost: minus the per-user data volume, +inf on the
    links below the SINR floor."""
    return np.where(
        radio.feasible_by_uav, -fairness.resource_per_user * radio.spectral_eff, np.inf
    )


def dual_value(grid, costs, psi, shares):
    """Concave dual objective psi . shares + integral of the shifted cell min."""
    return float(psi @ shares) + shifted_pass(grid, costs, psi)


@dataclass(frozen=True)
class Scenario1Result:
    partition: Partition
    fairness: FairnessSolution
    potentials: DualPotentials
    service: np.ndarray
    radio: object


def solve_scenario1(grid, uavs, params, alpha, n_users, mass_tol=DEFAULT_MASS_TOL,
                    max_iter=DEFAULT_MAX_ITER, radio=None):
    """Partition the area so each UAV's region mass matches its fair share.

    Ascends the concave dual psi . shares + integral of min_i (c_ic - psi_i)
    from psi = 0 with ascend_dual, whose first step is the spread of the
    costs, so its steps scale with the bandwidth and the hover budget; it
    stops when the mass-mismatch norm is at most mass_tol.  The potentials
    carry the ascent trace and the number of dual evaluations.  The returned
    service array is (n_uavs, n_cells) bits per user when served by each UAV.

    Raises InfeasibleError when more than mass_tol of the user mass has no
    link above the SINR floor, and ConvergenceError (with the trace attached)
    when the iteration budget runs out or no step that still changes the
    potentials improves the dual.
    """
    if radio is None:
        radio = compute_radio_field(grid, uavs, params)
    fairness = solve_fairness_system(uavs, alpha, n_users)
    costs = build_cost_field(grid, radio, fairness)
    covered = np.isfinite(costs).any(axis=0)
    uncovered_mass = float(grid.cell_mass[~covered].sum())
    if uncovered_mass > mass_tol:
        raise InfeasibleError(
            f"{uncovered_mass:.3e} of the user mass has no link above the SINR floor"
        )
    shares = fairness.target_masses
    potentials = ascend_dual(
        grid, costs, np.zeros(len(uavs)), term=lambda psi: psi @ shares,
        target=lambda psi, masses: shares, mass_tol=mass_tol, max_iter=max_iter,
    )
    part = assign_by_min_cost(grid, costs - potentials.psi[:, None], feasible=covered)
    service = fairness.resource_per_user * radio.spectral_eff
    return Scenario1Result(part, fairness, potentials, service, radio)


def service_field_for_partition(grid, radio, uavs, alpha, n_users, part):
    """Per-user service when each UAV splits its own budget over its own
    region, with no cross-region fairness coupling.

    Serving time is tau_i minus the control overhead for the region's users,
    floored at zero; each of the region's N * a_i users gets an equal share
    B_i T_i / (N a_i) of the bandwidth-time product.  Used to evaluate
    baseline partitions; for a partition whose masses equal the fairness
    shares this reduces to the solver's own service field.
    """
    alpha = np.broadcast_to(alpha, len(uavs))
    bw = np.array([u.bandwidth for u in uavs], dtype=float)
    tau = np.array([u.max_hover for u in uavs], dtype=float)
    a = part.masses
    serve = np.maximum(tau - alpha * (n_users * a) ** 2, 0.0)
    scale = np.divide(
        bw * serve, n_users * a, out=np.zeros(len(uavs)), where=a > 0
    )
    return scale[:, None] * radio.spectral_eff
