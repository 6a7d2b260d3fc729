"""Fairness system, concave dual, and the budgeted-service solver."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavpart.channel import ChannelParams, RadioField, UavNode, compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.errors import ConfigError, ConvergenceError, InfeasibleError
from uavpart.grid import AreaGrid, uniform_density
from uavpart.partition import (
    Partition,
    ascend_dual,
    assign_by_min_cost,
    weighted_voronoi,
)
from uavpart.scenario1 import (
    FairnessSolution,
    build_cost_field,
    dual_value,
    service_field_for_partition,
    solve_fairness_system,
    solve_scenario1,
)

from oracles import region_masses

PARAMS = ChannelParams()
BUDGET = 1800.0
HETERO_BUDGETS = [1800.0, 1200.0]


def claimed_masses(grid, costs, psi):
    """Region masses of the partition argmin_i (c_ic - psi_i)."""
    return assign_by_min_cost(grid, costs - psi[:, None]).masses


def fleet(positions, bandwidth=1e6):
    return [UavNode(x=x, y=y, altitude=200.0, power=0.5, bandwidth=bandwidth)
            for x, y in positions]


def two_uav_scene(nx=12, ny=12):
    grid = uniform_density(1000.0, 1000.0, nx, ny)
    uavs = fleet([(300.0, 400.0), (700.0, 600.0)])
    radio = compute_radio_field(grid, uavs, PARAMS)
    return grid, uavs, radio


def hetero_pair(nx, ny):
    # different bandwidths and budgets (HETERO_BUDGETS), so the ascent has real work to do
    grid = uniform_density(1000.0, 1000.0, nx, ny)
    uavs = [
        UavNode(x=300.0, y=400.0, altitude=200.0, bandwidth=1e6),
        UavNode(x=700.0, y=600.0, altitude=200.0, bandwidth=2e6),
    ]
    return grid, compute_radio_field(grid, uavs, PARAMS)


# fairness system


def test_identical_uavs_closed_form():
    # equal budgets and bandwidths: shares 1/M, T = tau - alpha (N/M)^2
    sol = solve_fairness_system(np.full(5, 1e6), BUDGET, 0.01, 300)
    assert np.allclose(sol.target_masses, 0.2, atol=1e-9)
    assert np.allclose(sol.serve_times, 1800.0 - 0.01 * 60.0**2, atol=1e-5)
    assert sol.resource_per_user == pytest.approx(5e6 * 1764.0 / 300.0, rel=1e-8)


def test_zero_alpha_shares():
    sol = solve_fairness_system([1e6, 3e6], BUDGET, 0.0, 300)
    assert np.allclose(sol.serve_times, 1800.0)
    assert np.allclose(sol.target_masses, [0.25, 0.75], atol=1e-12)


def test_two_uav_against_bisection_oracle():
    # independent scalar root finder on the share of UAV 0
    b1, b2, tau, alpha, n = 1e6, 2e6, 1800.0, 0.01, 300

    def mismatch(w):
        t1 = tau - alpha * (n * w) ** 2
        t2 = tau - alpha * (n * (1.0 - w)) ** 2
        return w * (b1 * t1 + b2 * t2) - b1 * t1

    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mismatch(mid) > 0:
            hi = mid
        else:
            lo = mid
    w_oracle = 0.5 * (lo + hi)

    sol = solve_fairness_system([b1, b2], tau, alpha, n)
    assert sol.target_masses[0] == pytest.approx(w_oracle, abs=1e-7)
    assert sol.target_masses.sum() == pytest.approx(1.0, abs=1e-12)


def assert_fair_split(sol, tau, bw, alpha, n):
    # the solution back-substitutes into both coupled relations
    back = tau - alpha * (n * sol.target_masses) ** 2
    assert np.all(np.abs(sol.serve_times - back) <= 1e-12 * tau.max())
    pool = float(bw @ sol.serve_times)
    assert np.allclose(sol.target_masses, bw * sol.serve_times / pool, rtol=1e-12, atol=0)
    assert sol.resource_per_user == pytest.approx(pool / n, rel=1e-12)


BUDGETS = st.floats(360.0, 3600.0)
BANDWIDTHS = st.one_of(st.sampled_from([1e6, 2e6, 5e6]), st.floats(0.2e6, 5e6))


@settings(max_examples=60, deadline=None)
@given(
    data=st.integers(2, 7).flatmap(lambda m: st.tuples(
        st.lists(BUDGETS, min_size=m, max_size=m),
        st.lists(BANDWIDTHS, min_size=m, max_size=m),
        st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m),
        st.lists(st.booleans(), min_size=m, max_size=m),
    )),
    headroom=st.floats(1.001, 100.0),
)
def test_fairness_residuals(data, headroom):
    # per-UAV alpha puts the fleet's capacity sum_i sqrt(tau_i / alpha_i) at
    # headroom * N, down to 0.1% above it, unless a UAV has alpha = 0
    budgets, bandwidths, weights, free = data
    tau, bw, w = np.array(budgets), np.array(bandwidths), np.array(weights)
    alpha = tau / (headroom * 300 * w / w.sum()) ** 2
    alpha[np.array(free)] = 0.0
    sol = solve_fairness_system(bw, tau, alpha, 300)
    assert_fair_split(sol, tau, bw, alpha, 300)


@settings(max_examples=100, deadline=None)
@given(
    data=st.integers(1, 7).flatmap(lambda m: st.tuples(
        st.lists(BUDGETS, min_size=m, max_size=m),
        st.lists(BANDWIDTHS, min_size=m, max_size=m),
        st.lists(st.floats(1e-3, 30.0), min_size=m, max_size=m),
    )),
)
def test_fairness_infeasible_exactly_below_capacity(data):
    budgets, bandwidths, alpha = map(np.array, data)
    capacity = np.sqrt(budgets / alpha).sum()
    assume(abs(capacity / 300 - 1.0) > 1e-9)
    if capacity <= 300:
        with pytest.raises(InfeasibleError, match="capacity"):
            solve_fairness_system(bandwidths, budgets, alpha, 300)
    else:
        assert_fair_split(solve_fairness_system(bandwidths, budgets, alpha, 300), budgets,
                          bandwidths, alpha, 300)


def test_fairness_uneven_fleet_near_capacity():
    # capacity 384 users against N = 300: most of every budget goes to control
    tau, bw = np.array([1800.0, 600.0, 1800.0, 400.0, 1800.0]), np.array([1, 2, 1, 5, 1]) * 1e6
    sol = solve_fairness_system(bw, tau, 0.2, 300)
    assert_fair_split(sol, tau, bw, 0.2, 300)
    assert np.allclose(sol.serve_times, [754.278, 225.649, 754.278, 83.052, 754.278], atol=1e-3)


def test_fairness_budget_below_control_raises():
    # g(300 users) = 900 s >> 10 s
    with pytest.raises(InfeasibleError, match="capacity"):
        solve_fairness_system([1e6], 10.0, 0.01, 300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget, alpha", [(1e303, 0.01), (1.7e308, 0.01), (2e301, 2e301 / 14400)])
def test_fairness_pool_that_overflows_is_a_config_error(budget, alpha):
    # B . tau (the first two) or 4 alpha tau (the third) overflowed to inf,
    # the shares came out NaN and the ascent that read them never ended;
    # tau / alpha overflows too at 1.7e308.  An infinite control term
    # leaves no serving time at any pool, so the pool ends at 0
    pool = "0" if alpha > 1 else "inf"
    with pytest.raises(ConfigError, match=rf"^the fairness split's pool sum_i B_i T_i = {pool} "
                                          r"is not a normal float$"):
        solve_fairness_system([1e6] * 5, budget, alpha, 300)


@pytest.mark.filterwarnings("error")
def test_fairness_split_whose_2_tau_overflows_is_a_config_error():
    # B . tau = 8.5e302 and 4 alpha tau = 6.8e306 are finite, but 2 tau,
    # the serving time's numerator, overflows: every share was inf or NaN
    # and the ascent that read them never ended
    with pytest.raises(ConfigError, match=r"^the fairness split's pool sum_i B_i T_i = inf "
                                          r"is not a normal float$"):
        solve_fairness_system([1e-6] * 5, 1.7e308, 0.01, 300)


@pytest.mark.filterwarnings("error")
def test_fairness_capacity_is_checked_before_the_pool():
    # both infeasible (capacity 5 sqrt(1e-306 / 1e-300) < 1 user) and
    # subnormal (B . tau = 5e-312): the capacity rule comes first
    with pytest.raises(InfeasibleError, match="capacity"):
        solve_fairness_system([1e-6] * 5, 1e-306, 1e-300, 300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget, bandwidth", [(1e-190, 1e-110), (1e-160, 1e-140)])
def test_fairness_split_without_control_time_serves_every_budget(budget, bandwidth):
    # at alpha = 0 N B_i / P squared overflowed on a small pool, times a
    # load of 0 it made every serving time NaN, and the ascent that read the
    # NaN shares never ended; a UAV with no control time serves its budget
    sol = solve_fairness_system([bandwidth] * 5, budget, 0.0, 300)
    assert sol.serve_times.tolist() == [budget] * 5
    assert np.allclose(sol.target_masses, 0.2, rtol=1e-15)
    assert sol.resource_per_user > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("budget, bandwidth", [(1e-200, 1e-110), (1e-300, 1e-300)])
def test_fairness_pool_below_the_normal_floats_is_a_config_error(budget, bandwidth):
    # B . tau = 5e-310 (subnormal) and 0 (underflowed), where 0 / 0 makes
    # the pool NaN
    pool = "5e-310" if budget == 1e-200 else "nan"
    with pytest.raises(ConfigError, match=rf"^the fairness split's pool sum_i B_i T_i = {pool} "
                                          r"is not a normal float$"):
        solve_fairness_system([bandwidth] * 5, budget, 0.0, 300)


def test_fairness_validation():
    with pytest.raises(ValueError, match="need at least one UAV"):
        solve_fairness_system([], BUDGET, 0.01, 300)
    with pytest.raises(ValueError, match="need at least one user"):
        solve_fairness_system([1e6], BUDGET, 0.01, 0)
    with pytest.raises(ValueError, match="got 2 values of control weight alpha for 1 UAVs"):
        solve_fairness_system([1e6], BUDGET, [0.01, 0.01], 300)
    with pytest.raises(ValueError, match="got 2 values of hover budget for 3 UAVs"):
        solve_fairness_system([1e6] * 3, [BUDGET, BUDGET], 0.01, 300)
    trio = [1e6, 1e6, 1e6]
    for bad in (-0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="every control weight alpha must be finite and "
                                             "non-negative"):
            solve_fairness_system(trio, BUDGET, [bad, 0.01, 0.01], 300)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="every hover budget must be positive"):
            solve_fairness_system(trio, [BUDGET, bad, BUDGET], 0.01, 300)


# cost field and dual


def test_cost_field_threshold_boundary():
    grid, uavs, radio = two_uav_scene()
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    pick = float(radio.sinr[1, 17])
    at = compute_radio_field(grid, uavs, ChannelParams(sinr_threshold=pick))
    costs = build_cost_field(at, fair)
    assert np.isfinite(costs[1, 17])  # boundary inclusive
    above = compute_radio_field(grid, uavs, ChannelParams(sinr_threshold=pick * (1 + 1e-9)))
    assert np.isinf(build_cost_field(above, fair)[1, 17])
    finite = np.isfinite(costs)
    assert np.array_equal(finite, at.feasible_by_uav)
    assert np.allclose(
        costs[finite],
        (-fair.resource_per_user * radio.spectral_eff)[finite],
        rtol=1e-12,
    )


def test_cost_field_scales_with_resource():
    grid, uavs, radio = two_uav_scene()
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    doubled = FairnessSolution(
        serve_times=fair.serve_times,
        target_masses=fair.target_masses,
        resource_per_user=2.0 * fair.resource_per_user,
    )
    c1 = build_cost_field(radio, fair)
    c2 = build_cost_field(radio, doubled)
    finite = np.isfinite(c1)
    assert np.allclose(c2[finite], 2.0 * c1[finite], rtol=1e-12)


def test_dual_constant_for_single_uav():
    grid = uniform_density(1000.0, 1000.0, 8, 8)
    uavs = fleet([(500.0, 500.0)])
    radio = compute_radio_field(grid, uavs, PARAMS)
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    costs = build_cost_field(radio, fair)
    shares = np.array([1.0])
    f0 = dual_value(grid, costs, np.zeros(1), shares)
    for psi in (-3e7, 1.0, 2.5e7):
        assert dual_value(grid, costs, np.array([psi]), shares) == pytest.approx(
            f0, rel=1e-12
        )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), const=st.floats(-1e7, 1e7))
def test_dual_gauge_shift(seed, const):
    # adding a constant to every potential changes nothing
    grid, uavs, radio = two_uav_scene(8, 8)
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    costs = build_cost_field(radio, fair)
    rng = np.random.default_rng(seed)
    psi = rng.normal(scale=fair.resource_per_user, size=2)
    shares = fair.target_masses
    f1 = dual_value(grid, costs, psi, shares)
    f2 = dual_value(grid, costs, psi + const, shares)
    assert f2 == pytest.approx(f1, rel=1e-9)
    assert np.allclose(
        shares - claimed_masses(grid, costs, psi),
        shares - claimed_masses(grid, costs, psi + const),
        atol=1e-12,
    )


def test_gradient_dominant_potential():
    grid, uavs, radio = two_uav_scene()
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    costs = build_cost_field(radio, fair)
    shares = fair.target_masses
    big = np.array([1e12, 0.0])  # UAV 0 wins every cell it can serve
    grad = shares - claimed_masses(grid, costs, big)
    feas0 = np.isfinite(costs[0])
    only1 = ~feas0 & np.isfinite(costs[1])
    assert grad[0] == pytest.approx(
        shares[0] - grid.cell_mass[feas0].sum(), abs=1e-12
    )
    assert grad[1] == pytest.approx(
        shares[1] - grid.cell_mass[only1].sum(), abs=1e-12
    )


def test_gradient_components_sum_to_uncovered():
    grid, uavs, radio = two_uav_scene()
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    costs = build_cost_field(radio, fair)
    grad = fair.target_masses - claimed_masses(grid, costs, np.zeros(2))
    covered = np.isfinite(costs).any(axis=0)
    uncovered = float(grid.cell_mass[~covered].sum())
    assert grad.sum() == pytest.approx(uncovered, abs=1e-12)


def test_dual_concavity_midpoints():
    grid, uavs, radio = two_uav_scene(8, 8)
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    costs = build_cost_field(radio, fair)
    shares = fair.target_masses
    rng = np.random.default_rng(11)
    scale = fair.resource_per_user
    for _ in range(25):
        p1 = rng.normal(scale=scale, size=2)
        p2 = rng.normal(scale=scale, size=2)
        mid = dual_value(grid, costs, 0.5 * (p1 + p2), shares)
        chord = 0.5 * (
            dual_value(grid, costs, p1, shares) + dual_value(grid, costs, p2, shares)
        )
        assert mid >= chord - 1e-9 * max(abs(mid), abs(chord), 1.0)


def test_gradient_chords_bracket():
    # concavity: forward chord <= grad . v <= backward chord, with steps
    # large enough to cross cell boundaries
    grid, uavs, radio = two_uav_scene()
    fair = solve_fairness_system(radio.bandwidths, BUDGET, 0.01, 300)
    costs = build_cost_field(radio, fair)
    shares = fair.target_masses
    rng = np.random.default_rng(5)
    scale = fair.resource_per_user
    for _ in range(20):
        psi = rng.normal(scale=scale, size=2)
        v = rng.normal(size=2)
        h = 0.3 * scale
        f0 = dual_value(grid, costs, psi, shares)
        fwd = (dual_value(grid, costs, psi + h * v, shares) - f0) / h
        bwd = (f0 - dual_value(grid, costs, psi - h * v, shares)) / h
        g_dot_v = float((shares - claimed_masses(grid, costs, psi)) @ v)
        slack = 1e-9 * max(abs(f0), 1.0) / h
        assert fwd <= g_dot_v + slack
        assert g_dot_v <= bwd + slack


# full solver


def test_solver_symmetric_quadrants():
    grid = uniform_density(1000.0, 1000.0, 16, 16)
    uavs = fleet([(250.0, 250.0), (750.0, 250.0), (250.0, 750.0), (750.0, 750.0)])
    result = solve_scenario1(grid, compute_radio_field(grid, uavs, PARAMS), BUDGET, 0.01, 300)
    assert np.allclose(result.partition.masses, 0.25, atol=1e-3)
    assert np.all(np.diff(result.potentials.f_trace) > 0)
    assert result.potentials.grad_trace[-1] <= 1e-3


def test_solver_four_cell_enumeration():
    # 2x2 grid, two identical UAVs crowded into one corner: the min-cost
    # start is a 1-3 split, so the ascent has to rebalance, and the result
    # must be the cheapest of the six balanced 2-2 splits, exactly
    grid = uniform_density(1000.0, 1000.0, 2, 2)
    uavs = fleet([(200.0, 220.0), (360.0, 340.0)])
    radio = compute_radio_field(grid, uavs, PARAMS)
    result = solve_scenario1(grid, radio, BUDGET, 0.01, 300)
    assert len(result.potentials.f_trace) > 1  # the start was unbalanced
    fair = result.fairness
    assert np.allclose(fair.target_masses, 0.5, atol=1e-9)
    costs = build_cost_field(radio, fair)
    totals = []
    for cells0 in itertools.combinations(range(4), 2):
        assignment = np.ones(4, dtype=int)
        assignment[list(cells0)] = 0
        totals.append(
            float(costs[assignment, np.arange(4)] @ grid.cell_mass)
        )
    got = float(costs[result.partition.assignment, np.arange(4)] @ grid.cell_mass)
    assert np.count_nonzero(result.partition.assignment == 0) == 2
    assert got == pytest.approx(min(totals), rel=1e-12)


def test_solver_matches_share_targets():
    # cell mass is 2.5e-3 at 20x20, so ask for a tolerance the grid can hold
    grid, radio = hetero_pair(20, 20)
    result = solve_scenario1(grid, radio, HETERO_BUDGETS, 0.01, 300, mass_tol=5e-3)
    residual = np.abs(result.partition.masses - result.fairness.target_masses)
    assert residual.max() <= 5e-3


def test_solver_infeasible_when_uncovered():
    grid, uavs, _ = two_uav_scene()
    harsh = compute_radio_field(grid, uavs, ChannelParams(sinr_threshold=1e9))
    with pytest.raises(InfeasibleError):
        solve_scenario1(grid, harsh, BUDGET, 0.01, 300)


def test_solver_shares_that_no_partition_meets_are_infeasible():
    # UAV 1's only link reaches the one empty cell, and UAV 0's reach the
    # rest: UAV 1's fair share of half the user mass cannot be met, and the
    # dual is unbounded along psi_1; its climb stops at the first trial that
    # is not finite, with no RuntimeWarning on the way
    density = np.full(16, 1.0 / (15 * 250.0**2))
    density[0] = 0.0
    grid = AreaGrid(1000.0, 1000.0, 4, 4, density)
    usable = np.ones((2, 16), dtype=bool)
    usable[1, 1:] = False
    radio = RadioField(spectral_eff=np.ones((2, 16)), feasible_by_uav=usable,
                       feasible=usable.any(axis=0), bandwidths=np.full(2, 1e6))
    with pytest.raises(InfeasibleError) as err:
        solve_scenario1(grid, radio, BUDGET, 0.01, 300)
    assert str(err.value) == ("no partition meets the shares: the UAV set {1} needs 0.5 of the "
                              "user mass, and its links reach 0")


def test_solver_iteration_budget():
    # a zero-iteration budget cannot balance an unbalanced start
    grid, radio = hetero_pair(20, 20)
    with pytest.raises(ConvergenceError) as err:
        solve_scenario1(grid, radio, HETERO_BUDGETS, 0.01, 300, max_iter=0)
    assert err.value.trace is not None
    f_trace, grad_trace, step_trace = err.value.trace
    assert len(f_trace) == len(grad_trace) == len(step_trace) == 1


def test_trace_shapes_and_steps():
    grid, radio = hetero_pair(16, 16)
    result = solve_scenario1(grid, radio, HETERO_BUDGETS, 0.01, 300, mass_tol=5e-3)
    p = result.potentials
    assert len(p.f_trace) == len(p.grad_trace) == len(p.step_trace) > 1
    assert p.step_trace[0] == 0.0
    assert np.all(p.step_trace[1:] > 0)
    assert np.all(np.diff(p.f_trace) > 0)
    # the first iterate evaluates its own point, and every step at least one trial
    assert p.evals >= 1 + (len(p.f_trace) - 1)


def test_default_scene_needs_few_evaluations():
    cfg = ExperimentConfig()
    grid, uavs = build_grid(cfg), build_uavs(cfg)
    radio = compute_radio_field(grid, uavs, build_channel(cfg))
    result = solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users,
                             mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter)
    residual = np.abs(result.partition.masses - result.fairness.target_masses).max()
    assert residual <= cfg.mass_tol
    assert result.potentials.evals <= 4  # 3 Newton steps; 20 by the step search alone


@settings(max_examples=20, deadline=None)
@given(k=st.integers(-60, 60))
def test_ascent_is_free_of_cost_units(k):
    # scaling the costs by 2**k is exact, so the ascent must take the same
    # steps in the new units: psi scales by 2**k and nothing else moves
    grid, radio = hetero_pair(16, 16)
    fair = solve_fairness_system(radio.bandwidths, HETERO_BUDGETS, 0.01, 300)
    costs = build_cost_field(radio, fair)
    shares = fair.target_masses

    def ascend(c):
        return ascend_dual(grid, c, np.zeros(2), shares, np.full(2, np.inf), 5e-3, 1000)

    base, scaled = ascend(costs), ascend(costs * 2.0**k)
    assert np.array_equal(scaled.psi, base.psi * 2.0**k)
    assert np.array_equal(scaled.grad_trace, base.grad_trace)
    assert scaled.evals == base.evals


def test_service_field_consistency_at_solution():
    # with masses on target, the per-partition service matches the solver's
    grid, uavs, radio = two_uav_scene(24, 24)
    alpha = 0.01
    result = solve_scenario1(grid, radio, BUDGET, alpha, 300, mass_tol=5e-3)
    field = service_field_for_partition(grid, result.partition, radio, BUDGET, alpha, 300)
    cells = np.flatnonzero(result.partition.assignment >= 0)
    ratio = field[cells] / result.service[cells]
    assert np.all(np.abs(ratio - 1.0) <= 0.02)


def test_service_field_zero_mass_region():
    # UAV 1 serves only an empty cell, so its region has zero mass
    density = np.full(144, 1.0 / (143 * (1000.0 / 12) ** 2))
    density[0] = 0.0
    grid = AreaGrid(1000.0, 1000.0, 12, 12, density)
    uavs = fleet([(300.0, 400.0), (700.0, 600.0)])
    radio = compute_radio_field(grid, uavs, PARAMS)
    alpha = 0.01
    assignment = (np.arange(grid.n_cells) == 0).astype(int)
    part = Partition(assignment, region_masses(grid, assignment, 2))
    field = service_field_for_partition(grid, part, radio, BUDGET, alpha, 300)
    assert np.all(field[assignment == 1] == 0.0)
    assert np.all(field[assignment == 0] > 0.0)


def test_per_uav_inputs_must_match_radio_field():
    # budgets or weights for another fleet size than the radio field's are
    # named, not broadcast
    grid, _, radio = two_uav_scene()
    part = weighted_voronoi(grid, radio)
    with pytest.raises(ValueError, match="got 3 values of hover budget for 2 UAVs"):
        solve_scenario1(grid, radio, [BUDGET] * 3, 0.01, 300)
    with pytest.raises(ValueError, match="got 3 values of control weight alpha for 2 UAVs"):
        solve_scenario1(grid, radio, BUDGET, [0.01] * 3, 300)
    with pytest.raises(ValueError, match="got 0 values of hover budget for 2 UAVs"):
        service_field_for_partition(grid, part, radio, [], 0.01, 300)
    with pytest.raises(ValueError, match="got 5 values of control weight alpha for 2 UAVs"):
        service_field_for_partition(grid, part, radio, BUDGET, [0.01] * 5, 300)


@pytest.mark.parametrize("beta, floor_db", [(0.0, 20.0), (1.0, -5.0)])
def test_cost_field_is_the_masked_product(beta, floor_db):
    # the in-place field is bit for bit np.where(usable, -rpu * eff, +inf)
    cfg = ExperimentConfig(nx=30, ny=20, n_uavs=4, beta=beta, sinr_threshold_db=floor_db)
    radio = compute_radio_field(build_grid(cfg), build_uavs(cfg), build_channel(cfg))
    fair = FairnessSolution(np.ones(4), np.full(4, 0.25), 1.7e6)
    want = np.where(radio.feasible_by_uav, -fair.resource_per_user * radio.spectral_eff, np.inf)
    assert 0.2 < radio.feasible_by_uav.mean() < 0.9
    assert np.array_equal(build_cost_field(radio, fair), want)
