"""Bandwidth splitting, hover-time accounting, and the reassignment solver."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart import scenario2
from uavpart.channel import ChannelParams, RadioField, UavNode, compute_radio_field
from uavpart.config import ExperimentConfig
from uavpart.errors import InfeasibleError
from uavpart.grid import AreaGrid, truncated_gaussian, uniform_density
from uavpart.partition import (
    INFEASIBLE,
    Partition,
    ascend_dual,
    shifted_pass,
    weighted_voronoi,
)
from uavpart.scenario2 import (
    hover_time_equal_split,
    marginal_hover_cost,
    region_hover_report,
    solve_scenario2,
)

from oracles import brute_force_min_hover, optimal_bandwidth_split, region_masses

PARAMS = ChannelParams()


def manual_radio(eff, bandwidths, feasible=None):
    """RadioField stub with prescribed spectral efficiencies."""
    eff = np.asarray(eff, dtype=float)
    if feasible is None:
        feasible = np.ones_like(eff, dtype=bool)
    else:
        feasible = np.asarray(feasible, dtype=bool)
    sinr = 2.0**eff - 1.0
    return RadioField(
        power=sinr.copy(),
        sinr=sinr,
        spectral_eff=eff,
        feasible_by_uav=feasible,
        feasible=feasible.any(axis=0),
        bandwidths=np.asarray(bandwidths, dtype=float),
    )


def assigned(grid, assignment, n_uavs):
    return Partition(assignment, region_masses(grid, assignment, n_uavs))


def one_region_hover(grid, region, radio, uav_index, load_bits, alpha, n_users,
                     evaluate=region_hover_report):
    """One UAV's hover seconds for a region, read off a report of the
    partition where it serves only that region (the optimal split by default)."""
    part = assigned(grid, np.where(region, uav_index, INFEASIBLE), radio.n_uavs)
    report = evaluate(grid, part, radio, load_bits, alpha, n_users)
    return report.hover_times[uav_index]


def one_region_equal(*args):
    return one_region_hover(*args, evaluate=hover_time_equal_split)


def real_scene(nx=10, ny=10, bandwidths=(1e6, 1e6)):
    grid = uniform_density(1000.0, 1000.0, nx, ny)
    uavs = [
        UavNode(x=300.0, y=300.0, altitude=200.0, bandwidth=bandwidths[0]),
        UavNode(x=700.0, y=700.0, altitude=200.0, bandwidth=bandwidths[1]),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    return grid, uavs, radio


# bandwidth split


def test_split_known_values():
    shares, finish = optimal_bandwidth_split([1e6, 4e6], [2.0, 2.0], 1e6)
    assert np.allclose(shares, [2e5, 8e5], rtol=1e-12)
    assert finish == pytest.approx(2.5, rel=1e-12)


def test_split_single_user_gets_everything():
    shares, finish = optimal_bandwidth_split([3e7], [1.5], 2e6)
    assert shares[0] == pytest.approx(2e6)
    assert finish == pytest.approx(3e7 / (1.5 * 2e6), rel=1e-12)


def test_split_zero_demand():
    shares, finish = optimal_bandwidth_split([0.0, 0.0, 0.0], [1.0, 2.0, 3.0], 9e5)
    assert np.allclose(shares, 3e5)
    assert finish == 0.0


def test_split_grid_search_oracle():
    # sweeping the share of user 0 confirms the closed form is the minimizer
    u = np.array([2e6, 7e6])
    e = np.array([1.3, 3.1])
    b = 1e6
    best = np.inf
    for w in np.linspace(1e-3, 1.0 - 1e-3, 9999):
        finish = max(u[0] / (w * b * e[0]), u[1] / ((1.0 - w) * b * e[1]))
        best = min(best, finish)
    _, finish = optimal_bandwidth_split(u, e, b)
    assert finish <= best
    assert finish == pytest.approx(best, rel=1e-3)


@settings(max_examples=50, deadline=None)
@given(
    # loads are zero or macroscopic; near-denormal demands carry too few
    # significand bits for the common-finish identity to hold at 1e-9
    loads=st.lists(
        st.one_of(st.just(0.0), st.floats(1e3, 1e8)), min_size=1, max_size=8
    ),
    effs=st.lists(st.floats(0.1, 10.0), min_size=8, max_size=8),
    bandwidth=st.floats(1e5, 1e7),
)
def test_split_properties(loads, effs, bandwidth):
    u = np.array(loads)
    e = np.array(effs[: len(u)])
    shares, finish = optimal_bandwidth_split(u, e, bandwidth)
    assert shares.sum() == pytest.approx(bandwidth, rel=1e-9)
    assert np.all(shares >= 0)
    # everyone with demand finishes at the common time
    active = u > 0
    if active.any():
        per_user = u[active] / (shares[active] * e[active])
        assert np.allclose(per_user, finish, rtol=1e-9)
    # serial-service identity and dominance over the equal split
    assert finish == pytest.approx(float((u / e).sum()) / bandwidth, rel=1e-12)
    equal = float(np.max(u / (bandwidth / len(u) * e)))
    assert finish <= equal * (1 + 1e-12)


def test_split_dominance_strict_iff_ratios_differ():
    b = 1e6
    u = np.array([1e6, 1e6])
    same, _ = np.array([2.0, 2.0]), None
    _, f_opt = optimal_bandwidth_split(u, same, b)
    equal = float(np.max(u / (b / 2 * same)))
    assert f_opt == pytest.approx(equal, rel=1e-12)
    skew = np.array([2.0, 4.0])
    _, f_opt = optimal_bandwidth_split(u, skew, b)
    equal = float(np.max(u / (b / 2 * skew)))
    assert f_opt < equal * (1 - 1e-9)


def test_split_errors():
    with pytest.raises(InfeasibleError):
        optimal_bandwidth_split([1.0, 1.0], [1.0, 0.0], 1e6)
    with pytest.raises(ValueError):
        optimal_bandwidth_split([1.0, 1.0], [1.0], 1e6)
    with pytest.raises(ValueError):
        optimal_bandwidth_split([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        optimal_bandwidth_split([-1.0], [1.0], 1e6)


# hover time accounting


def test_hover_single_cell_oracle():
    grid = uniform_density(1000.0, 1000.0, 1, 1)
    radio = manual_radio([[2.0]], [1e6])
    load_bits = 1e8
    alpha = 0.01
    region = np.array([True])
    got = one_region_hover(grid, region, radio, 0, load_bits, alpha, 300)
    # 300 users, 1e8 bits each at 2 bit/s/Hz over 1 MHz, plus 0.01 * 300^2
    assert got == pytest.approx(15_000.0 + 900.0, rel=1e-12)


def test_hover_two_cell_oracle_and_equal_split():
    grid = uniform_density(1000.0, 500.0, 2, 1)
    radio = manual_radio([[2.0, 4.0]], [1e6])
    load_bits = 1e8
    alpha = 0.01
    region = np.array([True, True])
    opt = one_region_hover(grid, region, radio, 0, load_bits, alpha, 300)
    eq = one_region_equal(grid, region, radio, 0, load_bits, alpha, 300)
    assert opt == pytest.approx(300 * (5e7 * 0.5 + 2.5e7 * 0.5) / 1e6 + 900.0)
    assert eq == pytest.approx(300 * 5e7 / 1e6 + 900.0)
    assert opt < eq


def test_hover_empty_region():
    grid = uniform_density(1000.0, 1000.0, 2, 2)
    radio = manual_radio(np.full((1, 4), 3.0), [1e6])
    load_bits = 1e8
    alpha = 0.01
    empty = np.zeros(4, dtype=bool)
    assert one_region_hover(grid, empty, radio, 0, load_bits, alpha, 300) == 0.0
    assert one_region_equal(grid, empty, radio, 0, load_bits, alpha, 300) == 0.0


def test_hover_zero_load():
    grid = uniform_density(1000.0, 1000.0, 2, 2)
    radio = manual_radio(np.full((1, 4), 3.0), [1e6])
    load_bits = 0.0
    alpha = 0.01
    region = np.ones(4, dtype=bool)
    assert one_region_hover(grid, region, radio, 0, load_bits, alpha, 300) == pytest.approx(900.0)


def test_hover_infeasible_region_raises():
    grid = uniform_density(1000.0, 500.0, 2, 1)
    radio = manual_radio([[2.0, 4.0]], [1e6], feasible=[[True, False]])
    load_bits = 1e8
    alpha = 0.01
    with pytest.raises(InfeasibleError):
        one_region_hover(grid, np.array([True, True]), radio, 0, load_bits, alpha, 300)
    with pytest.raises(InfeasibleError):
        one_region_equal(grid, np.array([True, True]), radio, 0, load_bits, alpha, 300)


def test_report_matches_hover_time():
    # closed form: N * sum_region bits * mass / (B_i * eff) + alpha (N a_i)^2
    grid, uavs, radio = real_scene(bandwidths=(1e6, 2e6))
    load_bits = 1e8
    alpha = 0.01
    part = weighted_voronoi(grid, radio)
    report = region_hover_report(grid, part, radio, load_bits, alpha, 300)
    for i in range(2):
        cells = part.assignment == i
        seconds = (1e8 * grid.cell_mass[cells] / radio.spectral_eff[i, cells]).sum()
        expected = 300 * seconds / radio.bandwidths[i] + 0.01 * (300 * part.masses[i]) ** 2
        assert report.hover_times[i] == pytest.approx(expected, rel=1e-12)
    assert report.total == pytest.approx(report.hover_times.sum(), rel=1e-12)


def test_equal_split_dominated_on_real_field():
    grid, uavs, radio = real_scene()
    load_bits = 1e8
    alpha = 0.01
    part = weighted_voronoi(grid, radio)
    region = part.assignment == 0
    assert one_region_hover(grid, region, radio, 0, load_bits, alpha, 300) < (
        one_region_equal(grid, region, radio, 0, load_bits, alpha, 300)
    )


def test_marginal_cost_monotone_in_mass():
    grid, uavs, radio = real_scene()
    load_bits = 1e8
    alpha = 0.01
    low = marginal_hover_cost(radio, load_bits, alpha, [0.1, 0.1], 300)
    high = marginal_hover_cost(radio, load_bits, alpha, [0.6, 0.6], 300)
    feas = radio.feasible_by_uav
    assert np.all(high[feas] > low[feas])
    assert np.all(np.isinf(high[~feas])) if (~feas).any() else True
    # with no control term the cost does not depend on mass at all
    flat_a = marginal_hover_cost(radio, load_bits, 0.0, [0.1, 0.9], 300)
    flat_b = marginal_hover_cost(radio, load_bits, 0.0, [0.7, 0.2], 300)
    assert np.array_equal(flat_a, flat_b)


@pytest.mark.parametrize("alpha", [0.01, [0.0, 0.03, 0.002]])
def test_marginal_cost_matches_array_formula(alpha):
    # oracle: the cost as one array expression; the in-place buffer must
    # give the same bits, +inf on links below the floor
    rng = np.random.default_rng(4)
    eff = rng.uniform(0.01, 8.0, size=(3, 50))
    feasible = rng.random((3, 50)) < 0.7
    radio = manual_radio(eff, [1e6, 2e6, 5e5], feasible)
    masses = np.array([0.2, 0.5, 0.3])
    got = marginal_hover_cost(radio, 1e7, alpha, masses, 300)
    serve = 300 * 1e7 / (radio.bandwidths[:, None] * np.where(feasible, eff, 1.0))
    slope = 2.0 * np.broadcast_to(alpha, 3) * 300**2 * masses
    assert np.array_equal(got, np.where(feasible, serve + slope[:, None], np.inf))


# solver


def test_solver_zero_alpha_is_pure_rate_assignment():
    grid, uavs, radio = real_scene(bandwidths=(1e6, 2e6))
    load_bits = 1e8
    result = solve_scenario2(grid, radio, load_bits, 0.0, 300)
    serve = 300 * load_bits / (
        radio.bandwidths[:, None] * radio.spectral_eff
    )
    expected = np.where(
        radio.feasible,
        np.argmin(np.where(radio.feasible_by_uav, serve, np.inf), axis=0),
        INFEASIBLE,
    )
    assert np.array_equal(result.partition.assignment, expected)


def test_solver_starts_from_best_signal_masses_on_equal_bandwidths(monkeypatch):
    # least transmission time is max SINR when every UAV has the same band
    grid = truncated_gaussian(1000.0, 1000.0, 24, 18, 300.0, 600.0, 400.0, 300.0)
    uavs = [
        UavNode(x=200.0, y=300.0, altitude=200.0, power=0.5),
        UavNode(x=600.0, y=700.0, altitude=150.0, power=2.0),
        UavNode(x=800.0, y=200.0, altitude=250.0, power=1.0),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    starts = []

    def recording_ascent(grid, costs, psi, **kwargs):
        starts.append(psi)
        return ascend_dual(grid, costs, psi, **kwargs)

    monkeypatch.setattr(scenario2, "ascend_dual", recording_ascent)
    alpha, n_users = 0.02, 300
    solve_scenario2(grid, radio, 1e7, alpha, n_users)
    voronoi = weighted_voronoi(grid, radio).masses
    assert len(set(np.round(voronoi, 6))) == 3
    assert np.allclose(-starts[0] / (2.0 * alpha * n_users**2), voronoi, rtol=1e-12, atol=0)


def test_solver_single_uav():
    grid = uniform_density(1000.0, 1000.0, 6, 6)
    uavs = [UavNode(x=500.0, y=500.0, altitude=200.0)]
    radio = compute_radio_field(grid, uavs, PARAMS)
    load_bits = 1e7
    result = solve_scenario2(grid, radio, load_bits, 0.01, 300)
    assert np.all(result.partition.assignment == 0)
    assert result.partition.masses[0] == pytest.approx(1.0)
    assert result.duality_gap == pytest.approx(0.0, abs=1e-9 * result.report.total)


def test_solver_against_brute_force():
    grid = uniform_density(1000.0, 1000.0, 3, 3)
    uavs = [
        UavNode(x=300.0, y=300.0, altitude=200.0),
        UavNode(x=700.0, y=700.0, altitude=200.0),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    load_bits = 1e8
    alpha = 0.01
    exact = brute_force_min_hover(grid, radio, load_bits, alpha, 300)
    heur = solve_scenario2(grid, radio, load_bits, alpha, 300)
    assert heur.report.total >= exact.report.total * (1 - 1e-12)
    assert heur.report.total <= exact.report.total * 1.01


def climbs_from(grid, radio, load_bits, alpha, n_users, result):
    """Whether some psi + 2**k * grad, k in -80..30, that changes the final
    potentials raises the scenario-2 dual F above the last traced value."""
    costs = marginal_hover_cost(radio, load_bits, alpha, np.zeros(radio.n_uavs), n_users)
    k = 2.0 * alpha * n_users**2
    psi = result.potentials.psi
    grad = -psi / k - result.partition.masses
    for e in range(-80, 31):
        moved = psi + 2.0**e * grad
        if not np.array_equal(moved, psi):
            value = -0.5 * float(moved / k @ moved) + shifted_pass(grid, costs, moved)
            if value > result.potentials.f_trace[-1]:
                return True
    return False


def test_solver_symmetric_instance_ends_at_a_kink_on_brute_force():
    # the three cells on the diagonal tie, so the dual maximum sits at a kink
    # and the region masses cannot meet their priced masses on this grid
    grid = uniform_density(1000.0, 1000.0, 3, 3)
    uavs = [
        UavNode(x=300.0, y=300.0, altitude=200.0),
        UavNode(x=700.0, y=700.0, altitude=200.0),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    load_bits = 1e8
    alpha = 0.01
    exact = brute_force_min_hover(grid, radio, load_bits, alpha, 300)
    result = solve_scenario2(grid, radio, load_bits, alpha, 300)
    p = result.potentials
    assert p.grad_trace[-1] > ExperimentConfig.mass_tol  # ended at the kink
    assert not climbs_from(grid, radio, load_bits, alpha, 300, result)
    assert len(p.f_trace) - 1 <= 20
    assert result.report.total == pytest.approx(exact.report.total, rel=1e-9)


@pytest.mark.parametrize(
    "n, bandwidths",
    [(4, (1e6, 1e6)), (10, (1e6, 1e6)), (40, (1e6, 2e6))],
    ids=["4x4", "10x10", "40x40_unequal_bandwidth"],
)
def test_solver_ascent_trace_and_exit(n, bandwidths):
    grid, uavs, radio = real_scene(n, n, bandwidths)
    load_bits = 1e8
    result = solve_scenario2(grid, radio, load_bits, 0.01, 300)
    p = result.potentials
    assert len(p.f_trace) == len(p.grad_trace) == len(p.step_trace)
    assert p.step_trace[0] == 0.0 and np.all(p.step_trace[1:] > 0)
    assert np.all(np.diff(p.f_trace) > 0)
    # the mass criterion holds, or the ascent ended at a kink of the dual
    assert p.grad_trace[-1] <= ExperimentConfig.mass_tol or not climbs_from(
        grid, radio, load_bits, 0.01, 300, result)
    covered = float(grid.cell_mass[radio.feasible].sum())
    assert result.partition.masses.sum() == pytest.approx(covered, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.001, 0.01, 0.1])
def test_solver_duality_gap_is_certified(alpha):
    # D(l) = sum_c m_c min_i (s_ic + l_i) - sum_i l_i^2 / (4 alpha N^2),
    # evaluated here from the channel directly at l = -psi
    grid, uavs, radio = real_scene(24, 24, bandwidths=(1e6, 2e6))
    load_bits = 1e8
    n_users = 300
    result = solve_scenario2(grid, radio, load_bits, alpha, n_users)
    seconds = np.where(
        radio.feasible_by_uav,
        n_users * load_bits / (radio.bandwidths[:, None] * radio.spectral_eff),
        np.inf,
    )
    slopes = -result.potentials.psi
    best = (seconds + slopes[:, None]).min(axis=0)
    dual = float(best @ grid.cell_mass) - float(
        (slopes**2).sum() / (4.0 * alpha * n_users**2)
    )
    assert dual == pytest.approx(result.potentials.f_trace[-1], rel=1e-12)
    assert result.duality_gap >= 0.0
    assert result.duality_gap == pytest.approx(
        result.report.total - dual, rel=1e-6, abs=1e-9 * result.report.total
    )
    assert result.duality_gap <= 1e-5 * result.report.total


def test_per_uav_alpha():
    # one control weight per UAV: the report charges each UAV its own
    # alpha_i (N a_i)^2, and a scalar equals the same value repeated
    grid = uniform_density(1000.0, 1000.0, 3, 3)
    uavs = [
        UavNode(x=300.0, y=300.0, altitude=200.0),
        UavNode(x=700.0, y=700.0, altitude=200.0),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    alpha = np.array([0.01, 0.05])
    exact = brute_force_min_hover(grid, radio, 1e8, alpha, 300)
    result = solve_scenario2(grid, radio, 1e8, alpha, 300)
    masses = result.partition.masses
    assert np.allclose(result.report.control_times, alpha * (300 * masses) ** 2, rtol=1e-12)
    assert exact.report.total <= result.report.total <= exact.report.total * 1.01
    assert masses[1] < masses[0]  # the dearer UAV serves less
    same = solve_scenario2(grid, radio, 1e8, [0.01, 0.01], 300)
    scalar = solve_scenario2(grid, radio, 1e8, 0.01, 300)
    assert np.array_equal(same.partition.assignment, scalar.partition.assignment)
    assert same.report.total == scalar.report.total
    with pytest.raises(ValueError):
        solve_scenario2(grid, radio, 1e8, [0.01, 0.01, 0.01], 300)


def test_solver_unservable_cell_raises():
    grid = uniform_density(1000.0, 1000.0, 5, 5)
    uavs = [UavNode(x=500.0, y=500.0, altitude=200.0)]
    harsh = compute_radio_field(grid, uavs, ChannelParams(sinr_threshold=1e9))
    load_bits = 1e8
    with pytest.raises(InfeasibleError):
        solve_scenario2(grid, harsh, load_bits, 0.01, 300)


def test_solver_names_the_populated_cells_no_link_reaches():
    # the error counts the populated cells below every UAV's SINR floor and
    # names the first; empty cells below it stay unassigned instead
    base = uniform_density(1000.0, 1000.0, 6, 5)
    uavs = [UavNode(x=100.0, y=100.0, altitude=200.0),
            UavNode(x=200.0, y=900.0, altitude=200.0)]
    radio = compute_radio_field(base, uavs, ChannelParams(sinr_threshold=10.0))
    dead = np.flatnonzero(~radio.feasible)
    assert 5 < len(dead) < base.n_cells

    def emptied(cells):
        density = base.density.copy()
        density[cells] = 0.0
        return AreaGrid(base.width, base.height, base.nx, base.ny,
                        density / (density.sum() * base.cell_area))

    grid = emptied(dead[:5])
    first = dead[5]
    message = (f"{len(dead) - 5} populated cells have no finite transmission time, "
               f"first at ({grid.cell_x[first]:.0f} m, {grid.cell_y[first]:.0f} m)")
    with pytest.raises(InfeasibleError, match=f"^{re.escape(message)}$"):
        solve_scenario2(grid, radio, 1e8, 0.01, 300)
    result = solve_scenario2(emptied(dead), radio, 1e8, 0.01, 300)
    assert np.all(result.partition.assignment[dead] == INFEASIBLE)
    assert np.all(result.partition.assignment[radio.feasible] != INFEASIBLE)


# brute force


def test_brute_force_beats_any_manual_assignment():
    grid = uniform_density(1000.0, 1000.0, 2, 2)
    uavs = [
        UavNode(x=300.0, y=300.0, altitude=200.0),
        UavNode(x=700.0, y=700.0, altitude=200.0),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    load_bits = 1e8
    alpha = 0.01
    exact = brute_force_min_hover(grid, radio, load_bits, alpha, 300)
    rng = np.random.default_rng(3)
    for _ in range(10):
        part = assigned(grid, rng.integers(0, 2, size=4), 2)
        total = region_hover_report(grid, part, radio, load_bits, alpha, 300).total
        assert exact.report.total <= total * (1 + 1e-12)


def test_brute_force_limit():
    grid = uniform_density(1000.0, 1000.0, 6, 5)
    uavs = [
        UavNode(x=300.0, y=300.0, altitude=200.0),
        UavNode(x=700.0, y=700.0, altitude=200.0),
    ]
    radio = compute_radio_field(grid, uavs, PARAMS)
    load_bits = 1e8
    with pytest.raises(ValueError):
        brute_force_min_hover(grid, radio, load_bits, 0.01, 300)


def test_brute_force_marks_unpopulated_dead_cells():
    # tiny sigma underflows the far cells to exactly zero mass; a high SINR
    # floor then cuts them off, which is fine because they hold no users
    grid = truncated_gaussian(1000.0, 1000.0, 3, 3, 500 / 3, 500 / 3, 8.0, 8.0)
    uavs = [UavNode(x=500 / 3, y=500 / 3, altitude=200.0)]
    radio = compute_radio_field(grid, uavs, ChannelParams(sinr_threshold=1000.0))
    load_bits = 1e8
    alpha = 0.01
    result = brute_force_min_hover(grid, radio, load_bits, alpha, 300)
    assert result.partition.assignment[0] == 0
    assert np.all(result.partition.assignment[1:] == INFEASIBLE)
    assert result.partition.masses[0] == pytest.approx(1.0)
    seconds = 300 * 1e8 * grid.cell_mass[0] / (1e6 * radio.spectral_eff[0, 0])
    assert result.report.total == pytest.approx(seconds + 0.01 * 300.0**2, rel=1e-12)
