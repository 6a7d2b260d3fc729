"""End-to-end acceptance checks.

Each test prints one line, `criterion <n> PASS/FAIL: <detail>`, so a plain
`pytest tests/test_acceptance.py -v -s` doubles as the acceptance report.
Shared scenes are solved once per module; all solvers are deterministic.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from uavpart.channel import ChannelParams, UavNode, compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.grid import uniform_density
from uavpart.metrics import (
    jain_index,
    sample_users,
    service_per_user,
    total_data_service,
)
from uavpart.partition import assign_by_min_cost, weighted_voronoi
from uavpart.scenario1 import (
    build_cost_field,
    dual_value,
    service_field_for_partition,
    solve_fairness_system,
    solve_scenario1,
)
from uavpart.scenario2 import (
    hover_time_equal_split,
    region_hover_report,
    solve_scenario2,
)

from oracles import brute_force_min_hover, optimal_bandwidth_split

BASE = ExperimentConfig()


def check(label, ok, detail):
    print(f"criterion {label} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def default_scene():
    grid = build_grid(BASE)
    uavs = build_uavs(BASE)
    radio = compute_radio_field(grid, uavs, build_channel(BASE))
    return grid, uavs, radio, BASE.load_bits


@pytest.fixture(scope="module")
def s1_default(default_scene):
    grid, uavs, radio, _ = default_scene
    start = time.time()
    result = solve_scenario1(
        grid, uavs, radio, BASE.alpha, BASE.n_users,
        mass_tol=BASE.mass_tol, max_iter=BASE.max_ascent_iter,
    )
    return result, time.time() - start


@pytest.fixture(scope="module")
def midpoint_scene():
    cfg = replace(BASE, nx=100, ny=100)
    grid = build_grid(cfg)
    uavs = build_uavs(cfg)
    radio = compute_radio_field(grid, uavs, build_channel(cfg))
    fair = solve_fairness_system(uavs, cfg.alpha, cfg.n_users)
    costs = build_cost_field(radio, fair)
    return grid, costs, fair


@pytest.fixture(scope="module")
def s2_beta_totals(default_scene):
    grid, uavs, radio, load_bits = default_scene
    totals = {}
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        r = radio if beta == BASE.beta else compute_radio_field(
            grid, uavs, build_channel(replace(BASE, beta=beta)))
        result = solve_scenario2(grid, r, load_bits, BASE.alpha, BASE.n_users)
        totals[beta] = result.report.total
    return totals


@pytest.fixture(scope="module")
def s1_beta_service(default_scene):
    grid, uavs, radio, _ = default_scene
    service = {}
    for beta in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
        r = radio if beta == BASE.beta else compute_radio_field(
            grid, uavs, build_channel(replace(BASE, beta=beta)))
        result = solve_scenario1(
            grid, uavs, r, BASE.alpha, BASE.n_users,
            mass_tol=BASE.mass_tol, max_iter=BASE.max_ascent_iter,
        )
        service[beta] = total_data_service(grid, result.service, BASE.n_users)
    return service


def test_dual_midpoint_concavity(midpoint_scene):
    grid, costs, fair = midpoint_scene
    start = time.time()
    shares = fair.target_masses
    rng = np.random.default_rng(0)
    scale = fair.resource_per_user
    worst = 0.0
    for _ in range(200):
        p1 = rng.normal(scale=scale, size=5)
        p2 = rng.normal(scale=scale, size=5)
        f1 = dual_value(grid, costs, p1, shares)
        f2 = dual_value(grid, costs, p2, shares)
        mid = dual_value(grid, costs, 0.5 * (p1 + p2), shares)
        slack = 1e-9 * max(abs(f1), abs(f2), 1.0)
        worst = max(worst, 0.5 * (f1 + f2) - mid)
        assert mid >= 0.5 * (f1 + f2) - slack
    elapsed = time.time() - start
    check(
        1,
        elapsed < 30.0,
        f"200 midpoint tests concave (worst chord excess {worst:.3e}), {elapsed:.1f} s",
    )


def test_dual_gauge_invariance(midpoint_scene):
    grid, costs, fair = midpoint_scene
    shares = fair.target_masses
    covered = np.isfinite(costs).any(axis=0)
    rng = np.random.default_rng(1)
    scale = fair.resource_per_user
    worst = 0.0
    for _ in range(50):
        psi = rng.normal(scale=scale, size=5)
        const = rng.normal(scale=scale)
        f1 = dual_value(grid, costs, psi, shares)
        f2 = dual_value(grid, costs, psi + const, shares)
        rel = abs(f2 - f1) / max(abs(f1), 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-9
        a = assign_by_min_cost(grid, costs - psi[:, None])
        b = assign_by_min_cost(grid, costs - (psi + const)[:, None])
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.assignment >= 0, covered)
    check(2, True, f"50 constant shifts change nothing (worst rel {worst:.2e})")


def test_share_constraint_satisfaction(s1_default):
    result, elapsed = s1_default
    residual = float(
        np.abs(result.partition.masses - result.fairness.target_masses).max()
    )
    monotone = bool(np.all(np.diff(result.potentials.f_trace) > 0))
    ok = residual <= 1e-3 and monotone and elapsed < 120.0
    check(
        3,
        ok,
        f"mass residual {residual:.2e} <= 1e-3, ascent monotone over "
        f"{len(result.potentials.f_trace) - 1} iterations, {elapsed:.1f} s",
    )


def test_four_cell_exact_optimum():
    grid = uniform_density(1000.0, 1000.0, 2, 2)
    uavs = [
        UavNode(x=200.0, y=220.0, altitude=200.0, bandwidth=1e6, max_hover=1800.0),
        UavNode(x=360.0, y=340.0, altitude=200.0, bandwidth=1e6, max_hover=1800.0),
    ]
    radio = compute_radio_field(grid, uavs, ChannelParams())
    result = solve_scenario1(grid, uavs, radio, 0.01, 300)
    costs = build_cost_field(radio, result.fairness)
    totals = []
    for cells0 in itertools.combinations(range(4), 2):
        assignment = np.ones(4, dtype=int)
        assignment[list(cells0)] = 0
        totals.append(float(costs[assignment, np.arange(4)] @ grid.cell_mass))
    got = float(costs[result.partition.assignment, np.arange(4)] @ grid.cell_mass)
    balanced = bool(np.allclose(result.partition.masses, 0.5, atol=1e-12))
    ok = balanced and got == min(totals)
    check(
        4,
        ok,
        f"solver cost {got:.6e} equals the best of 6 balanced splits exactly",
    )


def test_split_identities_random():
    rng = np.random.default_rng(5)
    checked_equal = 0
    for k in range(1000):
        n = int(rng.integers(1, 9))
        if k % 5 == 0:
            # all load/rate ratios identical: both splits must coincide
            e = rng.uniform(0.1, 10.0, size=n)
            u = rng.uniform(1e5, 1e8) * e
        else:
            u = rng.uniform(0.0, 1e8, size=n)
            e = rng.uniform(0.1, 10.0, size=n)
        b = rng.uniform(2e5, 2e7)
        _, finish = optimal_bandwidth_split(u, e, b)
        serial = float((u / e).sum()) / b
        assert abs(finish - serial) <= 1e-12 * max(serial, 1e-300)
        equal_finish = float((u / (b / n * e)).max())
        assert finish <= equal_finish * (1 + 1e-12)
        ratios = u / e
        spread = ratios.max() - ratios.mean()
        if spread <= 1e-9 * max(ratios.max(), 1e-300):
            assert abs(finish - equal_finish) <= 1e-12 * max(equal_finish, 1e-300)
            checked_equal += 1
        elif n > 1:
            assert finish < equal_finish
    check(
        5,
        checked_equal >= 100,
        f"1000 instances: serial identity, dominance, equality on "
        f"{checked_equal} equal-ratio instances",
    )


def test_small_instances_match_brute_force():
    params = ChannelParams()
    grid = uniform_density(1000.0, 1000.0, 3, 3)
    load_bits = 1e8
    alpha = 0.01
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(20):
        xs = rng.uniform(300.0, 700.0, size=4)
        uavs = [
            UavNode(x=xs[0], y=xs[1], altitude=200.0),
            UavNode(x=xs[2], y=xs[3], altitude=200.0),
        ]
        radio = compute_radio_field(grid, uavs, params)
        assert radio.feasible_by_uav.all()  # full 2^9 search space
        exact = brute_force_min_hover(grid, radio, load_bits, alpha, 300)
        heur = solve_scenario2(grid, radio, load_bits, alpha, 300)
        rel = heur.report.total / exact.report.total - 1.0
        worst = max(worst, rel)
        assert rel <= 0.01
    elapsed = time.time() - start
    check(
        6,
        elapsed < 10.0,
        f"20 random 3x3 instances within 1% of brute force "
        f"(worst {worst:.2%}), {elapsed:.1f} s",
    )


def test_zero_alpha_matches_rate_diagram(default_scene):
    grid, _, radio, load_bits = default_scene
    result = solve_scenario2(grid, radio, load_bits, 0.0, BASE.n_users)
    serve = BASE.n_users * load_bits / (
        radio.bandwidths[:, None] * radio.spectral_eff
    )
    expected = np.where(
        radio.feasible,
        np.argmin(np.where(radio.feasible_by_uav, serve, np.inf), axis=0),
        -1,
    )
    same = int((result.partition.assignment == expected).sum())
    ok = np.array_equal(result.partition.assignment, expected)
    check(
        7,
        ok,
        f"zero control cost reproduces the min-transmission-time diagram "
        f"cell for cell ({same}/{grid.n_cells})",
    )


def test_monotone_in_interference_and_control(
    default_scene, s2_beta_totals, s1_beta_service
):
    grid, _, radio, load_bits = default_scene
    betas = (0.0, 0.25, 0.5, 0.75, 1.0)
    hover = [s2_beta_totals[b] for b in betas]
    hover_up = all(a <= b * (1 + 1e-9) for a, b in zip(hover, hover[1:]))
    alphas = (0.0, 0.1, 0.5)
    alpha_hover = [
        solve_scenario2(grid, radio, load_bits, a, BASE.n_users).report.total
        for a in alphas
    ]
    alpha_up = all(a <= b * (1 + 1e-9) for a, b in zip(alpha_hover, alpha_hover[1:]))
    service = [s1_beta_service[b] for b in betas]
    service_down = all(a >= b * (1 - 1e-9) for a, b in zip(service, service[1:]))
    ok = hover_up and alpha_up and service_down
    check(
        8,
        ok,
        "hover non-decreasing in interference "
        f"({', '.join(f'{h:.0f}' for h in hover)} s) and in control weight "
        f"({', '.join(f'{h:.0f}' for h in alpha_hover)} s); "
        "service non-increasing in interference "
        f"({', '.join(f'{s:.2e}' for s in service)})",
    )


def test_fairness_bounds_and_even_split(default_scene, s1_default):
    grid, _, _, _ = default_scene
    result, _ = s1_default
    lo, hi = 1.0, 0.0
    for seed in range(BASE.n_seeds):
        sample = sample_users(grid, BASE.n_users, seed)
        j = jain_index(service_per_user(result.service, sample))
        lo, hi = min(lo, j), max(hi, j)
        assert 1.0 / BASE.n_users - 1e-12 <= j <= 1.0 + 1e-12
    counts = BASE.n_users * result.partition.masses
    target = BASE.n_users / BASE.n_uavs
    spread = float(np.abs(counts - target).max())
    ok = spread <= BASE.n_users * BASE.mass_tol
    check(
        9,
        ok,
        f"sampled fairness in [{lo:.3f}, {hi:.3f}] over {BASE.n_seeds} seeds; "
        f"per-region users within {spread:.2f} of {target:.0f}",
    )


def test_jain_ordering_over_concentration():
    sigmas = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0)
    prop_means, vor_means = [], []
    for sigma in sigmas:
        cfg = replace(BASE, sigma_x=sigma, sigma_y=sigma)
        grid = build_grid(cfg)
        uavs = build_uavs(cfg)
        radio = compute_radio_field(grid, uavs, build_channel(cfg))
        result = solve_scenario1(
            grid, uavs, radio, BASE.alpha, cfg.n_users,
            mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter,
        )
        baseline = weighted_voronoi(grid, radio)
        base_service = service_field_for_partition(
            grid, radio, uavs, BASE.alpha, cfg.n_users, baseline
        )
        prop, vor = [], []
        for seed in range(cfg.n_seeds):
            sample = sample_users(grid, cfg.n_users, seed)
            prop.append(jain_index(service_per_user(result.service, sample)))
            vor.append(jain_index(service_per_user(base_service, sample)))
        prop_means.append(float(np.mean(prop)))
        vor_means.append(float(np.mean(vor)))
    ordered = all(p >= v for p, v in zip(prop_means, vor_means))
    ok = ordered and prop_means[0] >= 0.5 and vor_means[0] <= 0.35
    check(
        10,
        ok,
        f"balanced partition fairer at every concentration; at the tightest "
        f"hot spot {prop_means[0]:.3f} >= 0.5 and baseline {vor_means[0]:.3f} <= 0.35",
    )


def test_service_gain_low_interference(s1_beta_service):
    ratio = s1_beta_service[0.1] / s1_beta_service[1.0]
    ok = 2.0 <= ratio <= 4.0
    check(11, ok, f"service grows {ratio:.2f}x when interference drops to 0.1")


def test_split_reduction_band(default_scene):
    grid, _, _, load_bits = default_scene
    reductions = []
    for bandwidth in (0.5e6, 1e6, 2e6, 5e6, 10e6):
        cfg = replace(BASE, bandwidth=bandwidth)
        uavs = build_uavs(cfg)
        radio = compute_radio_field(grid, uavs, build_channel(cfg))
        result = solve_scenario2(grid, radio, load_bits, BASE.alpha, cfg.n_users)
        eq_total = hover_time_equal_split(
            grid, result.partition, radio, load_bits, BASE.alpha, cfg.n_users
        ).total
        reductions.append(1.0 - result.report.total / eq_total)
    mean = float(np.mean(reductions))
    ok = 0.35 <= mean <= 0.65
    check(
        12,
        ok,
        f"proportional split cuts hover by {mean:.1%} on average over the "
        f"bandwidth sweep (per point {', '.join(f'{r:.2f}' for r in reductions)})",
    )


def test_fleet_scaling_band(default_scene):
    grid, _, _, load_bits = default_scene
    totals = {}
    for m in (2, 6):
        cfg = replace(BASE, n_uavs=m, beta=0.0)
        uavs = build_uavs(cfg)
        radio = compute_radio_field(grid, uavs, build_channel(cfg))
        totals[m] = solve_scenario2(
            grid, radio, load_bits, BASE.alpha, cfg.n_users
        ).report.total
    ratio = totals[6] / totals[2]
    ok = 0.35 <= ratio <= 0.65
    check(
        13,
        ok,
        f"tripling the fleet scales hover by {ratio:.2f} without interference",
    )


def test_interference_cost_band(s2_beta_totals):
    ratio = s2_beta_totals[1.0] / s2_beta_totals[0.0]
    ok = 3.0 <= ratio <= 6.0
    check(14, ok, f"full interference multiplies hover by {ratio:.2f}")


def test_partition_gain_grows_with_alpha():
    cfg = replace(BASE, sigma_x=200.0, sigma_y=200.0)
    grid = build_grid(cfg)
    uavs = build_uavs(cfg)
    radio = compute_radio_field(grid, uavs, build_channel(cfg))
    load_bits = cfg.load_bits
    baseline = weighted_voronoi(grid, radio)
    gaps = []
    for alpha in (0.01, 0.1, 0.5):
        proposed = solve_scenario2(grid, radio, load_bits, alpha, cfg.n_users).report.total
        voronoi = region_hover_report(
            grid, baseline, radio, load_bits, alpha, cfg.n_users
        ).total
        gaps.append(1.0 - proposed / voronoi)
    increasing = all(a < b for a, b in zip(gaps, gaps[1:]))
    ok = all(g > 0 for g in gaps) and increasing and gaps[-1] >= 0.10
    check(
        15,
        ok,
        f"marginal-cost partition beats the best-signal diagram by "
        f"{', '.join(f'{g:.1%}' for g in gaps)} as control weight grows",
    )


def test_combined_reduction(default_scene, s2_beta_totals):
    grid, uavs, radio, load_bits = default_scene
    baseline = weighted_voronoi(grid, radio)
    worst_case = hover_time_equal_split(
        grid, baseline, radio, load_bits, BASE.alpha, BASE.n_users
    ).total
    reduction = 1.0 - s2_beta_totals[1.0] / worst_case
    ok = reduction >= 0.5
    check(
        "combined",
        ok,
        f"optimal split plus optimal partition cuts hover by {reduction:.1%} "
        f"against equal split on the best-signal diagram",
    )
