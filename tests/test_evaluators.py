"""The partition evaluators against plain per-region references: the hover
reports under the optimal and the equal bandwidth split, and the per-cell
service fields of scenario 1; and the one check of their per-UAV inputs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavpart.channel import RadioField, compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.errors import InfeasibleError
from uavpart.grid import AreaGrid
from uavpart.partition import INFEASIBLE, Partition, weighted_voronoi
from uavpart.scenario1 import service_field_for_partition, solve_scenario1
from uavpart.scenario2 import (
    hover_time_equal_split,
    region_hover_report,
    solve_scenario2,
)

from oracles import hover_report_reference, on_own_links, region_masses, service_matrix_reference

RTOL = 1e-12


def random_instance(seed):
    """A small grid with some empty cells, a random radio field with links
    below the floor, per-UAV budgets and alpha, and an assignment that uses
    only usable links, leaves some cells unassigned and some UAVs idle."""
    rng = np.random.default_rng(seed)
    nx, ny, m = rng.integers(1, 7), rng.integers(1, 7), int(rng.integers(1, 5))
    density = rng.random(nx * ny) * (rng.random(nx * ny) < 0.7)
    density[rng.integers(nx * ny)] += 0.5  # at least one populated cell
    cell_area = 1000.0 * 800.0 / (nx * ny)
    grid = AreaGrid(1000.0, 800.0, nx, ny, density / (density.sum() * cell_area))
    eff = rng.uniform(0.05, 8.0, (m, grid.n_cells))
    usable = rng.random((m, grid.n_cells)) < 0.8
    bandwidths = rng.uniform(1e5, 1e7, m)
    radio = RadioField(spectral_eff=eff, feasible_by_uav=usable, feasible=usable.any(axis=0),
                       bandwidths=bandwidths)
    budgets = rng.uniform(10.0, 3000.0, m)
    idle = rng.random(m) < 0.3  # UAVs that serve nothing
    assignment = np.full(grid.n_cells, INFEASIBLE)
    for c in range(grid.n_cells):
        choices = np.flatnonzero(usable[:, c] & ~idle)
        if len(choices) and rng.random() < 0.85:
            assignment[c] = rng.choice(choices)
    part = Partition(assignment, region_masses(grid, assignment, m))
    alpha = rng.uniform(0.0, 0.05, m) if rng.random() < 0.7 else 0.01
    return grid, radio, budgets, part, alpha, rng


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), load_bits=st.sampled_from([0.0, 1.0, 1e7, 3.3e8]))
def test_hover_reports_match_per_region_reference(seed, load_bits):
    grid, radio, _, part, alpha, _ = random_instance(seed)
    for evaluate, equal_split in ((region_hover_report, False), (hover_time_equal_split, True)):
        got = evaluate(grid, part, radio, load_bits, alpha, 300)
        want = hover_report_reference(grid, part, radio, load_bits, alpha, 300, equal_split)
        np.testing.assert_allclose(got.serve_times, want.serve_times, rtol=RTOL, atol=0)
        np.testing.assert_allclose(got.control_times, want.control_times, rtol=RTOL, atol=0)
        assert got.total == pytest.approx(want.total, rel=RTOL, abs=0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_below_floor_link_raises_like_reference(seed):
    grid, radio, _, part, alpha, rng = random_instance(seed)
    below = np.argwhere(~radio.feasible_by_uav)
    assume(len(below) > 0)
    bad = below[rng.choice(len(below), size=min(len(below), 2), replace=False)]
    assignment = part.assignment.copy()
    assignment[bad[:, 1]] = bad[:, 0]
    part = Partition(assignment, region_masses(grid, assignment, part.n_uavs))
    for evaluate, equal_split in ((region_hover_report, False), (hover_time_equal_split, True)):
        with pytest.raises(InfeasibleError) as want:
            hover_report_reference(grid, part, radio, 1e7, alpha, 300, equal_split)
        with pytest.raises(InfeasibleError, match=str(want.value)):
            evaluate(grid, part, radio, 1e7, alpha, 300)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_service_field_is_the_matrix_on_own_links(seed):
    grid, radio, budgets, part, alpha, _ = random_instance(seed)
    field = service_field_for_partition(grid, part, radio, budgets, alpha, 300)
    want = on_own_links(service_matrix_reference(radio, budgets, alpha, 300, part), part)
    assert field.shape == (grid.n_cells,)
    np.testing.assert_allclose(field, want, rtol=RTOL, atol=0)
    assert np.array_equal(field, want)  # bit for bit
    assert np.all(field[part.assignment == INFEASIBLE] == 0.0)


def test_solver_service_is_the_matrix_on_own_links():
    cfg = ExperimentConfig(nx=24, ny=24, n_uavs=3)
    grid, uavs = build_grid(cfg), build_uavs(cfg)
    radio = compute_radio_field(grid, uavs, build_channel(cfg))
    result = solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users, mass_tol=5e-3)
    matrix = result.fairness.resource_per_user * radio.spectral_eff
    assert result.service.shape == (grid.n_cells,)
    assert np.array_equal(result.service, on_own_links(matrix, result.partition))


@pytest.mark.parametrize("bad", [-0.01, np.nan])
def test_every_alpha_taker_rejects_a_bad_entry(bad):
    # on the 40 x 40 default scene, alpha = [0.01, -0.01, 0.01, 0.01, 0.01]
    # once gave scenario 2 a negative control time and no error
    cfg = ExperimentConfig(nx=40, ny=40)
    grid = build_grid(cfg)
    radio = compute_radio_field(grid, build_uavs(cfg), build_channel(cfg))
    part = weighted_voronoi(grid, radio)
    alpha = np.full(cfg.n_uavs, cfg.alpha)
    alpha[1] = bad
    scene = (radio, cfg.load_bits, alpha, cfg.n_users)
    calls = [
        lambda: solve_scenario2(grid, *scene),
        lambda: region_hover_report(grid, part, *scene),
        lambda: hover_time_equal_split(grid, part, *scene),
        lambda: service_field_for_partition(grid, part, radio, cfg.max_hover, alpha, cfg.n_users),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="every control weight alpha must be finite"):
            call()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hover_reports_reject_a_partition_of_another_grid(seed):
    grid, radio, _, part, alpha, _ = random_instance(seed)
    scene = (radio, 1e7, alpha, 300)
    for assignment in (part.assignment[:-1], np.append(part.assignment, INFEASIBLE)):
        other = Partition(assignment, part.masses)
        for evaluate in (region_hover_report, hover_time_equal_split):
            with pytest.raises(ValueError, match="^partition must cover every grid cell$"):
                evaluate(grid, other, *scene)


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_scenario1_rejects_a_bad_budget(bad):
    cfg = ExperimentConfig(nx=40, ny=40)
    grid = build_grid(cfg)
    radio = compute_radio_field(grid, build_uavs(cfg), build_channel(cfg))
    budgets = np.full(cfg.n_uavs, cfg.max_hover)
    budgets[2] = bad
    with pytest.raises(ValueError, match="every hover budget must be positive"):
        solve_scenario1(grid, radio, budgets, cfg.alpha, cfg.n_users)
