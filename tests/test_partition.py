"""Assignment maps: min-cost rule, ties, masses, baseline diagram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.channel import ChannelParams, UavNode, compute_radio_field
from uavpart.errors import InfeasibleError
from uavpart.grid import uniform_density
from uavpart.partition import (
    INFEASIBLE,
    Partition,
    assign_by_min_cost,
    partition_to_csv,
    region_masses,
    weighted_voronoi,
)

GRID = uniform_density(1000.0, 1000.0, 10, 6)


def random_costs(seed, n_uavs=4, grid=GRID):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_uavs, grid.n_cells))


def test_single_uav_takes_all():
    costs = random_costs(0, n_uavs=1)
    part = assign_by_min_cost(GRID, costs)
    assert np.all(part.assignment == 0)
    assert part.masses[0] == pytest.approx(1.0, abs=1e-12)


def test_matches_per_cell_scan():
    # oracle: plain python argmin per cell with the lowest-index tie rule
    costs = random_costs(7)
    part = assign_by_min_cost(GRID, costs)
    for c in range(GRID.n_cells):
        best, arg = np.inf, INFEASIBLE
        for i in range(costs.shape[0]):
            if costs[i, c] < best:
                best, arg = costs[i, c], i
        assert part.assignment[c] == arg


def test_tie_goes_to_lowest_index():
    costs = np.ones((3, GRID.n_cells))
    part = assign_by_min_cost(GRID, costs)
    assert np.all(part.assignment == 0)
    costs[2] = 0.5
    part = assign_by_min_cost(GRID, costs)
    assert np.all(part.assignment == 2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_per_cell_shift_invariance(seed):
    costs = random_costs(seed)
    rng = np.random.default_rng(seed + 1)
    shift = rng.normal(size=GRID.n_cells)
    base = assign_by_min_cost(GRID, costs)
    shifted = assign_by_min_cost(GRID, costs + shift[None, :])
    assert np.array_equal(base.assignment, shifted.assignment)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(1e-3, 1e3))
def test_positive_scale_invariance(seed, scale):
    costs = random_costs(seed)
    base = assign_by_min_cost(GRID, costs)
    scaled = assign_by_min_cost(GRID, costs * scale)
    assert np.array_equal(base.assignment, scaled.assignment)


def test_masses_partition_unity():
    costs = random_costs(3)
    part = assign_by_min_cost(GRID, costs)
    unassigned = GRID.cell_mass[part.assignment == INFEASIBLE].sum()
    assert part.masses.sum() + unassigned == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(
        part.masses, region_masses(GRID, part.assignment, part.n_uavs)
    )


def test_all_infinite_cell_gets_sentinel():
    costs = random_costs(5)
    costs[:, 11] = np.inf
    part = assign_by_min_cost(GRID, costs)
    assert part.assignment[11] == INFEASIBLE
    assert part.masses.sum() == pytest.approx(1.0 - GRID.cell_mass[11], rel=1e-12)


def test_feasible_cell_without_cost_raises():
    costs = random_costs(5)
    costs[:, 11] = np.inf
    with pytest.raises(InfeasibleError):
        assign_by_min_cost(GRID, costs, feasible=np.ones(GRID.n_cells, bool))


def test_nan_cost_rejected():
    costs = random_costs(5)
    costs[1, 2] = np.nan
    with pytest.raises(ValueError):
        assign_by_min_cost(GRID, costs)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 3]), np.array([0.5, 0.5]))  # index 3 out of range
    with pytest.raises(ValueError):
        Partition(np.array([0, 1]), np.array([-0.1, 1.1]))


def test_voronoi_symmetric_pair():
    grid = uniform_density(1000.0, 1000.0, 12, 12)
    uavs = [
        UavNode(x=250.0, y=500.0, altitude=200.0),
        UavNode(x=750.0, y=500.0, altitude=200.0),
    ]
    field = compute_radio_field(grid, uavs, ChannelParams())
    part = weighted_voronoi(grid, field)
    left = grid.cell_x < 500.0
    assert np.all(part.assignment[left] == 0)
    assert np.all(part.assignment[~left] == 1)
    assert np.allclose(part.masses, [0.5, 0.5], atol=1e-12)


def test_voronoi_matches_argmax_scan():
    grid = uniform_density(1000.0, 1000.0, 9, 9)
    uavs = [
        UavNode(x=200.0, y=300.0, altitude=200.0, power=0.5),
        UavNode(x=600.0, y=700.0, altitude=200.0, power=5.0),
        UavNode(x=800.0, y=200.0, altitude=200.0, power=0.5),
    ]
    field = compute_radio_field(grid, uavs, ChannelParams())
    part = weighted_voronoi(grid, field)
    for c in range(grid.n_cells):
        assert part.assignment[c] == int(np.argmax(field.sinr[:, c]))


def test_voronoi_weights_shrink_region():
    grid = uniform_density(1000.0, 1000.0, 14, 14)
    uavs = [
        UavNode(x=300.0, y=500.0, altitude=200.0),
        UavNode(x=700.0, y=500.0, altitude=200.0),
    ]
    field = compute_radio_field(grid, uavs, ChannelParams())
    sizes = []
    for w1 in (1.0, 2.0, 5.0, 20.0):
        part = weighted_voronoi(grid, field, weights=np.array([1.0, w1]))
        sizes.append(int(np.count_nonzero(part.assignment == 1)))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sizes[0] > sizes[-1]


def test_voronoi_weight_validation():
    grid = uniform_density(1000.0, 1000.0, 5, 5)
    field = compute_radio_field(
        grid, [UavNode(x=500.0, y=500.0, altitude=200.0)], ChannelParams()
    )
    with pytest.raises(ValueError):
        weighted_voronoi(grid, field, weights=np.array([0.0]))
    with pytest.raises(ValueError):
        weighted_voronoi(grid, field, weights=np.array([1.0, 2.0]))


def test_partition_csv(tmp_path):
    costs = random_costs(9, n_uavs=2)
    part = assign_by_min_cost(GRID, costs)
    path = tmp_path / "partition.csv"
    partition_to_csv(GRID, part, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cell_x_m,cell_y_m,uav_index"
    assert len(lines) == GRID.n_cells + 1
    first = lines[1].split(",")
    assert float(first[0]) == GRID.cell_x[0]
    assert int(first[2]) == part.assignment[0]
