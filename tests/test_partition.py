"""Assignment maps: min-cost rule, ties, masses, baseline diagram."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavpart.channel import ChannelParams, UavNode, compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs, load_config
from uavpart.grid import truncated_gaussian, uniform_density
from uavpart.partition import (
    CSV_BLOCK_CELLS,
    INFEASIBLE,
    Partition,
    _finite_spread,
    _min_norm_point,
    ascend_dual,
    assign_by_min_cost,
    partition_to_csv,
    shifted_pass,
    weighted_voronoi,
)
from uavpart.scenario1 import solve_scenario1
from uavpart.scenario2 import solve_scenario2

from oracles import min_norm_point_reference, region_masses, shifted_pass_reference

GRID = uniform_density(1000.0, 1000.0, 10, 6)
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


def test_region_masses_float_when_nothing_served():
    masses = region_masses(GRID, np.full(GRID.n_cells, INFEASIBLE), 3)
    assert masses.dtype == np.float64
    assert np.array_equal(masses, np.zeros(3))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), n_uavs=st.integers(1, 5))
def test_shifted_pass_matches_argmin(seed, n_uavs):
    # small integer costs and potentials make ties common; +inf marks links
    # no UAV can use, and a quarter of the cells get none at all
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 4, size=(n_uavs, GRID.n_cells)).astype(float)
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, rng.random(GRID.n_cells) < 0.25] = np.inf
    psi = rng.integers(-2, 3, size=n_uavs).astype(float)
    shifted = costs - psi[:, None]
    part = assign_by_min_cost(GRID, shifted)
    covered = part.assignment >= 0
    value, claimed = shifted_pass(GRID, costs, psi, partition=True)
    assert np.array_equal(claimed.assignment, part.assignment)
    assert np.array_equal(claimed.masses, part.masses)
    assert value == pytest.approx(
        float(shifted.min(axis=0)[covered] @ GRID.cell_mass[covered]), rel=1e-12, abs=1e-15
    )
    assert shifted_pass(GRID, costs, psi) == value


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n_uavs=st.integers(1, 6), grid_cells=st.integers(1, 40),
       scale=st.sampled_from([1.0, 1e-3, 1e8]))
def test_shifted_pass_matches_buffer_reference(seed, n_uavs, grid_cells, scale):
    # real-valued and integer-tied costs with +inf links and unservable cells:
    # F and the partition are bit for bit those of the (n_uavs, n_cells) buffer
    rng = np.random.default_rng(seed)
    grid = uniform_density(1000.0, 1000.0, grid_cells, 3)
    if seed % 2:
        costs = rng.integers(0, 4, size=(n_uavs, grid.n_cells)).astype(float)
    else:
        costs = rng.normal(scale=scale, size=(n_uavs, grid.n_cells))
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, rng.random(grid.n_cells) < 0.25] = np.inf
    psi = rng.normal(scale=scale, size=n_uavs)
    value, claimed = shifted_pass(grid, costs, psi, partition=True)
    want, expected = shifted_pass_reference(grid, costs, psi, partition=True)
    assert value == want
    assert shifted_pass(grid, costs, psi) == want
    assert np.array_equal(claimed.assignment, expected.assignment)
    assert np.array_equal(claimed.masses, expected.masses)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n_uavs=st.integers(1, 5), grid_cells=st.integers(1, 40),
       share=st.sampled_from([0.0, 0.3, 0.9, 1.0]))
def test_finite_spread_is_the_masked_reduction(seed, n_uavs, grid_cells, share):
    # the ascent's first step reads this spread: bit for bit the masked
    # max - min over the whole array, with signed zeros, +inf, -inf and NaN
    # among the costs and, at share 1, no finite cost at all
    rng = np.random.default_rng(seed)
    if seed % 2:
        costs = rng.integers(-2, 3, size=(n_uavs, grid_cells)).astype(float)
    else:
        costs = rng.normal(scale=10.0, size=(n_uavs, grid_cells))
    costs[rng.random(costs.shape) < 0.2] = 0.0
    costs[rng.random(costs.shape) < 0.2] = -0.0
    bad = rng.random(costs.shape) < share
    costs[bad] = rng.choice([np.inf, -np.inf, np.nan], size=int(bad.sum()))
    finite = np.isfinite(costs)
    want = costs.max(where=finite, initial=-np.inf) - costs.min(where=finite, initial=np.inf)
    got = _finite_spread(costs, np.empty(grid_cells))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def check_random_ascent(seed, n_uavs, ascend):
    """Ascend a random integer-cost dual and check that the partition and F
    returned are the ones at the returned potentials."""
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 4, size=(n_uavs, GRID.n_cells)).astype(float)
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, rng.random(GRID.n_cells) < 0.25] = np.inf
    k = rng.integers(1, 5, size=n_uavs).astype(float)
    potentials = ascend_dual(
        GRID, costs, rng.integers(-2, 3, size=n_uavs).astype(float),
        term=lambda psi: -0.5 * float(psi / k @ psi),
        target=lambda psi, masses: -psi / k,
        mass_tol=1e-6 if ascend else np.inf, max_iter=1000,
    )
    expected = assign_by_min_cost(GRID, costs - potentials.psi[:, None])
    assert np.array_equal(potentials.partition.assignment, expected.assignment)
    assert np.array_equal(potentials.partition.masses, expected.masses)
    # the last iterate's F, kept from its accepted trial, is a fresh evaluation's
    psi = potentials.psi
    assert potentials.f_trace[-1] == (-0.5 * float(psi / k @ psi)
                                      + shifted_pass_reference(GRID, costs, psi))
    return potentials


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31), n_uavs=st.integers(1, 5), ascend=st.booleans())
@example(seed=18, n_uavs=2, ascend=True)  # a kink where no step improves F
@example(seed=42900, n_uavs=5, ascend=True)  # zigzags across a kink
@example(seed=14796, n_uavs=5, ascend=True)
def test_ascent_returns_partition_at_its_potentials(seed, n_uavs, ascend):
    # integer costs and starting potentials tie often and +inf marks unusable
    # links; with ascend=False the ascent stops at its integer start, and at
    # a kink no ascent direction climbs the ascent returns instead of raising
    check_random_ascent(seed, n_uavs, ascend)


@pytest.mark.parametrize("seed,n_uavs", [
    (22, 4), (34, 5), (40, 4), (61, 4), (89, 5), (143, 4), (156, 3), (173, 4), (186, 5),
    (211, 4), (219, 5), (270, 5), (277, 5), (278, 4), (294, 5), (331, 5), (342, 5),
    (429, 4), (477, 5), (487, 4),
])
def test_ascent_ends_a_zigzag_across_a_kink(seed, n_uavs):
    # plain supergradient steps alternate between two partitions on these
    # and run out of iterations; the least-norm step along the kink ends them
    potentials = check_random_ascent(seed, n_uavs, ascend=True)
    assert len(potentials.f_trace) <= 300


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 6), dim=st.integers(1, 4),
       integer=st.booleans())
def test_min_norm_point_matches_subset_search(seed, k, dim, integer):
    # integer rows repeat and fall on common lines and planes often
    rng = np.random.default_rng(seed)
    points = rng.integers(-3, 4, size=(k, dim)) if integer else rng.normal(size=(k, dim))
    points = points.astype(float)
    x = _min_norm_point(points)
    assert np.linalg.norm(x) == pytest.approx(min_norm_point_reference(points), abs=1e-9)
    # no row lies on the origin's side of x; with the least norm, that makes
    # x the hull's least-norm point, which is unique
    assert np.all(points @ x >= x @ x - 1e-9)


@pytest.mark.parametrize("sigma", [200.0, 600.0, 1400.0])
@pytest.mark.parametrize("size", [60, 120])
def test_ascent_stops_on_the_partition_it_returns(sigma, size):
    # the last traced mismatch is the returned partition's own, bit for bit
    cfg = replace(ExperimentConfig(), nx=size, ny=size, sigma_x=sigma, sigma_y=sigma)
    grid, uavs = build_grid(cfg), build_uavs(cfg)
    radio = compute_radio_field(grid, uavs, build_channel(cfg))
    s1 = solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users,
                         mass_tol=cfg.mass_tol)
    s2 = solve_scenario2(grid, radio, cfg.load_bits, cfg.alpha, cfg.n_users,
                         mass_tol=cfg.mass_tol)
    priced_at = -s2.potentials.psi / (2.0 * cfg.alpha * cfg.n_users**2)
    for potentials, wanted in ((s1.potentials, s1.fairness.target_masses),
                               (s2.potentials, priced_at)):
        mismatch = np.linalg.norm(wanted - potentials.partition.masses)
        assert potentials.grad_trace[-1] == mismatch


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n_uavs=st.integers(1, 6),
    inf_share=st.sampled_from([0.0, 0.3, 0.9]),
)
@example(seed=0, n_uavs=255, inf_share=0.9)  # fleets whose codes, index + 1,
@example(seed=1, n_uavs=256, inf_share=0.3)  # reach and pass 255
@example(seed=2, n_uavs=300, inf_share=0.0)
def test_assignment_matches_argmin(seed, n_uavs, inf_share):
    # oracle: the np.argmin formula the row scan replaced; integer costs tie
    # often, the last UAV alone is cheapest on some cells, +inf marks
    # unusable links and some cells get no finite cost
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 3, size=(n_uavs, GRID.n_cells)).astype(float)
    costs[rng.random(costs.shape) < inf_share] = np.inf
    costs[-1, rng.random(GRID.n_cells) < 0.2] = -1.0
    costs[:, rng.random(GRID.n_cells) < 0.2] = np.inf
    servable = np.isfinite(costs).any(axis=0)
    part = assign_by_min_cost(GRID, costs)
    expected = np.where(servable, np.argmin(costs, axis=0), INFEASIBLE)
    assert np.array_equal(part.assignment, expected)
    assert np.array_equal(part.masses, region_masses(GRID, expected, n_uavs))
    _, claimed = shifted_pass(GRID, costs, np.zeros(n_uavs), partition=True)
    assert np.array_equal(claimed.assignment, part.assignment)
    assert np.array_equal(claimed.masses, part.masses)


def test_assignment_leaves_inputs_alone():
    costs = random_costs(4)
    costs[:, 3] = np.inf
    before = costs.copy()
    assign_by_min_cost(GRID, costs)
    assert np.array_equal(costs, before)


def test_nan_cost_rejected():
    costs = random_costs(5)
    costs[1, 2] = np.nan
    with pytest.raises(ValueError):
        assign_by_min_cost(GRID, costs)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
@pytest.mark.parametrize("row", [0, 3])
def test_nan_or_negative_infinite_cost_rejected(bad, row):
    costs = random_costs(5)
    costs[row, 2] = bad
    with pytest.raises(ValueError):
        assign_by_min_cost(GRID, costs)
    costs[:, 4] = np.inf  # next to a cell without a finite cost
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


def assert_csv_matches_savetxt(grid, part, directory):
    # oracle: the np.savetxt call partition_to_csv replaced
    expected = Path(directory) / "savetxt.csv"
    np.savetxt(
        expected,
        np.column_stack([grid.cell_x, grid.cell_y, part.assignment]),
        fmt=["%.9g", "%.9g", "%d"],
        delimiter=",",
        header="cell_x_m,cell_y_m,uav_index",
        comments="",
    )
    got = Path(directory) / "partition.csv"
    partition_to_csv(grid, part, got)
    assert got.read_bytes() == expected.read_bytes()


def random_partition(grid, n_uavs, seed, infeasible_share=0.0):
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, n_uavs, size=grid.n_cells)
    assignment[rng.random(grid.n_cells) < infeasible_share] = INFEASIBLE
    return Partition(assignment, region_masses(grid, assignment, n_uavs))


@pytest.mark.parametrize(
    "grid",
    [
        uniform_density(1000.0, 600.0, 7, 3),
        uniform_density(1000.0, 600.0, 1, 9),
        uniform_density(1000.0, 600.0, 9, 1),
        uniform_density(1000.0, 600.0, 1, 1),
        # exponent notation and a dx that does not terminate in decimal
        uniform_density(3e11, 1000.0, 7, 5),
        uniform_density(1000.0, 2e-7, 7, 4),
        truncated_gaussian(1000.0, 1000.0, 14, 11, 250.0, 330.0, 200.0, 300.0),
    ],
    ids=["7x3", "1x9", "9x1", "1x1", "wide_3e11", "thin_2e-7", "gaussian"],
)
@pytest.mark.parametrize("infeasible_share", [0.0, 0.3, 1.0])
def test_partition_csv_matches_savetxt(tmp_path, grid, infeasible_share):
    part = random_partition(grid, 3, seed=grid.n_cells, infeasible_share=infeasible_share)
    assert_csv_matches_savetxt(grid, part, tmp_path)


@pytest.mark.parametrize(
    "nx, ny",
    [(300, 70), (20000, 1), (1, 20000), (CSV_BLOCK_CELLS, 2), (CSV_BLOCK_CELLS + 1, 2)],
)
def test_partition_csv_matches_savetxt_across_blocks(tmp_path, nx, ny):
    # ny not a multiple of the rows per block, one grid row wider than a
    # block, and 12 UAVs, so the labels -1 to 11 differ in width
    grid = uniform_density(1000.0, 700.0, nx, ny)
    assert grid.n_cells > CSV_BLOCK_CELLS
    part = random_partition(grid, 12, seed=nx, infeasible_share=0.1)
    assert_csv_matches_savetxt(grid, part, tmp_path)


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    width=st.floats(1e-3, 1e12),
    height=st.floats(1e-3, 1e12),
    n_uavs=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_partition_csv_matches_savetxt_small_grids(nx, ny, width, height, n_uavs, seed):
    grid = uniform_density(width, height, nx, ny)
    with tempfile.TemporaryDirectory() as directory:
        assert_csv_matches_savetxt(
            grid, random_partition(grid, n_uavs, seed, infeasible_share=0.2), directory
        )


def test_partition_csv_matches_savetxt_on_solved_maps(tmp_path):
    cfg = replace(load_config(SCRIPTS / "partition_maps.ini"), nx=60, ny=60)
    grid, uavs = build_grid(cfg), build_uavs(cfg)
    radio = compute_radio_field(grid, uavs, build_channel(cfg))
    solver = {"mass_tol": cfg.mass_tol, "max_iter": cfg.max_ascent_iter}
    parts = [
        solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users, **solver).partition,
        solve_scenario2(grid, radio, cfg.load_bits, cfg.alpha, cfg.n_users, **solver).partition,
        weighted_voronoi(grid, radio),
    ]
    assert any(np.any(part.assignment != parts[-1].assignment) for part in parts[:2])
    for part in parts:
        assert_csv_matches_savetxt(grid, part, tmp_path)
