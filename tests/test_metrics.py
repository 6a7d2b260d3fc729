"""User sampling, fairness indices and service accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.grid import AreaGrid, truncated_gaussian, uniform_density
from uavpart.metrics import (
    UserSample,
    jain_index,
    sample_users,
    service_per_user,
    total_data_service,
)
from uavpart.partition import INFEASIBLE, Partition, own_links

from oracles import jain_reference, per_seed_jain, region_masses, sample_cells_reference


def per_cell(grid, assignment, field):
    """The (n_uavs, n_cells) field read on each cell's own link, zero on
    unassigned cells."""
    part = Partition(assignment, region_masses(grid, assignment, len(field)))
    cells, _, bits = own_links(part, field)
    out = np.zeros(grid.n_cells)
    out[cells] = bits
    return out


def two_cell_grid(mass0=0.25):
    density = np.array([mass0, 1.0 - mass0]) / 5e5
    return AreaGrid(1000.0, 1000.0, 2, 1, density)


# jain index


def test_jain_known_values():
    assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0, rel=1e-12)
    assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    # zero or macroscopic allocations: scaling values near the bottom of the
    # float range onto the subnormal grid breaks invariance for any formula
    values=st.lists(
        st.one_of(st.just(0.0), st.floats(1.0, 1e6)), min_size=1, max_size=32
    ).filter(lambda v: any(x > 0 for x in v)),
    scale=st.floats(1e-6, 1e6),
)
def test_jain_bounds_and_scale_invariance(values, scale):
    v = np.array(values)
    j = jain_index(v)
    assert 1.0 / len(v) - 1e-12 <= j <= 1.0 + 1e-12
    assert jain_index(scale * v) == pytest.approx(j, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e300)), min_size=n, max_size=n)
        .filter(lambda row: any(x > 0 for x in row)),
        min_size=1, max_size=5)),
)
def test_jain_rows_are_the_one_d_calls_bit_for_bit(rows):
    v = np.array(rows)
    got = jain_index(v)
    assert got.shape == (len(rows),)
    for row, value in zip(rows, got):
        assert jain_index(row) == value == jain_reference(np.array(row))
    # a row of a Fortran-ordered array sums as a 1-D row does
    assert np.array_equal(jain_index(np.asfortranarray(v)), got)


def test_jain_single_row_is_the_row_contract():
    assert np.array_equal(jain_index([[1.0, 2.0]]), [jain_index([1.0, 2.0])])
    assert np.array_equal(jain_index(np.full((300, 2), 3.0)), np.ones(300))


def test_jain_errors():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_index([1.0, -1.0])
    with pytest.raises(ValueError):
        jain_index([1.0, np.inf])
    with pytest.raises(ValueError):
        jain_index([1.0, np.nan])
    with pytest.raises(ValueError):
        jain_index(2.0)
    with pytest.raises(ValueError):
        jain_index([[[1.0, 2.0]]])
    # rows: any all-zero, negative or non-finite row, and empty rows, raise
    with pytest.raises(ValueError):
        jain_index([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        jain_index([[1.0, 2.0], [1.0, -1.0]])
    with pytest.raises(ValueError):
        jain_index([[1.0, np.inf]])
    with pytest.raises(ValueError):
        jain_index(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        jain_index(np.zeros((0, 3)))


# sampling


def test_sampling_deterministic():
    grid = truncated_gaussian(1000.0, 1000.0, 20, 20, 250.0, 330.0, 300.0, 300.0)
    a = sample_users(grid, 500, [7])
    b = sample_users(grid, 500, [7])
    c = sample_users(grid, 500, [8])
    assert np.array_equal(a.cells, b.cells)
    assert not np.array_equal(a.cells, c.cells)
    assert np.array_equal(a.cells, [sample_cells_reference(grid, 500, 7)]) and a.n_users == 500


def test_sampling_positions_inside_cells():
    grid = uniform_density(1200.0, 800.0, 6, 4)
    s = sample_users(grid, 2000, [1])
    assert np.all((s.cells >= 0) & (s.cells < grid.n_cells))


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31])
@pytest.mark.parametrize(
    "grid",
    [
        truncated_gaussian(1000.0, 1000.0, 23, 17, 250.0, 330.0, 150.0, 300.0),
        # empty first and last cells
        AreaGrid(1000.0, 1000.0, 4, 1, np.array([0.0, 1.0, 3.0, 0.0]) / 1e6),
    ],
    ids=["gaussian", "empty_ends"],
)
def test_sampling_matches_inverse_cdf_oracle(grid, seed):
    # the per-call formula the cached grid.cell_cdf replaced: same draws,
    # same cells, so every Jain value computed from them stays the same
    cdf = np.cumsum(grid.cell_mass)
    cdf /= cdf[-1]
    draws = np.random.default_rng(seed).random(777)
    oracle = np.minimum(np.searchsorted(cdf, draws, side="right"), grid.n_cells - 1)
    assert np.array_equal(sample_users(grid, 777, [seed]).cells, [oracle])


@pytest.mark.parametrize(
    "seeds,n_users", [(range(50), 300), ([7], 777), (range(50), 1), ([2**31, 0, 2**31], 64)],
    ids=["50_seeds", "one_seed", "one_user", "repeated_seed"],
)
def test_batched_sampling_is_each_seed_drawn_alone(seeds, n_users):
    grid = truncated_gaussian(1000.0, 1000.0, 23, 17, 250.0, 330.0, 150.0, 300.0)
    batch = sample_users(grid, n_users, seeds)
    assert batch.cells.shape == (len(seeds), n_users)
    assert batch.n_users == len(seeds) * n_users
    for seed, cells in zip(seeds, batch.cells):
        assert np.array_equal(cells, sample_cells_reference(grid, n_users, seed))
        assert np.array_equal(cells, sample_users(grid, n_users, [seed]).cells[0])


def test_batched_jain_matches_per_seed_loop():
    grid = truncated_gaussian(1000.0, 1000.0, 30, 30, 250.0, 330.0, 200.0, 200.0)
    rng = np.random.default_rng(4)
    service = rng.random(grid.n_cells) * (rng.random(grid.n_cells) < 0.5)
    sample = sample_users(grid, 300, range(50))
    got = jain_index(service_per_user(service, sample))
    assert got.tolist() == per_seed_jain(grid, 300, range(50), service)


def test_cell_cdf_read_only_and_ends_at_one():
    grid = truncated_gaussian(1000.0, 1000.0, 20, 20, 250.0, 330.0, 300.0, 300.0)
    cdf = grid.cell_cdf
    assert cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0)
    assert grid.cell_cdf is cdf
    with pytest.raises(ValueError):
        cdf[0] = 0.5


def test_sampling_follows_cell_masses():
    grid = two_cell_grid(mass0=0.25)
    s = sample_users(grid, 10_000, [42])
    n1 = int((s.cells == 1).sum())
    # binomial(10000, 0.75): 4 sigma is about 173
    assert abs(n1 - 7500) < 200


def test_sampling_skips_empty_cells():
    grid = two_cell_grid(mass0=0.0)
    s = sample_users(grid, 1000, [0])
    assert np.all(s.cells == 1)


def test_sampling_validation():
    grid = two_cell_grid()
    with pytest.raises(ValueError):
        sample_users(grid, 0, [1])


# service accounting


def test_service_per_user_lookup():
    grid = uniform_density(1000.0, 1000.0, 2, 2)
    service = per_cell(
        grid, np.array([0, 1, INFEASIBLE, 0]),
        np.array([[10.0, 20.0, 30.0, 40.0], [50.0, 60.0, 70.0, 80.0]]),
    )
    sample = UserSample(cells=np.array([[0, 1, 2, 3, 1]]))
    got = service_per_user(service, sample)
    assert np.array_equal(got, [[10.0, 60.0, 0.0, 40.0, 60.0]])


def test_total_service_hand_sum():
    grid = two_cell_grid(mass0=0.25)
    service = per_cell(grid, np.array([1, 0]), np.array([[3.0, 5.0], [7.0, 11.0]]))
    # cell 0 served by UAV 1 (7 bits), cell 1 by UAV 0 (5 bits)
    assert total_data_service(grid, service, 100) == pytest.approx(
        100 * (7.0 * 0.25 + 5.0 * 0.75), rel=1e-12
    )


def test_total_service_skips_unassigned():
    grid = two_cell_grid(mass0=0.25)
    service = per_cell(grid, np.array([INFEASIBLE, 0]), np.array([[3.0, 5.0]]))
    assert total_data_service(grid, service, 100) == pytest.approx(
        100 * 5.0 * 0.75, rel=1e-12
    )


# continuous jain


def test_jain_continuous_close_to_sampled():
    grid = truncated_gaussian(1000.0, 1000.0, 30, 30, 250.0, 330.0, 400.0, 400.0)
    rng = np.random.default_rng(9)
    assignment = rng.integers(0, 2, size=grid.n_cells)
    service = 1e6 + 1e6 * rng.random((2, grid.n_cells))
    # sampling-free oracle: Jain's index of the served field under the density
    per_cell = service[assignment, np.arange(grid.n_cells)]
    mean = float(per_cell @ grid.cell_mass)
    mean_sq = float((per_cell**2) @ grid.cell_mass)
    exact = mean**2 / mean_sq
    sample = sample_users(grid, 20_000, [3])
    (sampled,) = jain_index(service_per_user(per_cell, sample))
    assert sampled == pytest.approx(exact, abs=0.03)
