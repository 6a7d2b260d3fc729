"""Assignment maps: min-cost rule, ties, masses, baseline diagram."""

import importlib.util
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavpart import partition
from uavpart.channel import ChannelParams, RadioField, UavNode, compute_radio_field
from uavpart.config import (
    ExperimentConfig,
    apply_sweep,
    build_channel,
    build_grid,
    build_uavs,
    load_config,
)
from uavpart.grid import truncated_gaussian, uniform_density
from uavpart.partition import (
    BAND_LEVELS,
    CSV_BLOCK_CELLS,
    INFEASIBLE,
    Partition,
    _aim,
    _Ascent,
    _backtrack,
    _band_pairs,
    _claim_iterate,
    _finite_spread,
    _lower_envelope,
    _min_norm_point,
    _newton_rule,
    _search_rule,
    _shifted_rows,
    _tie_split_rule,
    ascend_dual,
    assign_by_min_cost,
    partition_to_csv,
    weighted_voronoi,
)
from uavpart.scenario1 import dual_value, solve_scenario1
from uavpart.scenario2 import solve_scenario2

from oracles import (
    cell_centers,
    min_norm_point_reference,
    region_masses,
    shifted_pass_reference,
)

GRID = uniform_density(1000.0, 1000.0, 10, 6)
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_DUMP_SPEC = importlib.util.spec_from_file_location("dump_outputs", SCRIPTS / "dump_outputs.py")
DUMP = importlib.util.module_from_spec(_DUMP_SPEC)
_DUMP_SPEC.loader.exec_module(DUMP)


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
    # dual_value at zero shares is its shifted pass alone, F at psi.  Small
    # integer costs and potentials make ties common; +inf marks links no UAV
    # can use, and a quarter of the cells get none at all
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 4, size=(n_uavs, GRID.n_cells)).astype(float)
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, rng.random(GRID.n_cells) < 0.25] = np.inf
    psi = rng.integers(-2, 3, size=n_uavs).astype(float)
    shifted = costs - psi[:, None]
    covered = np.isfinite(shifted).any(axis=0)
    assert dual_value(GRID, costs, psi, np.zeros(n_uavs)) == pytest.approx(
        float(shifted.min(axis=0)[covered] @ GRID.cell_mass[covered]), rel=1e-12, abs=1e-15
    )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n_uavs=st.integers(1, 6), grid_cells=st.integers(1, 40),
       scale=st.sampled_from([1.0, 1e-3, 1e8]))
def test_shifted_pass_matches_buffer_reference(seed, n_uavs, grid_cells, scale):
    # real-valued and integer-tied costs with +inf links and unservable cells:
    # F (dual_value at zero shares) and the partition claimed at psi are bit
    # for bit those of the (n_uavs, n_cells) buffer
    rng = np.random.default_rng(seed)
    grid = uniform_density(1000.0, 1000.0, grid_cells, 3)
    if seed % 2:
        costs = rng.integers(0, 4, size=(n_uavs, grid.n_cells)).astype(float)
    else:
        costs = rng.normal(scale=scale, size=(n_uavs, grid.n_cells))
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, rng.random(grid.n_cells) < 0.25] = np.inf
    psi = rng.normal(scale=scale, size=n_uavs)
    claimed = assign_by_min_cost(grid, costs - psi[:, None])
    want, expected = shifted_pass_reference(grid, costs, psi, partition=True)
    assert dual_value(grid, costs, psi, np.zeros(n_uavs)) == want
    assert np.array_equal(claimed.assignment, expected.assignment)
    assert np.array_equal(claimed.masses, expected.masses)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n_rows=st.integers(1, 6), grid_cells=st.integers(1, 40))
def test_lower_envelope_is_the_column_minimum(seed, n_rows, grid_cells):
    # NaN and -inf propagate as in min, and a column of +inf stays +inf,
    # whether the rows are distinct arrays or one array rewritten per row
    rng = np.random.default_rng(seed)
    costs = rng.integers(-2, 3, size=(n_rows, grid_cells)).astype(float)
    bad = rng.random(costs.shape) < 0.3
    costs[bad] = rng.choice([np.inf, -np.inf, np.nan], size=int(bad.sum()))
    costs[:, rng.random(grid_cells) < 0.25] = np.inf
    want, best = costs.min(axis=0), np.empty(grid_cells)
    _lower_envelope(iter(costs), best)
    assert np.array_equal(best, want, equal_nan=True)
    _lower_envelope(_shifted_rows(costs, np.zeros(n_rows), np.empty(grid_cells)), best)
    assert np.array_equal(best, want, equal_nan=True)


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
    got = _finite_spread(costs, np.full(grid_cells, 7.0))  # a scratch row of stale values
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("n_cells", [37, 4101])
@pytest.mark.parametrize("n_uavs", [1, 3, 8])
def test_band_pairs_are_the_masses_within_each_band(n_cells, n_uavs):
    # pairs[l, i, j]: the mass of the cells claimed by i with runner-up j and
    # a gap in [2**-BAND_LEVELS, 2**-l); tied, unserved and unassigned cells
    # count in no band.  Dyadic masses make every sum exact in any order
    rng = np.random.default_rng(n_cells * 10 + n_uavs)
    gaps = 2.0 ** rng.uniform(-30, 2, n_cells)
    edges = rng.random(n_cells) < 0.2  # a gap at a band edge counts below it
    gaps[edges] = 2.0 ** -rng.integers(0, BAND_LEVELS + 1, int(edges.sum())).astype(float)
    gaps[rng.random(n_cells) < 0.05] = np.inf
    gaps[rng.random(n_cells) < 0.05] = 0.0
    gaps[rng.random(n_cells) < 0.05] = 5e-324
    codes = rng.integers(0, n_uavs + 1, n_cells).astype(np.uint8)
    runner = rng.integers(0, n_uavs, n_cells).astype(np.uint8)
    mass = rng.integers(1, 64, n_cells) / 1024.0
    mass.setflags(write=False)
    want = np.zeros((BAND_LEVELS, n_uavs, n_uavs))
    for level in range(BAND_LEVELS):
        inside = (codes > 0) & (gaps >= 2.0**-BAND_LEVELS) & (gaps < 2.0**-level)
        np.add.at(want[level], (codes[inside] - 1, runner[inside]), mass[inside])
    grid = type("Grid", (), {"cell_mass": mass})
    got = _band_pairs(grid, gaps.copy(), codes, runner, n_uavs, np.empty(n_cells))
    assert np.array_equal(got, want)


def check_random_ascent(seed, n_uavs, ascend, mixed=False):
    """Ascend a random integer-cost dual, drawn as scripts/dump_outputs.py
    draws the ascents it dumps, and check that the partition and F returned
    are the ones at the returned potentials."""
    grid, costs, start, shares, k = DUMP.random_ascent(seed, n_uavs, mixed)
    potentials = ascend_dual(grid, costs, start, shares, k, 1e-6 if ascend else np.inf, 1000)
    assert potentials.step_trace[0] == 0.0
    psi = potentials.psi
    expected = assign_by_min_cost(grid, costs - psi[:, None])
    assert np.array_equal(potentials.partition.assignment, expected.assignment)
    assert np.array_equal(potentials.partition.masses, expected.masses)
    assert np.all(psi[k == 0] == 0.0)
    # the last iterate's F, kept from its accepted trial, is a fresh evaluation
    # of F = psi . b - sum_i psi_i^2 / (2 k_i) over k_i > 0 + the shifted minimum
    curved = k > 0
    quadratic = float(psi @ shares) - 0.5 * float(psi[curved] / k[curved] @ psi[curved])
    assert potentials.f_trace[-1] == quadratic + shifted_pass_reference(grid, costs, psi)
    # the gap weighs each finite k_i by the squared miss of its priced mass
    masses = expected.masses
    aimed = np.where(curved, shares - psi / np.where(curved, k, 1.0), masses)
    finite = k < np.inf
    assert potentials.gap == pytest.approx(
        0.5 * float(k[finite] @ (masses[finite] - aimed[finite]) ** 2), rel=1e-12, abs=0.0)
    return potentials


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31), n_uavs=st.integers(1, 5), ascend=st.booleans(),
       mixed=st.booleans())
@example(seed=18, n_uavs=2, ascend=True, mixed=False)  # a kink where no step improves F
@example(seed=42900, n_uavs=5, ascend=True, mixed=False)  # zigzags across a kink
@example(seed=14796, n_uavs=5, ascend=True, mixed=False)
def test_ascent_returns_partition_at_its_potentials(seed, n_uavs, ascend, mixed):
    # integer costs and starting potentials tie often and +inf marks unusable
    # links; with ascend=False the ascent stops at its integer start, and at
    # a kink no ascent direction climbs the ascent returns instead of raising
    check_random_ascent(seed, n_uavs, ascend, mixed)


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


def test_tie_split_after_a_failed_newton_search_keeps_the_first_row_step():
    # seed 128, 2 UAVs, mixed: the Newton search fails at the start after 3
    # trials and the tie split replaces the first iterate, whose trace row
    # keeps its own step, 0.0, not the failed search's last damping 0.125
    potentials = check_random_ascent(128, 2, ascend=True, mixed=True)
    assert potentials.step_trace.tolist() == [0.0]


def claimed_state(grid, costs, psi, shares, curvature):
    """An ascent's state at its first iterate, claimed, as the rules see it."""
    state = _Ascent(grid, costs, psi, shares, curvature)
    _claim_iterate(state)
    return state


def rising_costs(rise, last):
    """Two UAVs on a 4 x 4 grid: the first costs 0 everywhere, the second
    rise * c on every cell c but the last, which costs last."""
    costs = np.zeros((2, 16))
    costs[1] = np.arange(16) * rise
    costs[1, 15] = last
    return uniform_density(1000.0, 1000.0, 4, 4), costs


def assert_kept_is_the_minimum_at(state, psi):
    assert np.array_equal(state.kept, (state.costs - psi[:, None]).min(axis=0))


def state_at_repeated_masses(seed, n_uavs):
    """The state of a random ascent, driven by its rules, at its first
    iterate whose masses repeat a visited iterate's."""
    state = claimed_state(*DUMP.random_ascent(seed, n_uavs, False))
    while len(state.pieces) == 1:
        state.psi, state.value, state.taken = _newton_rule(state) or _search_rule(state)
        _claim_iterate(state)
    return state


def recorded_backtracks(monkeypatch):
    """Record each _backtrack call's direction, start and result."""
    calls = []

    def record(s, direction, step, trials):
        result = _backtrack(s, direction, step, trials)
        calls.append((direction.copy(), step, result))
        return result

    monkeypatch.setattr(partition, "_backtrack", record)
    return calls


def test_search_rule_climbs_along_the_kink(monkeypatch):
    # the seed-42900 ascent of test_ascent_returns_partition_at_its_potentials
    # at its first repeated masses: the search moves along the least-norm
    # point of the pieces' directions, not along grad, and raises F
    state = state_at_repeated_masses(42900, 5)
    directions = np.array([_aim(state, m) - m for m in state.pieces])
    direction = _min_norm_point(directions)
    # no piece's direction lies on the far side of the least-norm point
    assert np.all(directions @ direction >= direction @ direction - 1e-12)
    calls = recorded_backtracks(monkeypatch)
    psi, value, step = _search_rule(state)
    assert value > state.value and step == state.step
    assert len(calls) == 1 and np.array_equal(calls[0][0], direction)
    assert np.array_equal(psi, state.psi + step * direction)
    assert_kept_is_the_minimum_at(state, psi)


def test_search_rule_searches_along_grad_when_the_kink_direction_fails(monkeypatch):
    # seed 1 with 2 UAVs: at the first repeated masses no step along the
    # kink's least-norm point raises F; the search along grad starts from the
    # same step, and the step kept is the grad climb's, not the kink trial's
    state = state_at_repeated_masses(1, 2)
    start = state.step
    calls = recorded_backtracks(monkeypatch)
    psi, value, step = _search_rule(state)
    (kink, kink_start, (_, kink_value)), (grad, grad_start, _) = calls
    assert not np.array_equal(kink, state.grad) and kink_value <= state.value
    assert np.array_equal(grad, state.grad) and kink_start == grad_start == start
    assert value > state.value and step == state.step == 0.25
    assert np.array_equal(psi, state.psi + step * state.grad)
    assert_kept_is_the_minimum_at(state, psi)


def test_newton_rule_returns_none_when_no_band_fits_its_move():
    # every UAV so stiff (k = 1e-20) that the Newton move is far below the
    # finest band: the rule evaluates nothing, and the next call skips it
    grid = uniform_density(1000.0, 1000.0, 4, 4)
    costs = np.random.default_rng(0).normal(size=(2, 16))
    state = claimed_state(grid, costs, np.zeros(2), np.full(2, 0.5), np.full(2, 1e-20))
    assert np.all(state.grad != 0)
    taken = state.taken
    assert _newton_rule(state) is None
    # a failed search leaves taken, the step that reached psi, alone
    assert state.failed and state.evals == 1 and state.taken == taken
    assert _newton_rule(state) is None
    assert not state.failed and state.evals == 1


@pytest.mark.parametrize("rise", [0.0, 1.0])
def test_search_rule_stops_at_the_step_floor(rise):
    # two equal cost rows on a 4 x 4 grid: every cell is tied and no step
    # along grad splits them, so the search halves until the move falls
    # below first_step * 2**-60, not into the denormals (1,077 evaluations)
    grid, costs = rising_costs(rise, 15.0 * rise)
    costs[0] = costs[1]
    state = claimed_state(grid, costs, np.zeros(2), np.full(2, 0.5), np.full(2, np.inf))
    assert _search_rule(state) is None
    assert state.step * np.abs(state.grad).max() < state.first_step * 2.0**-60
    assert state.evals <= 64
    potentials = ascend_dual(grid, costs, np.zeros(2), np.full(2, 0.5), np.full(2, np.inf),
                             1e-6, 1000)
    assert potentials.evals <= 100 and len(potentials.f_trace) == 1


def test_newton_rule_steps_beside_a_stiff_uav():
    # 1 / k_0 = 1e30 is finite, so UAV 0 is free; measured against the mean
    # of J's diagonal, which that 1 / k_0 sets, the regularizer would swamp
    # the other UAVs' band response and leave every band's move unfit
    grid = uniform_density(1000.0, 1000.0, 8, 8)
    costs = np.random.default_rng(1).normal(size=(3, 64))
    state = claimed_state(grid, costs, np.zeros(3), np.full(3, 1 / 3), np.array([1e-30, 1.0, 1.0]))
    psi, value, step = _newton_rule(state)
    assert value > state.value and not state.failed
    assert abs(psi[0]) < 1e-20 < np.abs(psi[1:]).min()


def test_search_rule_climbs_from_its_last_step():
    # from a last step of 2**-6 the first trial raises F and the climb doubles
    # it to 0.5, where half the cells have moved to the second UAV and F
    # peaks; kept holds the minimum at the trial returned
    grid, costs = rising_costs(1 / 16, 15 / 16)
    state = claimed_state(grid, costs, np.zeros(2), np.full(2, 0.5), np.full(2, np.inf))
    state.step = 2.0**-6
    psi, value, step = _search_rule(state)
    assert step == state.step == 0.5 and state.evals == 8
    assert np.array_equal(psi, 0.5 * state.grad) and value > state.value
    assert_kept_is_the_minimum_at(state, psi)
    assert assign_by_min_cost(grid, costs - psi[:, None]).masses.tolist() == [0.5, 0.5]


def test_tie_split_rule_moves_the_iterate_once():
    # every cell but the last is tied, within 2**-36 of its claim against a
    # cost spread of 1, and passes to the second UAV at its own step along
    # grad: the split stops halfway between the 8th and the 9th, where the
    # masses meet the shares, replaces the iterate and is not taken again
    grid, costs = rising_costs(2.0**-40, 1.0)
    state = claimed_state(grid, costs, np.zeros(2), np.full(2, 0.5), np.full(2, np.inf))
    assert state.masses.tolist() == [1.0, 0.0]
    psi, value, step = _tie_split_rule(state)
    assert np.array_equal(psi, 7.5 * 2.0**-40 * state.grad) and value >= state.value
    assert step == state.taken and state.split and state.visited == []
    assert state.evals == 3  # the minimum at psi again, then the split
    assert_kept_is_the_minimum_at(state, psi)
    assert assign_by_min_cost(grid, costs - psi[:, None]).masses.tolist() == [0.5, 0.5]
    assert _tie_split_rule(state) is None and state.evals == 3


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


def solved_potentials(cfg):
    """The potentials of every scenario cfg runs, in order."""
    grid = build_grid(cfg)
    radio = compute_radio_field(grid, build_uavs(cfg), build_channel(cfg))
    solved = []
    if cfg.scenario in ("1", "both"):
        solved.append(solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users,
                                      cfg.mass_tol, cfg.max_ascent_iter).potentials)
    if cfg.scenario in ("2", "both"):
        solved.append(solve_scenario2(grid, radio, cfg.load_bits, cfg.alpha, cfg.n_users,
                                      cfg.mass_tol, cfg.max_ascent_iter).potentials)
    return solved


@pytest.mark.parametrize("stem", [
    "fairness_vs_concentration", "service_vs_interference", "hover_vs_bandwidth",
    "hover_vs_control_weight", "hover_vs_fleet_size", "hover_vs_interference",
])
def test_sweep_scenes_meet_mass_tol_in_few_evaluations(stem):
    # every point of the configs the benchmark sweeps (its scenes at seed 0)
    # meets mass_tol within 20 dual evaluations, Newton steps first; the
    # step search alone took up to 26, and 105 on the sigma = 200 hot spot
    cfg = load_config(SCRIPTS / f"{stem}.ini")
    for value in cfg.sweep_values:
        (potentials,) = solved_potentials(apply_sweep(cfg, value))
        assert potentials.grad_trace[-1] <= cfg.mass_tol
        assert potentials.evals <= 20, (stem, value)


def test_fine_maps_scene_solves_in_few_evaluations():
    # the benchmark's 400 x 400 maps scene: both solves in at most 8
    # evaluations (20 and 10 by the step search alone)
    cfg = replace(load_config(SCRIPTS / "partition_maps.ini"), nx=400, ny=400)
    for potentials in solved_potentials(cfg):
        assert potentials.grad_trace[-1] <= cfg.mass_tol
        assert potentials.evals <= 8


@pytest.mark.parametrize("sigma, evals", [(50.0, 60), (100.0, 20), (200.0, 20)])
def test_hot_spots_solve_in_few_evaluations(sigma, evals):
    # the tight scenario-1 hot spots of the 200 x 200 default scene, where the
    # Newton step often fails and the step search takes over
    cfg = replace(ExperimentConfig(), scenario="1", sigma_x=sigma, sigma_y=sigma)
    (potentials,) = solved_potentials(cfg)
    assert potentials.grad_trace[-1] <= cfg.mass_tol
    assert potentials.evals <= evals


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
    with pytest.raises(ValueError, match="^assignment and masses must be 1-D$"):
        Partition(np.zeros((2, 2), dtype=int), np.array([1.0]))
    with pytest.raises(ValueError, match="^assignment and masses must be 1-D$"):
        Partition(np.array([0, 0]), np.array([[1.0]]))


@pytest.mark.parametrize("shape", [(5, GRID.n_cells - 1), (5, GRID.n_cells + 1), (GRID.n_cells,),
                                   (1, 5, GRID.n_cells)])
def test_costs_of_the_wrong_shape_rejected(shape):
    with pytest.raises(ValueError, match=r"^costs must be \(n_uavs, n_cells\)$"):
        assign_by_min_cost(GRID, np.zeros(shape))


def test_voronoi_symmetric_pair():
    grid = uniform_density(1000.0, 1000.0, 12, 12)
    uavs = [
        UavNode(x=250.0, y=500.0, altitude=200.0),
        UavNode(x=750.0, y=500.0, altitude=200.0),
    ]
    field = compute_radio_field(grid, uavs, ChannelParams())
    part = weighted_voronoi(grid, field)
    left = cell_centers(grid)[0] < 500.0
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


def test_voronoi_ties_on_equal_efficiency_go_to_the_lowest_index():
    # 2**60 and the next float up are two SINRs whose log2(1 + SINR) is the
    # same 60.0: the diagram reads the efficiency, so the lowest index wins
    # whichever UAV has the larger SINR
    grid = uniform_density(1000.0, 1000.0, 2, 1)
    low, high = 2.0**60, np.nextafter(2.0**60, np.inf)
    sinr = np.array([[low, high], [high, low]])
    eff = np.log2(1.0 + sinr)
    assert high > low and eff[0, 0] == eff[1, 0] == 60.0
    usable = np.ones((2, 2), dtype=bool)
    radio = RadioField(spectral_eff=eff, feasible_by_uav=usable, feasible=usable.any(axis=0),
                       bandwidths=np.ones(2))
    part = weighted_voronoi(grid, radio)
    assert part.assignment.tolist() == [0, 0]
    assert part.masses.tolist() == [1.0, 0.0]


def test_voronoi_skips_links_below_the_sinr_floor():
    # UAV 0 has the higher efficiency on every cell but is below its floor
    # on the second; no UAV serves the third
    grid = uniform_density(1000.0, 1000.0, 3, 1)
    sinr = np.array([[8.0, 8.0, 8.0], [1.0, 1.0, 1.0]])
    usable = np.array([[True, False, False], [True, True, False]])
    radio = RadioField(spectral_eff=np.log2(1.0 + sinr), feasible_by_uav=usable,
                       feasible=usable.any(axis=0), bandwidths=np.ones(2))
    part = weighted_voronoi(grid, radio)
    assert part.assignment.tolist() == [0, 1, INFEASIBLE]
    assert np.allclose(part.masses, [1 / 3, 1 / 3])


def test_partition_csv(tmp_path):
    costs = random_costs(9, n_uavs=2)
    part = assign_by_min_cost(GRID, costs)
    path = tmp_path / "partition.csv"
    partition_to_csv(GRID, part, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cell_x_m,cell_y_m,uav_index"
    assert len(lines) == GRID.n_cells + 1
    first = lines[1].split(",")
    assert float(first[0]) == GRID.column_x[0]
    assert int(first[2]) == part.assignment[0]


def assert_csv_matches_savetxt(grid, part, directory):
    # oracle: the np.savetxt call partition_to_csv replaced
    expected = Path(directory) / "savetxt.csv"
    np.savetxt(
        expected,
        np.column_stack([*cell_centers(grid), part.assignment]),
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
