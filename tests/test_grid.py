"""Grid construction, quadrature and density invariants."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.grid import (
    AreaGrid,
    truncated_gaussian,
    uniform_density,
)
from uavpart.partition import INFEASIBLE

from oracles import (
    cell_centers,
    gaussian_kernel_reference,
    region_masses,
    truncated_gaussian_reference,
)


def measure(g, mask):
    """User mass of a cell subset, read off region_masses."""
    return float(region_masses(g, np.where(mask, 0, INFEASIBLE), 1)[0])


def test_uniform_density_value():
    g = uniform_density(1000.0, 1000.0, 20, 20)
    assert np.allclose(g.density, 1e-6, rtol=0, atol=0)
    assert np.allclose(g.cell_mass, 1e-6 * 50.0 * 50.0)
    assert abs(g.cell_mass.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("nx, ny", [(1, 1), (7, 3), (3, 7), (200, 200)])
def test_separable_centers_are_the_flat_ones(nx, ny):
    # column_x tiled once per row and row_y repeated nx times are bit for bit
    # the flat centers of the index formula k % nx, k // nx
    g = uniform_density(1000.0, 700.0, nx, ny)
    k = np.arange(nx * ny)
    x, y = cell_centers(g)
    assert np.array_equal(x, (k % nx + 0.5) * g.dx)
    assert np.array_equal(y, (k // nx + 0.5) * g.dy)
    assert not (g.column_x.flags.writeable or g.row_y.flags.writeable)
    # and by hand on a 4 x 2 grid: the first row runs along x
    small = uniform_density(100.0, 50.0, 4, 2)
    assert small.dx == 25.0 and small.dy == 25.0
    x, y = cell_centers(small)
    assert np.array_equal(x, [12.5, 37.5, 62.5, 87.5] * 2)
    assert np.array_equal(y, [12.5] * 4 + [37.5] * 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y", [
    (1000.0, 1000.0, 1, 1, 250.0, 330.0, 1000.0, 1000.0),
    (1000.0, 1000.0, 7, 3, 250.0, 330.0, 300.0, 200.0),
    (1000.0, 1000.0, 3, 7, 250.0, 330.0, 300.0, 200.0),
    (1000.0, 1000.0, 1, 9, 250.0, 330.0, 300.0, 200.0),
    (1000.0, 1000.0, 200, 200, 250.0, 330.0, 100.0, 100.0),
    (1000.0, 300.0, 37, 23, 610.0, 45.0, 170.0, 90.0),  # non-square cells
    (1000.0, 800.0, 25, 20, -400.0, 1300.0, 350.0, 250.0),  # mean outside the area
    (1000.0, 1000.0, 30, 30, -9000.0, 500.0, 300.0, 400.0),  # far tails, tiny densities
    # col - row overflows on the far corner: -1e308 - 1e308 is -inf, no warning
    (2e154, 2e154, 2, 2, 0.5e154, 0.5e154, math.sqrt(0.5), math.sqrt(0.5)),
])
def test_gaussian_matches_per_cell_reference(width, height, nx, ny, mu_x, mu_y, sigma_x,
                                             sigma_y):
    # the separable kernel is bit for bit the per-cell one
    g = truncated_gaussian(width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y)
    expected = truncated_gaussian_reference(width, height, nx, ny, mu_x, mu_y, sigma_x,
                                            sigma_y)
    assert np.array_equal(g.density, expected)


def test_gaussian_matches_pointwise_kernel():
    # oracle: evaluate the kernel by hand at a few centers and renormalize
    w, h, nx, ny = 1000.0, 1000.0, 25, 20
    mux, muy, sx, sy = 250.0, 330.0, 400.0, 300.0
    g = truncated_gaussian(w, h, nx, ny, mux, muy, sx, sy)

    def kern(x, y):
        return math.exp(-((x - mux) ** 2) / (2 * sx**2) - ((y - muy) ** 2) / (2 * sy**2))

    total = sum(
        kern((i % nx + 0.5) * w / nx, (i // nx + 0.5) * h / ny) for i in range(nx * ny)
    ) * g.cell_area
    x, y = cell_centers(g)
    for k in (0, 7, nx * ny // 2, nx * ny - 1):
        expect = kern(x[k], y[k]) / total
        assert expect == pytest.approx(g.density[k], rel=1e-12)


def test_gaussian_corner_ratio():
    # the max/min density ratio equals the kernel ratio between the cell
    # centers nearest to the mean and nearest to the far corner, and stays
    # under exp(0.5 + 0.5 * (0.75^2 + 0.67^2)) for the reference hot spot
    g = truncated_gaussian(1000.0, 1000.0, 200, 200, 250.0, 330.0, 1000.0, 1000.0)
    ratio = g.density.max() / g.density.min()
    x, y = cell_centers(g)
    d2 = (x - 250.0) ** 2 + (y - 330.0) ** 2
    k_near = x[np.argmin(d2)], y[np.argmin(d2)]
    k_far = x[np.argmax(d2)], y[np.argmax(d2)]
    oracle = math.exp(
        (
            (k_far[0] - 250.0) ** 2 + (k_far[1] - 330.0) ** 2
            - (k_near[0] - 250.0) ** 2 - (k_near[1] - 330.0) ** 2
        )
        / (2 * 1000.0**2)
    )
    assert ratio == pytest.approx(oracle, rel=1e-12)
    assert ratio < math.exp(0.5 + 0.5 * (0.75**2 + 0.67**2))


def test_gaussian_huge_sigma_is_uniform():
    g = truncated_gaussian(1000.0, 1000.0, 50, 50, 250.0, 330.0, 1e9, 1e9)
    assert np.all(np.abs(g.density / 1e-6 - 1.0) <= 1e-6)


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.floats(50.0, 5000.0),
    mux=st.floats(-500.0, 1500.0),
    muy=st.floats(-500.0, 1500.0),
)
def test_gaussian_normalized(sigma, mux, muy):
    g = truncated_gaussian(1000.0, 800.0, 37, 23, mux, muy, sigma, sigma)
    assert abs(float(g.cell_mass.sum()) - 1.0) <= 1e-9
    assert np.all(g.density >= 0)


def test_measure_full_and_empty():
    g = truncated_gaussian(1000.0, 1000.0, 30, 30, 250.0, 330.0, 300.0, 300.0)
    assert measure(g, np.ones(g.n_cells, bool)) == pytest.approx(1.0, abs=1e-12)
    assert measure(g, np.zeros(g.n_cells, bool)) == 0.0


def test_measure_half_uniform():
    g = uniform_density(1000.0, 1000.0, 40, 40)
    left = cell_centers(g)[0] < 500.0
    assert measure(g, left) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_measure_additive_on_disjoint(seed):
    g = truncated_gaussian(1000.0, 1000.0, 20, 20, 400.0, 600.0, 500.0, 350.0)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, g.n_cells)
    parts = list(region_masses(g, labels, 3))
    assert sum(parts) == pytest.approx(1.0, abs=1e-12)


def test_refinement_stable_rectangle_measure():
    # halving the cell size moves a rectangle's measure by at most the
    # boundary-strip mass, which is O(1/nx + 1/ny)
    x0, x1, y0, y1 = 100.0, 600.0, 200.0, 500.0
    vals = []
    f_max = 0.0
    for n in (10, 20, 40, 80):
        g = truncated_gaussian(1000.0, 1000.0, n, n, 250.0, 330.0, 300.0, 300.0)
        x, y = cell_centers(g)
        inside = (x > x0) & (x < x1) & (y > y0) & (y < y1)
        vals.append(measure(g, inside))
        f_max = max(f_max, float(g.density.max()))
    perimeter = 2 * ((x1 - x0) + (y1 - y0))
    for n_coarse, va, vb in zip((10, 20, 40), vals, vals[1:]):
        bound = f_max * perimeter * 2 * (1000.0 / n_coarse)
        assert abs(vb - va) <= bound


def test_rejects_bad_density():
    with pytest.raises(ValueError):
        AreaGrid(1000.0, 1000.0, 2, 2, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        AreaGrid(1000.0, 1000.0, 2, 2, np.array([1e-6, 1e-6, 1e-6, -1e-6]))
    with pytest.raises(ValueError) as info:  # integrates to 2, printed as a plain float
        AreaGrid(1000.0, 1000.0, 2, 2, np.full(4, 2e-6))
    assert str(info.value) == f"density integrates to {8e-6 * 250000.0!r}, not 1"
    with pytest.raises(ValueError):
        AreaGrid(-1.0, 1000.0, 2, 2, np.full(4, 1e-6))
    for nx, ny in ((0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError, match="^grid must have at least one cell per axis$"):
            AreaGrid(1000.0, 1000.0, nx, ny, np.zeros(0))
    with pytest.raises(ValueError):
        truncated_gaussian(1000.0, 1000.0, 4, 4, 0.0, 0.0, -5.0, 100.0)
    # the kernel needs sigma^2 to neither overflow nor underflow
    for sigma in (1e200, 1e-200):
        with pytest.raises(ValueError):
            truncated_gaussian(1000.0, 1000.0, 4, 4, 0.0, 0.0, 100.0, sigma)


AREA_RULE = "^area dimensions must be positive with a finite, non-zero cell area$"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("build, args, message", [
    (uniform_density, (0.0, 1.0, 2, 2), AREA_RULE),
    (uniform_density, (1e-200, 1e-200, 2, 2), AREA_RULE),  # the cell area underflows to 0
    (uniform_density, (1e200, 1e200, 2, 2), AREA_RULE),  # the cell area overflows
    (uniform_density, (math.inf, 1.0, 2, 2), AREA_RULE),
    (truncated_gaussian, (-1.0, math.inf, 2, 2, 0.5, 0.5, 1.0, 1.0), AREA_RULE),
    (truncated_gaussian, (1.0, 1.0, 0, 2, 0.5, 0.5, 1.0, 1.0),
     "^grid must have at least one cell per axis$"),
])
def test_grid_constructors_reject_a_degenerate_area(build, args, message):
    # the first two raised ZeroDivisionError, and the next three warned
    # "invalid value encountered in scalar multiply" before the grid's rule
    # ran; the last divided by nx = 0
    with pytest.raises(ValueError, match=message):
        build(*args)


@pytest.mark.filterwarnings("error")
def test_gaussian_far_mean_underflows_quietly():
    # squared offsets overflow to inf: zero density everywhere, no warning
    with pytest.raises(ValueError, match="underflows"):
        truncated_gaussian(1000.0, 1000.0, 4, 4, 1e200, 0.0, 100.0, 100.0)


@st.composite
def hot_spots(draw):
    """A hot spot on a grid of 1 to 79 cells a side, sides of 0.1 m to
    100 km: its mean near the area; or one offset beyond the last cell center
    so far that the peak exponent is in [-760, -700], or within 1e-6 of the
    rule's threshold log(2**-1022 / min(cell area, 1)), and the other on a
    center; or an offset so large that its square, its exponent or the
    difference of the two exponents overflows."""
    width, height = draw(st.floats(0.1, 1e5)), draw(st.floats(0.1, 1e5))
    nx, ny = draw(st.integers(1, 79)), draw(st.integers(1, 79))
    sigma_x, sigma_y = (draw(st.one_of(st.floats(1e-2, 1e3), st.just(math.sqrt(0.5))))
                        for _ in range(2))
    mu_x, mu_y = (draw(st.floats(-2.0 * length, 3.0 * length)) for length in (width, height))
    kind = draw(st.sampled_from(["near", "threshold", "far"]))
    if kind == "threshold":
        edge = math.log(sys.float_info.min / min((width / nx) * (height / ny), 1.0))
        peak = draw(st.one_of(st.floats(-760.0, -700.0), st.floats(edge - 1e-6, edge + 1e-6)))
        mu_x = (nx - 0.5) * (width / nx) + math.sqrt(-2.0 * peak) * sigma_x
        mu_y = (draw(st.integers(0, ny - 1)) + 0.5) * (height / ny)
    elif kind == "far":
        mu_x = draw(st.sampled_from([1.3e154, -1.3e154, 1e200, -1e300]))
        if draw(st.booleans()):
            mu_y = draw(st.sampled_from([1.3e154, -1.3e154, 1e200, -1e300]))
    if draw(st.booleans()):  # the same cases along y
        width, height, nx, ny = height, width, ny, nx
        mu_x, mu_y, sigma_x, sigma_y = mu_y, mu_x, sigma_y, sigma_x
    return width, height, nx, ny, mu_x, mu_y, sigma_x, sigma_y


@pytest.mark.filterwarnings("error")
@settings(max_examples=400, deadline=None)
@given(hot_spots())
def test_hot_spot_is_accepted_when_its_peak_times_the_cell_area_is_normal(spot):
    # the full (ny, nx) kernel's largest entry times min(cell area, 1) must
    # be a normal float, overflowing offsets included; then the kernel sum S
    # and S * cell area are normal too and the grid builds, bit for bit the
    # per-cell reference
    width, height, nx, ny = spot[:4]
    cell_area = (width / nx) * (height / ny)
    kern = gaussian_kernel_reference(*spot)
    if kern.max() * min(cell_area, 1.0) >= sys.float_info.min:
        assert min(kern.sum(), kern.sum() * cell_area) >= sys.float_info.min
        grid = truncated_gaussian(*spot)
        assert np.array_equal(grid.density, truncated_gaussian_reference(*spot))
    else:
        with pytest.raises(ValueError, match="^hot spot density underflows on the grid$"):
            truncated_gaussian(*spot)


def test_density_is_readonly():
    g = uniform_density(100.0, 100.0, 4, 4)
    with pytest.raises(ValueError):
        g.density[0] = 2.0


def test_deterministic_construction():
    a = truncated_gaussian(1000.0, 1000.0, 64, 64, 250.0, 330.0, 200.0, 200.0)
    b = truncated_gaussian(1000.0, 1000.0, 64, 64, 250.0, 330.0, 200.0, 200.0)
    assert np.array_equal(a.density, b.density)

