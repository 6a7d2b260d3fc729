"""Grid construction, quadrature and density invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.grid import (
    AreaGrid,
    measure,
    truncated_gaussian,
    uniform_density,
)


def test_uniform_density_value():
    g = uniform_density(1000.0, 1000.0, 20, 20)
    assert np.allclose(g.density, 1e-6, rtol=0, atol=0)
    assert np.allclose(g.cell_mass, 1e-6 * 50.0 * 50.0)
    assert abs(g.cell_mass.sum() - 1.0) <= 1e-12


def test_cell_centers():
    g = uniform_density(100.0, 50.0, 4, 2)
    assert g.dx == 25.0 and g.dy == 25.0
    # first row runs along x, cell k = iy * nx + ix
    assert np.allclose(g.cell_x[:4], [12.5, 37.5, 62.5, 87.5])
    assert np.allclose(g.cell_y[:4], [12.5] * 4)
    assert np.allclose(g.cell_y[4:], [37.5] * 4)


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
    for k in (0, 7, nx * ny // 2, nx * ny - 1):
        expect = kern(g.cell_x[k], g.cell_y[k]) / total
        assert expect == pytest.approx(g.density[k], rel=1e-12)


def test_gaussian_corner_ratio():
    # the max/min density ratio equals the kernel ratio between the cell
    # centers nearest to the mean and nearest to the far corner, and stays
    # under exp(0.5 + 0.5 * (0.75^2 + 0.67^2)) for the reference hot spot
    g = truncated_gaussian(1000.0, 1000.0, 200, 200, 250.0, 330.0, 1000.0, 1000.0)
    ratio = g.density.max() / g.density.min()
    d2 = (g.cell_x - 250.0) ** 2 + (g.cell_y - 330.0) ** 2
    k_near = g.cell_x[np.argmin(d2)], g.cell_y[np.argmin(d2)]
    k_far = g.cell_x[np.argmax(d2)], g.cell_y[np.argmax(d2)]
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
    left = g.cell_x < 500.0
    assert measure(g, left) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_measure_additive_on_disjoint(seed):
    g = truncated_gaussian(1000.0, 1000.0, 20, 20, 400.0, 600.0, 500.0, 350.0)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, g.n_cells)
    parts = [measure(g, labels == k) for k in range(3)]
    assert sum(parts) == pytest.approx(1.0, abs=1e-12)


def test_refinement_stable_rectangle_measure():
    # halving the cell size moves a rectangle's measure by at most the
    # boundary-strip mass, which is O(1/nx + 1/ny)
    x0, x1, y0, y1 = 100.0, 600.0, 200.0, 500.0
    vals = []
    f_max = 0.0
    for n in (10, 20, 40, 80):
        g = truncated_gaussian(1000.0, 1000.0, n, n, 250.0, 330.0, 300.0, 300.0)
        inside = (g.cell_x > x0) & (g.cell_x < x1) & (g.cell_y > y0) & (g.cell_y < y1)
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
    with pytest.raises(ValueError):  # integrates to 2, not 1
        AreaGrid(1000.0, 1000.0, 2, 2, np.full(4, 2e-6))
    with pytest.raises(ValueError):
        AreaGrid(-1.0, 1000.0, 2, 2, np.full(4, 1e-6))
    with pytest.raises(ValueError):
        truncated_gaussian(1000.0, 1000.0, 4, 4, 0.0, 0.0, -5.0, 100.0)
    # the kernel needs sigma^2 to neither overflow nor underflow
    for sigma in (1e200, 1e-200):
        with pytest.raises(ValueError):
            truncated_gaussian(1000.0, 1000.0, 4, 4, 0.0, 0.0, 100.0, sigma)


@pytest.mark.filterwarnings("error")
def test_gaussian_far_mean_underflows_quietly():
    # squared offsets overflow to inf: zero density everywhere, no warning
    with pytest.raises(ValueError, match="underflows"):
        truncated_gaussian(1000.0, 1000.0, 4, 4, 1e200, 0.0, 100.0, 100.0)


def test_density_is_readonly():
    g = uniform_density(100.0, 100.0, 4, 4)
    with pytest.raises(ValueError):
        g.density[0] = 2.0


def test_mask_shape_checked():
    g = uniform_density(100.0, 100.0, 4, 4)
    with pytest.raises(ValueError):
        measure(g, np.ones(5, bool))
    with pytest.raises(ValueError):
        measure(g, np.ones(16))  # not boolean


def test_deterministic_construction():
    a = truncated_gaussian(1000.0, 1000.0, 64, 64, 250.0, 330.0, 200.0, 200.0)
    b = truncated_gaussian(1000.0, 1000.0, 64, 64, 250.0, 330.0, 200.0, 200.0)
    assert np.array_equal(a.density, b.density)

