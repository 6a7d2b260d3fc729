"""Channel model oracles: LoS probability, path loss chain, SINR fields."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavpart.channel as channel_module
from uavpart.channel import (
    ChannelParams,
    UavNode,
    _los_from_squared_range,
    _squared_range,
    compute_radio_field,
    db_to_linear,
    dbm_to_watts,
    mean_path_loss,
)
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs, place_uavs_grid
from uavpart.grid import truncated_gaussian, uniform_density

from oracles import cell_centers, links_reference, links_uav_by_uav, radio_field_reference

TABLE = ChannelParams()  # reference constants: 2 GHz, 3/23 dB, -170 dBm/Hz


def los_probability(uav, x, y, params):
    """The LoS probability at ground point(s), as mean_path_loss computes it."""
    d2 = _squared_range(uav, x, y)
    return _los_from_squared_range(uav, d2, params, out=d2)


def test_unit_helpers():
    assert db_to_linear(3.0) == pytest.approx(10**0.3, rel=1e-15)
    assert db_to_linear(0.0) == 1.0
    assert dbm_to_watts(-170.0) == pytest.approx(1e-20, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


def test_reference_loss_value():
    # (4 pi f / c)^2 at 2 GHz and 1 m, c = 3e8 m/s
    oracle = (4.0 * math.pi * 2.0e9 / 3.0e8) ** 2
    assert TABLE.reference_loss == pytest.approx(oracle, rel=1e-15)
    assert oracle == pytest.approx(7018.4, rel=1e-4)


def test_los_overhead_oracle():
    # directly overhead the elevation is 90 degrees
    uav = UavNode(x=500.0, y=500.0, altitude=200.0)
    p = los_probability(uav, np.array([500.0]), np.array([500.0]), TABLE)
    oracle = 0.36 * (90.0 - 15.0) ** 0.21
    assert p[0] == pytest.approx(oracle, rel=1e-12)
    assert p[0] == pytest.approx(0.891, abs=1e-3)


def test_los_zero_at_and_below_15_degrees():
    uav = UavNode(x=0.0, y=0.0, altitude=200.0)
    r15 = 200.0 / math.tan(math.radians(15.0))
    r = np.array([r15, r15 * 1.5, r15 * 10.0])
    p = los_probability(uav, r, np.zeros(3), TABLE)
    assert np.all(p <= 1e-12)
    p16 = los_probability(
        uav, np.array([200.0 / math.tan(math.radians(16.0))]), np.zeros(1), TABLE
    )
    assert p16[0] > 0.0


def test_los_monotone_in_elevation():
    uav = UavNode(x=0.0, y=0.0, altitude=200.0)
    radii = np.linspace(10.0, 700.0, 80)
    p = los_probability(uav, radii, np.zeros(80), TABLE)
    # closer ground distance means higher elevation means more LoS
    assert np.all(np.diff(p) <= 1e-15)
    assert p[0] > p[-1]


def test_los_clipped_at_one():
    params = ChannelParams(b1=1.0, b2=1.0)
    uav = UavNode(x=0.0, y=0.0, altitude=200.0)
    p = los_probability(uav, np.array([0.0]), np.array([0.0]), params)
    assert p[0] == 1.0


def test_los_continuous_at_boundary():
    # p -> 0 from above as the elevation approaches 15 degrees
    uav = UavNode(x=0.0, y=0.0, altitude=200.0)
    deltas = np.array([1e-3, 1e-6, 1e-9, 1e-12])
    radii = 200.0 / np.tan(np.radians(15.0 + deltas))
    p = los_probability(uav, radii, np.zeros(len(radii)), TABLE)
    assert np.all(np.diff(p) <= 0)
    assert p[-1] <= 5e-3


def test_path_loss_equal_mu_collapses():
    params = ChannelParams(mu_los=5.0, mu_nlos=5.0)
    uav = UavNode(x=100.0, y=200.0, altitude=150.0)
    x, y = np.array([400.0]), np.array([600.0])
    d2 = 300.0**2 + 400.0**2 + 150.0**2
    oracle = params.reference_loss * d2 * 5.0
    assert mean_path_loss(uav, x, y, params)[0] == pytest.approx(oracle, rel=1e-12)


def test_path_loss_overhead_chain_oracle():
    # full chain at the reference constants, 200 m overhead, by hand:
    # K_o * d^2 * (p * mu_los + (1 - p) * mu_nlos)
    uav = UavNode(x=500.0, y=500.0, altitude=200.0)
    k_o = (4.0 * math.pi * 2.0e9 / 3.0e8) ** 2
    p = 0.36 * 75.0**0.21
    mu_eff = p * 10**0.3 + (1.0 - p) * 10**2.3
    oracle = k_o * 200.0**2 * mu_eff
    got = mean_path_loss(uav, np.array([500.0]), np.array([500.0]), TABLE)[0]
    assert got == pytest.approx(oracle, rel=1e-12)
    # and the radio field's power at 0.5 W, in the cell under the UAV, lands
    # near 7.6e-11 W
    grid = uniform_density(1000.0, 1000.0, 11, 11)  # odd: a cell center at 500,500
    pr = compute_radio_field(grid, [uav], TABLE).power[0, 60]
    assert pr == pytest.approx(0.5 / oracle, rel=1e-12)
    assert pr == pytest.approx(7.6e-11, rel=0.02)


def test_path_loss_distance_squared():
    # doubling the link distance at a fixed elevation quadruples the loss
    uav1 = UavNode(x=0.0, y=0.0, altitude=200.0)
    uav2 = UavNode(x=0.0, y=0.0, altitude=400.0)
    l1 = mean_path_loss(uav1, np.array([300.0]), np.array([0.0]), TABLE)[0]
    l2 = mean_path_loss(uav2, np.array([600.0]), np.array([0.0]), TABLE)[0]
    assert l2 == pytest.approx(4.0 * l1, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("altitude, carrier_hz", [(1e153, 2e9), (200.0, 1e160)])
def test_path_loss_overflow_carries_no_power(altitude, carrier_hz):
    # a loss beyond the float range is +inf, so no power arrives, with no warning
    uav = UavNode(x=0.0, y=0.0, altitude=altitude)
    params = ChannelParams(carrier_hz=carrier_hz)
    x, y = np.array([0.0, 300.0]), np.array([0.0, 400.0])
    assert np.all(mean_path_loss(uav, x, y, params) == np.inf)
    field = compute_radio_field(uniform_density(1000.0, 1000.0, 3, 2), [uav], params)
    assert np.all(field.power == 0.0)


def test_received_power_zero_power():
    # a 0 W UAV's row of the power layer is 0 W, next to a UAV that transmits
    grid = uniform_density(1000.0, 1000.0, 4, 3)
    uavs = [UavNode(x=0.0, y=0.0, altitude=100.0, power=0.0),
            UavNode(x=500.0, y=500.0, altitude=100.0)]
    power = compute_radio_field(grid, uavs, TABLE).power
    assert np.all(power[0] == 0.0)
    assert np.all(power[1] > 0.0)


def test_single_uav_sinr_is_snr():
    grid = uniform_density(1000.0, 1000.0, 12, 12)
    uav = UavNode(x=400.0, y=700.0, altitude=200.0, power=0.5, bandwidth=1e6)
    field = compute_radio_field(grid, [uav], TABLE)
    pr = uav.power / mean_path_loss(uav, *cell_centers(grid), TABLE)
    snr = pr / (TABLE.noise_w_per_hz * 1e6)
    assert np.allclose(field.sinr[0], snr, rtol=1e-12)
    assert np.allclose(field.spectral_eff[0], np.log2(1.0 + snr), rtol=1e-12)


def test_beta_zero_matches_isolated_links():
    grid = uniform_density(1000.0, 1000.0, 10, 10)
    uavs = [
        UavNode(x=250.0, y=250.0, altitude=200.0),
        UavNode(x=750.0, y=250.0, altitude=200.0),
        UavNode(x=500.0, y=750.0, altitude=200.0),
    ]
    quiet = ChannelParams(beta=0.0)
    field = compute_radio_field(grid, uavs, quiet)
    for i, uav in enumerate(uavs):
        alone = compute_radio_field(grid, [uav], quiet)
        assert np.allclose(field.sinr[i], alone.sinr[0], rtol=1e-12)


def test_two_uav_sinr_oracle():
    # symmetric pair, center cell: recompute the SINR by scalar arithmetic
    grid = uniform_density(1000.0, 1000.0, 11, 11)  # odd: a cell center at 500,500
    uavs = [
        UavNode(x=300.0, y=500.0, altitude=200.0),
        UavNode(x=700.0, y=500.0, altitude=200.0),
    ]
    field = compute_radio_field(grid, uavs, TABLE)
    mid = 60  # iy=5, ix=5
    x, y = cell_centers(grid)
    assert x[mid] == 500.0 and y[mid] == 500.0
    p0, p1 = (u.power / mean_path_loss(u, 500.0, 500.0, TABLE) for u in uavs)
    noise = TABLE.noise_w_per_hz * 1e6
    assert field.sinr[0, mid] == pytest.approx(p0 / (1.0 * p1 + noise), rel=1e-12)
    assert field.sinr[1, mid] == pytest.approx(p1 / (1.0 * p0 + noise), rel=1e-12)
    assert field.sinr[0, mid] == pytest.approx(field.sinr[1, mid], rel=1e-12)


def test_sinr_decreases_with_beta():
    grid = uniform_density(1000.0, 1000.0, 9, 9)
    uavs = [
        UavNode(x=250.0, y=400.0, altitude=200.0),
        UavNode(x=750.0, y=600.0, altitude=200.0),
    ]
    prev = None
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        field = compute_radio_field(grid, uavs, ChannelParams(beta=beta))
        if prev is not None:
            assert np.all(field.sinr <= prev + 1e-18)
        prev = field.sinr


def test_feasibility_masks():
    grid = uniform_density(1000.0, 1000.0, 8, 8)
    uavs = [
        UavNode(x=250.0, y=500.0, altitude=200.0),
        UavNode(x=750.0, y=500.0, altitude=200.0),
    ]
    field = compute_radio_field(grid, uavs, TABLE)
    assert np.array_equal(field.feasible, field.feasible_by_uav.any(axis=0))
    # a threshold exactly at an observed SINR keeps that link feasible
    pick = float(field.sinr[0, 3])
    exact = compute_radio_field(grid, uavs, ChannelParams(sinr_threshold=pick))
    assert exact.feasible_by_uav[0, 3]
    above = compute_radio_field(
        grid, uavs, ChannelParams(sinr_threshold=pick * (1 + 1e-9))
    )
    assert not above.feasible_by_uav[0, 3]


def test_field_arrays_readonly():
    grid = uniform_density(1000.0, 1000.0, 5, 5)
    field = compute_radio_field(grid, [UavNode(x=500.0, y=500.0, altitude=200.0)], TABLE)
    with pytest.raises(ValueError):
        field.sinr[0, 0] = 1.0


def test_empty_fleet_rejected():
    grid = uniform_density(1000.0, 1000.0, 5, 5)
    with pytest.raises(ValueError):
        compute_radio_field(grid, [], TABLE)


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(mu_los=0.5)
    with pytest.raises(ValueError):
        ChannelParams(beta=1.5)
    with pytest.raises(ValueError):
        ChannelParams(sinr_threshold=0.0)
    with pytest.raises(ValueError):
        ChannelParams(noise_w_per_hz=0.0)
    with pytest.raises(ValueError):
        UavNode(x=0.0, y=0.0, altitude=0.0)
    with pytest.raises(ValueError):
        UavNode(x=0.0, y=0.0, altitude=100.0, bandwidth=0.0)
    with pytest.raises(ValueError, match="^transmit power must be non-negative$"):
        UavNode(x=0.0, y=0.0, altitude=100.0, power=-0.5)
    # the path loss needs (4 pi f / c)^2 to neither overflow nor underflow
    for carrier_hz in (1e200, 1e-200, -1.0):
        with pytest.raises(ValueError):
            ChannelParams(carrier_hz=carrier_hz)
    # the slant range needs altitude^2 to neither overflow nor underflow
    for altitude in (1e200, 1e-200, -5.0):
        with pytest.raises(ValueError):
            UavNode(x=0.0, y=0.0, altitude=altitude)


FIELDS = ("power", "sinr", "spectral_eff", "feasible_by_uav", "feasible", "bandwidths")
FLEET = [UavNode(x=250.0, y=400.0, altitude=200.0),
         UavNode(x=750.0, y=600.0, altitude=150.0, bandwidth=2e6)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("grid, uavs, params", [
    (uniform_density(1000.0, 1000.0, 7, 3), FLEET, TABLE),  # non-square
    (uniform_density(1000.0, 1000.0, 3, 7), FLEET, TABLE),
    (uniform_density(1000.0, 1000.0, 1, 1), FLEET, TABLE),
    (truncated_gaussian(1000.0, 800.0, 13, 9, 300.0, 500.0, 150.0, 100.0), FLEET,
     ChannelParams(beta=0.0)),
    (uniform_density(1000.0, 1000.0, 12, 12), FLEET, ChannelParams(beta=0.37)),
    (uniform_density(1000.0, 1000.0, 12, 12),  # a silent UAV
     FLEET + [UavNode(x=500.0, y=500.0, altitude=100.0, power=0.0)], TABLE),
    (uniform_density(1000.0, 1000.0, 6, 5),  # a UAV far outside the area
     FLEET + [UavNode(x=-4.0e4, y=2.5e5, altitude=300.0)], TABLE),
    (uniform_density(1000.0, 1000.0, 6, 5),  # a loss beyond the float range
     FLEET + [UavNode(x=0.0, y=0.0, altitude=1e153)], TABLE),
    (uniform_density(1000.0, 1000.0, 6, 5), FLEET, ChannelParams(carrier_hz=1e160)),
    (uniform_density(1000.0, 1000.0, 200, 200), FLEET * 3, TABLE),
])
def test_radio_field_matches_whole_array_reference(grid, uavs, params):
    # the in-place, row-per-UAV field is bit for bit the whole-array one
    field = compute_radio_field(grid, uavs, params)
    expected = radio_field_reference(grid, uavs, params)
    links = dict(zip(("power", "sinr"), links_reference(grid, uavs, params)))
    for name in FIELDS:
        got = getattr(field, name)
        want = links[name] if name in links else getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert not got.flags.writeable, name


def test_channel_chain_accepts_scalars():
    uav = UavNode(x=0.0, y=0.0, altitude=200.0)
    arrays = mean_path_loss(uav, np.array([300.0]), np.array([400.0]), TABLE)
    assert float(mean_path_loss(uav, 300.0, 400.0, TABLE)) == arrays[0]
    assert float(los_probability(uav, 300.0, 400.0, TABLE)) == los_probability(
        uav, np.array([300.0]), np.array([400.0]), TABLE)[0]


@st.composite
def mirrored_fleets(draw):
    """A grid, a fleet and channel constants whose UAVs often mirror one
    another: a block-grid fleet, plus copies of its UAVs that are exact
    duplicates, mirrors across the area's midlines or 1 ulp off a UAV or a
    mirror, with altitudes and powers equal or not."""
    width, height = draw(st.sampled_from([(1000.0, 1000.0), (1000.0, 600.0), (700.0, 1300.0)]))
    grid = uniform_density(width, height, draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    fleet = place_uavs_grid(width, height, draw(st.integers(1, 6)), 200.0, 0.5, 1e6)
    def ulp(v):
        return float(np.nextafter(v, math.inf))

    moves = {"copy": lambda u: (u.x, u.y), "mirror_x": lambda u: (width - u.x, u.y),
             "mirror_y": lambda u: (u.x, height - u.y),
             "mirror_x_ulp": lambda u: (ulp(width - u.x), u.y),
             "x_ulp": lambda u: (ulp(u.x), u.y), "y_ulp": lambda u: (u.x, ulp(u.y))}
    for k, move in draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(sorted(moves))),
                                 max_size=3)):
        u = fleet[k % len(fleet)]
        x, y = moves[move](u)
        fleet.append(replace(u, x=x, y=y))
    for k in draw(st.lists(st.integers(0, len(fleet) - 1), max_size=2)):
        fleet[k] = replace(fleet[k], altitude=150.0)
    for k in draw(st.lists(st.integers(0, len(fleet) - 1), max_size=2)):
        fleet[k] = replace(fleet[k], power=0.25)
    return grid, fleet, ChannelParams(beta=draw(st.sampled_from([1.0, 0.37, 0.0])))


@settings(max_examples=150, deadline=None)
@given(mirrored_fleets())
def test_mirrored_uavs_match_a_field_built_uav_by_uav(scene):
    # a UAV whose power is copied from a mirror is bit for bit the one its
    # own path loss gives
    grid, fleet, params = scene
    field = compute_radio_field(grid, fleet, params)
    expected = radio_field_reference(grid, fleet, params, links=links_uav_by_uav)
    links = dict(zip(("power", "sinr"), links_uav_by_uav(grid, fleet, params)))
    for name in FIELDS:
        want = links[name] if name in links else getattr(expected, name)
        assert np.array_equal(getattr(field, name), want), name


@pytest.mark.parametrize("n_uavs, built", [(5, 3), (4, 1), (2, 1), (7, 7)])
def test_mirrored_uavs_build_their_path_loss_once(monkeypatch, n_uavs, built):
    # the 5-UAV block grid mirrors its top row onto its bottom row; every
    # UAV of the 2 x 2 grid mirrors the first; the thirds of a 3 x 3 grid
    # mirror no UAV exactly
    cfg = replace(ExperimentConfig(), n_uavs=n_uavs)
    calls = []
    path_loss_in = channel_module._path_loss_in

    def counted(*args):
        calls.append(args[0])
        return path_loss_in(*args)

    monkeypatch.setattr(channel_module, "_path_loss_in", counted)
    compute_radio_field(build_grid(cfg), build_uavs(cfg), build_channel(cfg))
    assert len(calls) == built


@pytest.mark.parametrize("powers, built", [((0.0, -0.0), 2), ((0.0, 0.0), 1)])
def test_mirror_key_is_the_bits_of_the_power(monkeypatch, powers, built):
    # the UAVs mirror each other across the vertical midline; 0.0 and -0.0
    # are equal as floats, so a key that compared floats would copy the
    # first UAV's +0.0 row to the second, which np.array_equal cannot see
    grid = uniform_density(1000.0, 1000.0, 8, 4)  # cell centers at 125 m steps
    fleet = [UavNode(x=250.0, y=500.0, altitude=200.0, power=powers[0]),
             UavNode(x=750.0, y=500.0, altitude=200.0, power=powers[1])]
    calls = []
    path_loss_in = channel_module._path_loss_in

    def counted(*args):
        calls.append(args[0])
        return path_loss_in(*args)

    monkeypatch.setattr(channel_module, "_path_loss_in", counted)
    field = compute_radio_field(grid, fleet, TABLE)
    assert len(calls) == built
    for mine, want in zip(field.power, links_uav_by_uav(grid, fleet, TABLE)[0]):
        assert mine.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_noise_that_underflows_where_nothing_interferes_is_a_value_error():
    # N0 B = 1e-20 * 1e-320 is 0: with beta = 0 nothing interferes, so the
    # SINR of the second UAV was power / 0 = inf and a RuntimeWarning
    grid = uniform_density(1000.0, 1000.0, 6, 4)
    fleet = [FLEET[0], replace(FLEET[1], bandwidth=1e-320)]
    with pytest.raises(ValueError, match=r"^the noise N0 B_i of UAV 1 underflows to 0"):
        compute_radio_field(grid, fleet, ChannelParams(beta=0.0))
    # interference keeps the SINR finite
    field = compute_radio_field(grid, fleet, TABLE)
    assert np.isfinite(field.spectral_eff).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fleet, params, uav", [
    # 1e300 W over a loss near 1e-20 (a 1 mHz carrier) is inf: the divide
    # overflowed, and the SINR was NaN
    ([FLEET[0], replace(FLEET[1], power=1e300)], ChannelParams(carrier_hz=1e-3), 1),
    # N0 B = 1e297 * 1e300 is inf: the multiply overflowed, and the SINR was 0
    ([FLEET[0], replace(FLEET[1], bandwidth=1e300)], ChannelParams(noise_w_per_hz=1e297), 1),
    # every power is finite, but five of them summed at a cell are not: the
    # reduce overflowed, and every SINR there was 0
    (place_uavs_grid(1000.0, 1000.0, 5, 200.0, 1.7e308, 1e6), ChannelParams(carrier_hz=19300.0),
     0),
], ids=["power", "noise", "power_sum"])
def test_radio_field_that_overflows_names_the_uav(fleet, params, uav):
    grid = uniform_density(1000.0, 1000.0, 8, 8)
    with pytest.raises(ValueError, match=rf"^the noise N0 B_i of UAV {uav} overflows a float, "
                                         r"or a received power or its SINR does$"):
        compute_radio_field(grid, fleet, params)


EXTREMES = [5e-324, 1e-320, 0.0, 1e300, 1.7e308]


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), n_uavs=st.integers(1, 5),
       power=st.sampled_from([0.5, *EXTREMES]),
       carrier_hz=st.sampled_from([2e9, 1e-3, 19300.0, *EXTREMES]),
       noise_dbm_per_hz=st.sampled_from([-170.0, 3000.0, *EXTREMES]),
       bandwidth=st.sampled_from([1e6, *EXTREMES]), beta=st.sampled_from([1.0, 0.37, *EXTREMES]))
def test_radio_field_is_finite_or_a_value_error(nx, ny, n_uavs, **values):
    # a scene the constructors accept either gets a finite spectral
    # efficiency on every link or a ValueError, never a RuntimeWarning
    cfg = replace(ExperimentConfig(), nx=nx, ny=ny, n_uavs=n_uavs, **values)
    try:
        field = compute_radio_field(build_grid(cfg), build_uavs(cfg), build_channel(cfg))
    except ValueError:
        return
    assert np.isfinite(field.spectral_eff).all()
