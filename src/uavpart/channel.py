"""Air-to-ground channel model: elevation-dependent LoS mixing, mean path
loss, SINR with scalable interference, and spectral efficiency fields."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s


def db_to_linear(value_db):
    """Power ratio from decibels; ValueError when the ratio overflows a float."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise ValueError(f"{value_db:g} dB overflows a linear power ratio") from None


def dbm_to_watts(value_dbm):
    """Watts from dBm."""
    return db_to_linear(value_dbm - 30.0)


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and interference constants shared by all links.

    mu_los and mu_nlos are linear excess-loss factors (>= 1), beta scales the
    co-channel interference between 0 (orthogonal bands) and 1 (full reuse),
    and sinr_threshold is the linear SINR floor below which a link cannot
    serve a user.
    """

    carrier_hz: float = 2.0e9
    mu_los: float = db_to_linear(3.0)
    mu_nlos: float = db_to_linear(23.0)
    b1: float = 0.36
    b2: float = 0.21
    noise_w_per_hz: float = dbm_to_watts(-170.0)
    beta: float = 1.0
    sinr_threshold: float = db_to_linear(-20.0)

    def __post_init__(self):
        # the path loss needs reference_loss as a positive finite float
        k = 4.0 * np.pi * self.carrier_hz / SPEED_OF_LIGHT
        if not (self.carrier_hz > 0 and 0.0 < k * k < math.inf):
            raise ValueError(
                "carrier frequency must be positive with a finite, non-zero reference loss"
            )
        if self.mu_los < 1.0 or self.mu_nlos < 1.0:
            raise ValueError("excess loss factors must be >= 1 in linear units")
        if self.b1 <= 0 or self.b2 <= 0:
            raise ValueError("LoS fit constants must be positive")
        if self.noise_w_per_hz <= 0:
            raise ValueError("noise density must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.sinr_threshold <= 0:
            raise ValueError("SINR threshold must be positive")

    @cached_property
    def reference_loss(self):
        """Free-space loss at the 1 m reference distance, (4 pi f / c)^2."""
        return (4.0 * np.pi * self.carrier_hz / SPEED_OF_LIGHT) ** 2


@dataclass(frozen=True)
class UavNode:
    """One hovering base station: position, altitude and radio budget."""

    x: float
    y: float
    altitude: float
    power: float = 0.5
    bandwidth: float = 1.0e6

    def __post_init__(self):
        # the link geometry needs altitude^2 as a positive finite float
        if not (self.altitude > 0 and 0.0 < self.altitude * self.altitude < math.inf):
            raise ValueError("altitude must be positive with a finite, non-zero square")
        if self.power < 0:
            raise ValueError("transmit power must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


def _squared_range(uav, x, y):
    """Squared link distance in m^2 from ground point(s) to the UAV, one fresh
    array: x and y may be a grid's separable column and row coordinates."""
    d2 = np.asarray(np.add((x - uav.x) ** 2, (y - uav.y) ** 2))
    d2 += uav.altitude**2
    return d2


def _los_from_squared_range(uav, d2, params, out):
    """Line-of-sight probability b1 (elevation_deg - 15)^b2, clipped to [0, 1],
    from the squared range d2, built in out."""
    p = np.sqrt(d2, out=out)
    np.divide(uav.altitude, p, out=p)
    np.arcsin(p, out=p)
    p *= 180.0 / np.pi  # np.degrees bit for bit: NumPy defines it as this product
    p -= 15.0
    np.maximum(p, 0.0, out=p)
    p **= params.b2
    p *= params.b1
    return np.minimum(p, 1.0, out=p)


def mean_path_loss(uav, x, y, params):
    """LoS/NLoS-averaged path loss as a linear power ratio.

    reference_loss * d^2 * (P_los * mu_los + (1 - P_los) * mu_nlos).  A loss
    beyond the float range is +inf: the link then carries no power.  The
    squared range is computed once and the loss built over it in place.
    """
    with np.errstate(over="ignore"):
        loss = _squared_range(uav, x, y)
        p = _los_from_squared_range(uav, loss, params, out=np.empty_like(loss))
        loss *= params.reference_loss
        nlos = np.subtract(1.0, p)
        nlos *= params.mu_nlos
        p *= params.mu_los
        p += nlos
        loss *= p
        return loss


def received_power(uav, x, y, params):
    """Mean received power in watts at ground point(s)."""
    loss = mean_path_loss(uav, x, y, params)
    return np.divide(uav.power, loss, out=loss)


@dataclass(frozen=True)
class RadioField:
    """Per-UAV link quantities over the grid cells, all arrays read-only.

    power, sinr and spectral_eff are (n_uavs, n_cells); feasible_by_uav marks
    links at or above the SINR floor and feasible marks cells that some UAV
    can serve.
    """

    power: np.ndarray
    sinr: np.ndarray
    spectral_eff: np.ndarray
    feasible_by_uav: np.ndarray
    feasible: np.ndarray
    bandwidths: np.ndarray

    @property
    def n_uavs(self):
        return self.power.shape[0]


def _per_uav(value, n_uavs, name, positive=False):
    """value as n_uavs floats, broadcast from one value or checked for one per
    UAV; ValueError for no UAVs, a wrong length or an out-of-range entry."""
    if n_uavs < 1:
        raise ValueError("need at least one UAV")
    value = np.asarray(value, dtype=float)
    if value.ndim > 1 or value.size not in (1, n_uavs):
        raise ValueError(f"got {value.size} values of {name} for {n_uavs} UAVs")
    value = np.broadcast_to(value, n_uavs)
    if not np.all(np.isfinite(value) & (value > 0 if positive else value >= 0)):
        rule = "positive and finite" if positive else "finite and non-negative"
        raise ValueError(f"every {name} must be {rule}")
    return value


def compute_radio_field(grid, uavs, params):
    """Evaluate every UAV-to-cell link on the grid.

    Interference at a cell for UAV i is beta times the received power of all
    other UAVs; noise is the spectral density times UAV i's own bandwidth.
    Spectral efficiency is log2(1 + SINR).

    Each UAV's received power is computed over the grid's separable column
    and row coordinates into its row of the power field, and the SINR and
    spectral efficiency are each worked in place.  power, sinr and
    spectral_eff are the three layers of one float64 (3, n_uavs, n_cells)
    allocation, the largest array of a scene.  glibc sets its mmap threshold
    to the largest mmapped block freed so far and trims the heap top only
    past twice that, so a process that runs scene after scene (a sweep,
    scripts/run_figures.py, the benchmark) keeps reusing its heap instead of
    handing it back and faulting it in again.  The solvers release their
    (n_uavs, n_cells) cost field before the per-cell reports, which keeps a
    200 x 200 scene of 5 UAVs inside that margin; one scene alone in a fresh
    process still faults its memory in once.  All 8 committed configs run in
    one process with 14.6k minor page faults, against 30.5k before the field
    became one allocation, and a steady-state pass of the perfbench sweeps
    faults 0 to 4 times (fair-sweep, maps-fine) or about 1,980 times
    (hover-sweep, all in its 6-UAV scene and the scene after it); see
    BENCH_17.json.
    """
    if len(uavs) == 0:
        raise ValueError("need at least one UAV")
    x, y = grid.column_x, grid.row_y[:, None]
    fields = np.empty((3, len(uavs), grid.ny, grid.nx))
    for row, u in zip(fields[0], uavs):
        row[...] = received_power(u, x, y, params)
    power, sinr, spectral_eff = fields.reshape(3, len(uavs), grid.n_cells)
    bandwidths = np.array([u.bandwidth for u in uavs], dtype=float)
    noise = params.noise_w_per_hz * bandwidths
    # sinr = power / (beta * (total - power) + noise), built in its layer
    np.subtract(power.sum(axis=0), power, out=sinr)
    sinr *= params.beta
    sinr += noise[:, None]
    np.divide(power, sinr, out=sinr)
    np.add(1.0, sinr, out=spectral_eff)
    np.log2(spectral_eff, out=spectral_eff)
    feasible_by_uav = sinr >= params.sinr_threshold
    feasible = feasible_by_uav.any(axis=0)
    for arr in (power, sinr, spectral_eff, feasible_by_uav, feasible, bandwidths):
        arr.setflags(write=False)
    return RadioField(
        power=power,
        sinr=sinr,
        spectral_eff=spectral_eff,
        feasible_by_uav=feasible_by_uav,
        feasible=feasible,
        bandwidths=bandwidths,
    )
