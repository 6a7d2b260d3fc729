"""Air-to-ground channel model: elevation-dependent LoS mixing, mean path
loss, SINR with scalable interference, and spectral efficiency fields."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 3.0e8  # m/s


def db_to_linear(value_db):
    """Power ratio from decibels."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value):
    """Decibels from a power ratio."""
    return 10.0 * np.log10(value)


def dbm_to_watts(value_dbm):
    """Watts from dBm."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


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
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
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
    max_hover: float = 0.0

    def __post_init__(self):
        if self.altitude <= 0:
            raise ValueError("altitude must be positive")
        if self.power < 0:
            raise ValueError("transmit power must be non-negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.max_hover < 0:
            raise ValueError("hover budget must be non-negative")


def slant_range(uav, x, y):
    """Link distance in meters from ground point(s) to the UAV."""
    return np.sqrt((x - uav.x) ** 2 + (y - uav.y) ** 2 + uav.altitude**2)


def los_probability(uav, x, y, params):
    """Line-of-sight probability, b1 * (elevation_deg - 15)^b2 clipped to [0, 1].

    Zero at or below 15 degrees of elevation; continuous across that boundary.
    """
    theta_deg = np.degrees(np.arcsin(uav.altitude / slant_range(uav, x, y)))
    base = np.maximum(theta_deg - 15.0, 0.0)
    return np.minimum(params.b1 * base**params.b2, 1.0)


def mean_path_loss(uav, x, y, params):
    """LoS/NLoS-averaged path loss as a linear power ratio.

    reference_loss * d^2 * (P_los * mu_los + (1 - P_los) * mu_nlos).
    """
    d2 = (x - uav.x) ** 2 + (y - uav.y) ** 2 + uav.altitude**2
    if np.any(d2 <= 0):
        raise ValueError("link distance must be positive")
    p = los_probability(uav, x, y, params)
    return params.reference_loss * d2 * (p * params.mu_los + (1.0 - p) * params.mu_nlos)


def received_power(uav, x, y, params):
    """Mean received power in watts at ground point(s)."""
    return uav.power / mean_path_loss(uav, x, y, params)


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


def compute_radio_field(grid, uavs, params):
    """Evaluate every UAV-to-cell link on the grid.

    Interference at a cell for UAV i is beta times the received power of all
    other UAVs; noise is the spectral density times UAV i's own bandwidth.
    Spectral efficiency is log2(1 + SINR).
    """
    if len(uavs) == 0:
        raise ValueError("need at least one UAV")
    power = np.stack([received_power(u, grid.cell_x, grid.cell_y, params) for u in uavs])
    bandwidths = np.array([u.bandwidth for u in uavs], dtype=float)
    noise = params.noise_w_per_hz * bandwidths
    interference = params.beta * (power.sum(axis=0)[None, :] - power)
    sinr = power / (interference + noise[:, None])
    spectral_eff = np.log2(1.0 + sinr)
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
