"""Air-to-ground channel model: elevation-dependent LoS mixing, mean path
loss, SINR with scalable interference, and spectral efficiency fields."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if not (self.carrier_hz > 0 and 0.0 < self.reference_loss < math.inf):
            raise ValueError("carrier frequency must be positive with a finite, non-zero "
                             "reference loss")
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
        """Free-space loss at the 1 m reference distance, (4 pi f / c)^2, or
        +inf where that overflows a float."""
        try:
            return (4.0 * np.pi * self.carrier_hz / SPEED_OF_LIGHT) ** 2
        except OverflowError:  # a float's ** raises where * gives inf
            return math.inf


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


def _squared_range(uav, x, y, out=None):
    """Squared link distance in m^2 from ground point(s) to the UAV, built in
    out or one fresh array: x and y may be a grid's separable column and row
    coordinates."""
    d2 = np.asarray(np.add((x - uav.x) ** 2, (y - uav.y) ** 2, out=out))
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
    beyond the float range is +inf: the link then carries no power.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return _path_loss_in(uav, x, y, params, *(np.empty(shape) for _ in range(3)))


def _path_loss_in(uav, x, y, params, loss, p, nlos):
    """mean_path_loss built in loss, with p and nlos as scratch, three arrays
    of the broadcast shape of x and y: the squared range is computed once and
    the loss built over it in place."""
    with np.errstate(over="ignore"):
        _squared_range(uav, x, y, out=loss)
        _los_from_squared_range(uav, loss, params, out=p)
        loss *= params.reference_loss
        np.subtract(1.0, p, out=nlos)
        nlos *= params.mu_nlos
        p *= params.mu_los
        p += nlos
        loss *= p
        return loss


@dataclass(frozen=True)
class RadioField:
    """Per-UAV link quantities over the grid cells, all arrays read-only.

    spectral_eff is (n_uavs, n_cells), the only float array of that shape
    the field keeps; feasible_by_uav marks links at or above the SINR floor
    and feasible marks cells that some UAV can serve.  source is the (grid,
    uavs, params) compute_radio_field was given, or None for a field built
    by hand.  The received power and SINR, which no solver reads, are
    recomputed from source on the first read of power or sinr, bit for bit
    the layers compute_radio_field built and freed.
    """

    spectral_eff: np.ndarray
    feasible_by_uav: np.ndarray
    feasible: np.ndarray
    bandwidths: np.ndarray
    source: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_uavs(self):
        return self.spectral_eff.shape[0]

    @cached_property
    def _links(self):
        if self.source is None:
            raise AttributeError("a radio field built by hand has no power or sinr")
        links = _link_layers(*self.source, spare=np.empty_like(self.spectral_eff))
        links.setflags(write=False)
        return links

    @cached_property
    def power(self):
        """Mean received power in W, (n_uavs, n_cells)."""
        return self._links[0]

    @cached_property
    def sinr(self):
        """Linear SINR, (n_uavs, n_cells)."""
        return self._links[1]


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


def _link_layers(grid, uavs, params, spare):
    """Received power and SINR of every UAV-to-cell link, the two layers of
    one float64 (2, n_uavs, n_cells) block.

    Each UAV's path loss is built in its row of the power layer, with its
    rows of the SINR layer and of spare, a float (n_uavs, n_cells) array
    this overwrites, as scratch, and turned into received power in place,
    unless a UAV built before it mirrors it: its power row is then copied.
    The SINR is then worked in its own layer, divided one way whatever the
    noise.

    The arithmetic runs with its float warnings off, and its result is
    checked once: each UAV's noise N0 B_i and SINR, and the received power
    summed at each cell, must be finite.  One max per SINR row finds a NaN
    or an inf with no (n_uavs, n_cells) temporary.  ValueError names the
    first UAV that fails: its noise underflows to 0 where nothing
    interferes, which leaves its SINR infinite, or its noise, a received
    power or its SINR overflows a float (UAV 0 when only the power summed
    at a cell overflows, which would leave every SINR there 0)."""
    links = np.empty((2, len(uavs), grid.n_cells))
    power, sinr = links
    x, y = grid.column_x, grid.row_y[:, None]
    shape = (grid.ny, grid.nx)
    built = {}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for u, *rows in zip(uavs, power, sinr, spare):
            grid_power = rows[0].reshape(shape)
            key = np.array([u.altitude, u.power], dtype=float).tobytes()
            dy2, dx2 = (grid.row_y - u.y) ** 2, (grid.column_x - u.x) ** 2
            # the chain reads only the bits of a UAV's altitude and power and
            # of its squared row and column offsets: a UAV built with these
            # offsets flipped [::sy, ::sx] had the same inputs at every
            # element, so its power flipped back is this UAV's, bit for bit
            for sy, sx in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                mirror = built.get((key, dy2[::sy].tobytes(), dx2[::sx].tobytes()))
                if mirror is not None:
                    np.copyto(grid_power, mirror[::sy, ::sx])
                    break
            else:
                loss = _path_loss_in(u, x, y, params, *(row.reshape(shape) for row in rows))
                np.divide(u.power, loss, out=loss)
                built[key, dy2.tobytes(), dx2.tobytes()] = grid_power
        noise = params.noise_w_per_hz * np.array([u.bandwidth for u in uavs], dtype=float)
        total = power.sum(axis=0)
        # sinr = power / (beta * (total - power) + noise), built in its layer
        np.subtract(total, power, out=sinr)
        sinr *= params.beta
        sinr += noise[:, None]
        np.divide(power, sinr, out=sinr)
    # max and maximum propagate NaN and inf alike: one reduction per row
    finite = np.isfinite(np.maximum(noise, sinr.max(axis=1)))
    if finite.all() and np.isfinite(total.max()):
        return links
    i = np.argmin(finite)  # the first UAV that fails, or 0 if only a power sum overflows
    cause = ("underflows to 0, so its SINR is not finite where no other UAV interferes"
             if noise[i] == 0 else "overflows a float, or a received power or its SINR does")
    raise ValueError(f"the noise N0 B_i of UAV {i} {cause}")


def compute_radio_field(grid, uavs, params):
    """Evaluate every UAV-to-cell link on the grid.

    Interference at a cell for UAV i is beta times the received power of all
    other UAVs; noise is the spectral density times UAV i's own bandwidth.
    Spectral efficiency is log2(1 + SINR).

    spectral_eff and the feasibility mask are allocated first, then the
    power and SINR in one scratch (2, n_uavs, n_cells) block, which is freed
    before the field is returned: the field keeps one float (n_uavs,
    n_cells) array.  Each UAV's path loss is worked in its rows of the block
    and of spectral_eff, so no (ny, nx) temporary is made.

    A UAV that mirrors one built before it, with the same altitude and
    power, copies that UAV's power row instead of building its own path
    loss (see _link_layers): place_uavs_grid puts fleets on block centroids
    that mirror one another, so the default 5 UAVs build 3 path losses and
    4 UAVs build 1.  Recomputing power and sinr on first read copies rows
    the same way.

    glibc sets its mmap threshold to the largest mmapped block freed so far
    and trims the heap top only past twice that.  A process's first scene
    mmaps the block; later scenes of its size carve it from the heap top,
    and as nothing that outlives it is allocated above it, it falls back
    into the free top when freed.  So a process that runs scene after scene
    (a sweep, scripts/run_figures.py, the benchmark) keeps reusing its heap
    instead of handing it back and faulting it in again: a 400 x 400 scene
    of both scenarios (perfbench's maps-fine) peaks at 28.7 MB of heap and
    ends with 22.7 MB free at the top, under its 25.6 MB trim threshold, and
    a steady-state pass of each perfbench workload takes 0 minor faults
    (BENCH_32.json).  One scene alone in a fresh process still faults its
    memory in once.  So the scratch block is what keeps the heap warm: a
    field built without it, row by row, lets glibc trim the heap between
    scenes and takes thousands of minor faults a pass, and
    tests/test_memory.py holds a steady-state pass to at most 64.

    The field checks its own output once, in _link_layers: ValueError names
    the first UAV whose noise N0 B_i, received power or SINR is not a
    finite float, so every field returned has finite spectral_eff.
    """
    if len(uavs) == 0:
        raise ValueError("need at least one UAV")
    spectral_eff = np.empty((len(uavs), grid.n_cells))
    feasible_by_uav = np.empty(spectral_eff.shape, dtype=bool)
    sinr = _link_layers(grid, uavs, params, spare=spectral_eff)[1]
    np.add(1.0, sinr, out=spectral_eff)
    np.log2(spectral_eff, out=spectral_eff)
    np.greater_equal(sinr, params.sinr_threshold, out=feasible_by_uav)
    del sinr  # the last view of the scratch block
    feasible = feasible_by_uav.any(axis=0)
    bandwidths = np.array([u.bandwidth for u in uavs], dtype=float)
    for arr in (spectral_eff, feasible_by_uav, feasible, bandwidths):
        arr.setflags(write=False)
    return RadioField(
        spectral_eff=spectral_eff,
        feasible_by_uav=feasible_by_uav,
        feasible=feasible,
        bandwidths=bandwidths,
        source=(grid, tuple(uavs), params),
    )
