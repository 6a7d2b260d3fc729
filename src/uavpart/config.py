"""Experiment configuration: defaults, INI parsing, unit handling and scene
construction (grid, fleet placement, channel parameters)."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import ChannelParams, UavNode, db_to_linear, dbm_to_watts, linear_to_db
from .errors import ConfigError
from .grid import truncated_gaussian, uniform_density

# sweep variable -> the config fields one sweep value sets
_SWEEP_FIELDS = {
    "none": (),
    "beta": ("beta",),
    "sigma": ("sigma_x", "sigma_y"),
    "tau_max": ("max_hover",),
    "bandwidth": ("bandwidth",),
    "alpha": ("alpha",),
    "n_uavs": ("n_uavs",),
}
SWEEP_VARS = tuple(_SWEEP_FIELDS)
SCENARIOS = ("1", "2", "both")
DENSITY_KINDS = ("uniform", "gaussian")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; defaults give the reference
    setup (1 km square, 5 UAVs at 200 m, 2 GHz, 1 MHz per UAV)."""

    experiment_id: str = "experiment"
    # area and grid
    width: float = 1000.0
    height: float = 1000.0
    nx: int = 200
    ny: int = 200
    # user density
    density_kind: str = "gaussian"
    mu_x: float = 250.0
    mu_y: float = 330.0
    sigma_x: float = 1000.0
    sigma_y: float = 1000.0
    # fleet
    n_uavs: int = 5
    altitude: float = 200.0
    power: float = 0.5
    bandwidth: float = 1.0e6
    max_hover: float = 1800.0
    # channel
    carrier_hz: float = 2.0e9
    mu_los_db: float = 3.0
    mu_nlos_db: float = 23.0
    noise_dbm_per_hz: float = -170.0
    b1: float = 0.36
    b2: float = 0.21
    beta: float = 1.0
    sinr_threshold_db: float = -20.0
    # scenario parameters
    scenario: str = "both"
    n_users: int = 300
    alpha: float = 0.01
    load_bits: float = 1.0e7
    mass_tol: float = 1e-3
    max_ascent_iter: int = 100_000
    # sweep
    sweep_var: str = "none"
    sweep_values: tuple = ()
    # run control
    n_seeds: int = 50
    write_partitions: bool = False
    trace: bool = False
    out_dir: str = "results"


# config keys that may be given in linear units instead of the dB fields:
# key -> (dB field, offset added to 10 log10 of the linear value)
_LINEAR_ALIASES = {
    "mu_los": ("mu_los_db", 0.0),
    "mu_nlos": ("mu_nlos_db", 0.0),
    "sinr_threshold": ("sinr_threshold_db", 0.0),
    "noise_w_per_hz": ("noise_dbm_per_hz", 30.0),  # W -> dBm
}

_FIELDS = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(name, raw):
    kind = _FIELDS[name]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "tuple":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None


def load_config(path):
    """Read a key = value config file into an ExperimentConfig.

    Section names are ignored; keys must match config fields.  Channel
    quantities may be given either in dB (mu_los_db = 3) or linear units
    (mu_los = 1.995); a [provenance] section is skipped so a manifest can be
    rerun directly.  Raises ConfigError on unknown keys or bad values.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    updates = {}
    for section in parser.sections():
        if section == "provenance":
            continue
        for key, raw in parser.items(section):
            if key in _LINEAR_ALIASES:
                target, offset_db = _LINEAR_ALIASES[key]
                try:
                    linear = float(raw)
                except ValueError:
                    raise ConfigError(f"bad value for {key}: {raw!r}") from None
                if linear <= 0:
                    raise ConfigError(f"{key} must be positive, got {raw!r}")
                updates[target] = float(linear_to_db(linear)) + offset_db
            elif key in _FIELDS:
                updates[key] = _parse_value(key, raw)
            elif key != "rounds":  # retired, still read so old manifests rerun
                raise ConfigError(f"unknown config key: {key}")
    cfg = replace(ExperimentConfig(), **updates)
    validate_config(cfg)
    return cfg


def format_value(value):
    """A value as metrics.csv and the output file names print it."""
    return format(value, ".9g") if isinstance(value, float) else str(value)


def validate_config(cfg):
    """Raise ConfigError on out-of-range settings at any sweep point and on
    sweep values that print the same, which would share their outputs."""
    _check_fields(cfg)
    if cfg.sweep_var != "none" and len(cfg.sweep_values) == 0:
        raise ConfigError("sweep_var set but sweep_values empty")
    for value in cfg.sweep_values:
        _check_fields(apply_sweep(cfg, value))
    printed = [format_value(float(v)) for v in cfg.sweep_values]
    if cfg.sweep_var != "none" and len(set(printed)) < len(printed):
        raise ConfigError(f"sweep_values print the same to 9 digits: {' '.join(printed)}")


def _check_fields(cfg):
    """Check one concrete config.  Its fleet and channel are built, because
    UavNode, ChannelParams and place_uavs_grid own their rules; its grid is
    not (it costs far more), so the grid rules are checked here on the fields
    and a hot spot that underflows on the grid is left to build_grid."""
    for f in fields(ExperimentConfig):
        if f.type in ("float", "tuple") and not np.all(np.isfinite(getattr(cfg, f.name))):
            raise ConfigError(f"{f.name} must be finite")
    grid_ok = cfg.nx >= 1 and cfg.ny >= 1
    # a cell's density can reach 1 / cell area, so that must be finite
    cell_area = (cfg.width / cfg.nx) * (cfg.height / cfg.ny) if grid_ok else math.nan
    checks = [
        (grid_ok, "grid must be at least 1x1"),
        (cfg.width > 0 and cfg.height > 0
         and cfg.width * cfg.width < math.inf and cfg.height * cfg.height < math.inf
         and cell_area > 0 and 1.0 / cell_area < math.inf,
         "area dimensions must be positive with finite squares and a cell area "
         "with a finite reciprocal"),
        (cfg.density_kind in DENSITY_KINDS, f"density_kind must be one of {DENSITY_KINDS}"),
        (all(s > 0 and 0.0 < s * s < math.inf for s in (cfg.sigma_x, cfg.sigma_y)),
         "sigma must be positive with a finite, non-zero square"),
        (cfg.max_hover > 0, "hover budget must be positive"),  # UavNode allows 0
        (cfg.scenario in SCENARIOS, f"scenario must be one of {SCENARIOS}"),
        (cfg.n_users >= 1, "need at least one user"),
        (cfg.alpha >= 0, "alpha must be non-negative"),
        (cfg.load_bits >= 0, "load must be non-negative"),
        (cfg.mass_tol > 0, "mass tolerance must be positive"),
        (cfg.max_ascent_iter >= 1, "iteration budget must be positive"),
        (cfg.sweep_var in SWEEP_VARS, f"sweep_var must be one of {SWEEP_VARS}"),
        (cfg.n_seeds >= 1, "need at least one seed"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        build_uavs(cfg)
        build_channel(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def apply_sweep(cfg, value):
    """Copy of cfg with the sweep variable's fields set to one concrete value.

    Raises ConfigError for an unknown sweep variable or a fractional n_uavs;
    validate_config checks the swept config itself."""
    if cfg.sweep_var == "none":
        return cfg
    if cfg.sweep_var not in _SWEEP_FIELDS:
        raise ConfigError(f"unknown sweep variable: {cfg.sweep_var}")
    if cfg.sweep_var == "n_uavs":
        if not float(value).is_integer():
            raise ConfigError(f"n_uavs sweep values must be whole numbers, got {value:g}")
        value = int(value)
    return replace(cfg, **dict.fromkeys(_SWEEP_FIELDS[cfg.sweep_var], value))


def config_to_ini(cfg, provenance=None):
    """Serialize a config as INI text that load_config reads back exactly:
    floats are written with repr, which round-trips every bit."""
    lines = ["[experiment]"]
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if f.type == "tuple":
            value = " ".join(repr(float(v)) for v in value)
        elif f.type == "float":
            value = repr(float(value))
        lines.append(f"{f.name} = {value}")
    if provenance:
        lines.append("")
        lines.append("[provenance]")
        for key, value in provenance.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def place_uavs_grid(width, height, n_uavs, altitude, power, bandwidth, max_hover):
    """Fleet on a near-square block grid, one UAV per block centroid.

    ceil(sqrt(M)) columns and ceil(M / columns) rows; the first M block
    centroids in row-major order (left to right, bottom to top) are used.
    """
    if n_uavs < 1:
        raise ValueError("need at least one UAV")
    cols = math.ceil(math.sqrt(n_uavs))
    rows = math.ceil(n_uavs / cols)
    uavs = []
    for k in range(n_uavs):
        r, c = divmod(k, cols)
        uavs.append(
            UavNode(
                x=(c + 0.5) * width / cols,
                y=(r + 0.5) * height / rows,
                altitude=altitude,
                power=power,
                bandwidth=bandwidth,
                max_hover=max_hover,
            )
        )
    return uavs


def build_grid(cfg):
    """AreaGrid for the configured density."""
    try:
        if cfg.density_kind == "uniform":
            return uniform_density(cfg.width, cfg.height, cfg.nx, cfg.ny)
        return truncated_gaussian(
            cfg.width, cfg.height, cfg.nx, cfg.ny,
            cfg.mu_x, cfg.mu_y, cfg.sigma_x, cfg.sigma_y,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_uavs(cfg):
    """Configured fleet on the block-grid layout."""
    return place_uavs_grid(
        cfg.width, cfg.height, cfg.n_uavs,
        cfg.altitude, cfg.power, cfg.bandwidth, cfg.max_hover,
    )


def build_channel(cfg):
    """ChannelParams with the configured dB quantities made linear."""
    return ChannelParams(
        carrier_hz=cfg.carrier_hz,
        mu_los=db_to_linear(cfg.mu_los_db),
        mu_nlos=db_to_linear(cfg.mu_nlos_db),
        b1=cfg.b1,
        b2=cfg.b2,
        noise_w_per_hz=dbm_to_watts(cfg.noise_dbm_per_hz),
        beta=cfg.beta,
        sinr_threshold=db_to_linear(cfg.sinr_threshold_db),
    )
