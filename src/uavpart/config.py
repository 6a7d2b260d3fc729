"""Experiment configuration: defaults, INI parsing, unit handling and scene
construction (grid, fleet placement, channel parameters)."""

from __future__ import annotations

import configparser
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

from .channel import ChannelParams, UavNode, _per_uav, db_to_linear, dbm_to_watts
from .errors import ConfigError
from .grid import check_sigma, truncated_gaussian, uniform_density

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
            if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ValueError(f"not a boolean: {raw!r}")
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if kind == "tuple":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None


def load_config(path):
    """Read a key = value config file into an ExperimentConfig.

    Section names are ignored; keys must match config fields, and a
    [provenance] section is skipped so a manifest can be rerun directly.
    Values are read literally, with no % interpolation, and the file as
    UTF-8 whatever the locale, as the runner writes manifest.ini.  Raises
    ConfigError on a file that cannot be opened or decoded, on unknown keys
    or on bad values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    updates = {}
    for section in parser.sections():
        if section == "provenance":
            continue
        for key, raw in parser.items(section):
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key: {key}")
            updates[key] = _parse_value(key, raw)
    cfg = replace(ExperimentConfig(), **updates)
    validate_config(cfg)
    return cfg


def format_value(value):
    """A value as metrics.csv and the output file names print it."""
    return format(value, ".9g") if isinstance(value, float) else str(value)


def validate_config(cfg):
    """Check a config and each of its sweep points, and return the points.

    A point is (tag, printed value, config): ("base", "", cfg) when nothing
    is swept, else (f"{sweep_var}_{printed}", printed, apply_sweep(cfg, v))
    for each sweep value v, printed once by format_value.

    First the config must be what manifest.ini writes back: every float
    field one finite real number, every int field one whole number that is
    not a bool, every bool field True or False, and every text field,
    experiment_id and out_dir among them, one line (str.splitlines) with no
    surrounding whitespace that UTF-8 can encode; out_dir, a path, is not
    empty and holds no NUL either.  Then the sweep's own rules: its values
    finite, sweep_var known, the values non-empty and distinct as printed,
    since points that print the same would share their outputs.  Then
    _check_fields runs once on each point: on the config only when nothing
    is swept, so the value a sweep replaces is read by no run and held to no
    range.  Raises ConfigError on the first rule broken.

    The rules of the grid, the fleet and the channel (AreaGrid,
    truncated_gaussian, UavNode, ChannelParams) are not checked here: they
    run where run_experiment builds each point's scene."""
    for name, kind in _FIELDS.items():
        value = getattr(cfg, name)
        if kind == "float" and not _finite(value):
            raise ConfigError(f"{name} must be one finite number")
        # a bool is an int to isinstance, but manifest.ini writes it True or False
        if kind == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{name} must be one whole number")
        if kind == "bool" and not isinstance(value, bool):
            raise ConfigError(f"{name} must be True or False")
        # configparser strips a value and splits it at line breaks
        if kind == "str" and not (isinstance(value, str) and value == value.strip()
                                  and len(value.splitlines()) < 2):
            raise ConfigError(f"{name} must be one line with no surrounding whitespace")
        # UTF-8 has no code for a lone surrogate, so no output file or path holds one
        if kind == "str" and any("\ud800" <= c <= "\udfff" for c in value):
            raise ConfigError(f"{name} must be text that UTF-8 can encode")
        # an empty path would stage in the working directory's parent; no
        # path the operating system opens holds a NUL
        if name == "out_dir" and not value:
            raise ConfigError("out_dir must not be empty")
        if name == "out_dir" and "\0" in value:
            raise ConfigError("out_dir must hold no NUL character")
    if not all(_finite(v) for v in cfg.sweep_values):
        raise ConfigError("sweep_values must be finite")
    if cfg.sweep_var not in SWEEP_VARS:
        raise ConfigError(f"sweep_var must be one of {SWEEP_VARS}")
    if cfg.sweep_var == "none":
        return [("base", "", _check_fields(cfg))]
    if len(cfg.sweep_values) == 0:
        raise ConfigError("sweep_var set but sweep_values empty")
    printed = [format_value(float(v)) for v in cfg.sweep_values]
    if len(set(printed)) < len(printed):
        raise ConfigError(f"sweep_values print the same to 9 digits: {' '.join(printed)}")
    return [(f"{cfg.sweep_var}_{p}", p, _check_fields(apply_sweep(cfg, v)))
            for p, v in zip(printed, cfg.sweep_values)]


def _finite(value):
    """One real number, finite: what config_to_ini writes and reads back."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _check_fields(cfg):
    """Check one sweep point, whose float fields validate_config has found
    finite, against the range rules that need no scene, and return it.

    Its own ranges come first: width and height with finite squares, a
    known density kind and scenario, n_uavs at most the number of cells, at
    least one user with n_users squared at most the largest float, a
    non-negative load, a positive mass_tol, iteration budget and seed count,
    and n_seeds at most sys.maxsize, the longest list; then the grid's sigma
    rule (check_sigma), which a uniform density that reads no sigma is held
    to as well; then the per-UAV rules (_per_uav) of the hover budget, alpha
    and the control price 2 alpha N^2, in either scenario.  The rules of the
    grid (its shape and cell area), the hot spot, the fleet and the channel
    run where run_experiment builds the point's scene."""
    checks = [
        # no stage owns this: an overflowing square reaches the radio field
        (cfg.width * cfg.width < math.inf and cfg.height * cfg.height < math.inf,
         "area width and height must have finite squares"),
        (cfg.density_kind in DENSITY_KINDS, f"density_kind must be one of {DENSITY_KINDS}"),
        (cfg.scenario in SCENARIOS, f"scenario must be one of {SCENARIOS}"),
        # before build_uavs makes a list of the fleet; an empty grid fails
        # the grid's own rule
        (cfg.nx < 1 or cfg.ny < 1 or cfg.n_uavs <= cfg.nx * cfg.ny,
         "n_uavs must be at most nx * ny, the number of grid cells"),
        (cfg.n_users >= 1, "need at least one user"),
        # the control price needs N^2; an int square is exact, a float one
        # overflows to inf, so neither raises
        (cfg.n_users * cfg.n_users <= sys.float_info.max,
         "n_users squared must be at most the largest float"),
        (cfg.load_bits >= 0, "load must be non-negative"),
        (cfg.mass_tol > 0, "mass tolerance must be positive"),
        (cfg.max_ascent_iter >= 1, "iteration budget must be positive"),
        (cfg.n_seeds >= 1, "need at least one seed"),
        # the per-seed rows are a list of n_seeds entries
        (cfg.n_seeds <= sys.maxsize, f"n_seeds must be at most {sys.maxsize}"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        check_sigma(cfg.sigma_x, cfg.sigma_y)  # for a uniform density too, which reads neither
        _per_uav(cfg.max_hover, cfg.n_uavs, "hover budget", positive=True)
        _per_uav(cfg.alpha, cfg.n_uavs, "control weight alpha")
        _per_uav(2.0 * cfg.alpha * cfg.n_users**2, cfg.n_uavs, "control price 2 alpha N^2")
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def apply_sweep(cfg, value):
    """Copy of cfg with the fields of its sweep variable, one validate_config
    has found known and not "none", set to one concrete value.

    Raises ConfigError for a fractional n_uavs; validate_config checks the
    swept config itself."""
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
        lines += ["", "[provenance]", *(f"{key} = {value}" for key, value in provenance.items())]
    return "\n".join(lines) + "\n"


def place_uavs_grid(width, height, n_uavs, altitude, power, bandwidth):
    """Fleet on a near-square block grid, one UAV per block centroid.

    ceil(sqrt(M)) columns and ceil(M / columns) rows; the first M block
    centroids in row-major order (left to right, bottom to top) are used.
    """
    if n_uavs < 1:
        raise ValueError("need at least one UAV")
    cols = math.ceil(math.sqrt(n_uavs))
    rows = math.ceil(n_uavs / cols)
    return [UavNode(x=(k % cols + 0.5) * width / cols, y=(k // cols + 0.5) * height / rows,
                    altitude=altitude, power=power, bandwidth=bandwidth)
            for k in range(n_uavs)]


def build_grid(cfg):
    """AreaGrid for the configured density."""
    if cfg.density_kind == "uniform":
        return uniform_density(cfg.width, cfg.height, cfg.nx, cfg.ny)
    return truncated_gaussian(cfg.width, cfg.height, cfg.nx, cfg.ny,
                              cfg.mu_x, cfg.mu_y, cfg.sigma_x, cfg.sigma_y)


def build_uavs(cfg):
    """Configured fleet on the block-grid layout."""
    return place_uavs_grid(
        cfg.width, cfg.height, cfg.n_uavs,
        cfg.altitude, cfg.power, cfg.bandwidth,
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
