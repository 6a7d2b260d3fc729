"""Experiment driver: sweeps, seeds, CSV outputs and the rerun manifest.

For every sweep value the scene is solved once (the solvers are
deterministic); seeds only drive user sampling.  Outputs land in the chosen
directory as metrics.csv, manifest.ini and, on request, partition and trace
dumps.  Identical config and seeds give byte-identical CSV files.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys

import numpy as np

from . import __version__
from .channel import compute_radio_field
from .config import (
    apply_sweep,
    build_channel,
    build_grid,
    build_uavs,
    config_to_ini,
    format_value,
    validate_config,
)
from .errors import ConfigError, ConvergenceError, InfeasibleError
from .metrics import jain_index, sample_users, service_per_user, total_data_service
from .partition import partition_to_csv, weighted_voronoi
from .scenario1 import service_field_for_partition, solve_scenario1
from .scenario2 import hover_time_equal_split, region_hover_report, solve_scenario2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CONVERGENCE = 4

METRICS_HEADER = ("experiment_id", "sweep_var", "sweep_value", "seed", "metric", "value")
TRACE_HEADER = ("iter", "objective", "residual", "step")


def _point_tag(cfg, value):
    if cfg.sweep_var == "none":
        return "base"
    return f"{cfg.sweep_var}_{format_value(float(value))}"


def _scenario1_rows(cfg, grid, uavs, radio, baseline, point, out_dir):
    result = solve_scenario1(grid, uavs, radio, cfg.alpha, cfg.n_users,
                             mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter)
    base_service = service_field_for_partition(
        grid, radio, uavs, cfg.alpha, cfg.n_users, baseline
    )
    residual = float(np.abs(result.partition.masses - result.fairness.target_masses).max())
    rows = [
        ("s1_mass_residual", residual),
        ("s1_iterations", float(len(result.potentials.f_trace) - 1)),
        ("s1_service_total_proposed", total_data_service(grid, result.service, cfg.n_users)),
        ("s1_service_total_voronoi", total_data_service(grid, base_service, cfg.n_users)),
    ]
    for kind, part in (("proposed", result.partition), ("voronoi", baseline)):
        for i, count in enumerate(cfg.n_users * part.masses):
            rows.append((f"s1_users_uav{i}_{kind}", float(count)))
    per_seed = []
    for seed in range(cfg.n_seeds):
        sample = sample_users(grid, cfg.n_users, seed)
        per_seed.append([
            ("s1_jain_proposed", _jain(service_per_user(result.service, sample))),
            ("s1_jain_voronoi", _jain(service_per_user(base_service, sample))),
        ])
    if cfg.write_partitions:
        _write_maps(cfg, grid, result.partition, baseline, out_dir, "s1", point)
    if cfg.trace:
        _write_trace(os.path.join(out_dir, f"trace_s1_{point}.csv"), result.potentials)
    return rows, per_seed


def _jain(allocation):  # nan when every sampled user's region spends its budget on control
    return jain_index(allocation) if allocation.any() else float("nan")


def _scenario2_rows(cfg, grid, radio, baseline, point, out_dir):
    result = solve_scenario2(grid, radio, cfg.load_bits, cfg.alpha, cfg.n_users,
                             mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter)
    scene = (radio, cfg.load_bits, cfg.alpha, cfg.n_users)
    rows = [
        ("s2_hover_proposed_optbw", result.report.total),
        ("s2_hover_proposed_eqbw", hover_time_equal_split(grid, result.partition, *scene).total),
        ("s2_hover_voronoi_optbw", region_hover_report(grid, baseline, *scene).total),
        ("s2_hover_voronoi_eqbw", hover_time_equal_split(grid, baseline, *scene).total),
        ("s2_iterations", float(len(result.potentials.f_trace) - 1)),
        ("s2_duality_gap", result.duality_gap),
    ]
    if cfg.write_partitions:
        _write_maps(cfg, grid, result.partition, baseline, out_dir, "s2", point)
    if cfg.trace:
        _write_trace(os.path.join(out_dir, f"trace_s2_{point}.csv"), result.potentials)
    return rows


def _write_maps(cfg, grid, proposed, baseline, out_dir, tag, point):
    """Write one scenario's proposed and best-signal partition maps.

    When both scenarios run, scenario 2's best-signal map is a copy of
    scenario 1's file: both come from the same baseline partition."""
    def path(scenario, kind):
        return os.path.join(out_dir, f"partition_{scenario}_{point}_{kind}.csv")

    partition_to_csv(grid, proposed, path(tag, "proposed"))
    if tag == "s2" and cfg.scenario == "both":
        shutil.copyfile(path("s1", "voronoi"), path("s2", "voronoi"))
    else:
        partition_to_csv(grid, baseline, path(tag, "voronoi"))


def _write_trace(path, potentials):
    p = potentials
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in zip(range(len(p.f_trace)), p.f_trace, p.grad_trace, p.step_trace):
            writer.writerow(format_value(v) for v in row)


def run_experiment(cfg, out_dir=None):
    """Run all sweep points and seeds; write CSVs; return an exit code.

    0 on success, 2 on a bad config or scene or an unwritable output, 3 when
    an instance is infeasible, 4 when a solver fails to converge (diagnostics
    on stderr); the config is validated before the output directory exists.
    """
    out_dir = cfg.out_dir if out_dir is None else out_dir
    values = cfg.sweep_values if cfg.sweep_var != "none" else (float("nan"),)
    records = []
    try:
        validate_config(cfg)
        os.makedirs(out_dir, exist_ok=True)
        for value in values:
            cur = apply_sweep(cfg, value)
            grid = build_grid(cur)
            uavs = build_uavs(cur)
            radio = compute_radio_field(grid, uavs, build_channel(cur))
            baseline = weighted_voronoi(grid, radio)  # best-signal baseline of both scenarios
            point = _point_tag(cfg, value)
            sweep_value = "" if cfg.sweep_var == "none" else format_value(float(value))
            shared, per_seed = [], [[]] * cfg.n_seeds
            if cur.scenario in ("1", "both"):
                shared, per_seed = _scenario1_rows(cur, grid, uavs, radio, baseline, point,
                                                   out_dir)
            if cur.scenario in ("2", "both"):
                shared.extend(_scenario2_rows(cur, grid, radio, baseline, point, out_dir))
            for seed, seed_rows in enumerate(per_seed):
                for metric, metric_value in shared + seed_rows:
                    records.append((cfg.experiment_id, cfg.sweep_var, sweep_value,
                                    seed, metric, format_value(float(metric_value))))
        with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(METRICS_HEADER)
            writer.writerows(records)
        with open(os.path.join(out_dir, "manifest.ini"), "w") as fh:
            fh.write(config_to_ini(cfg, provenance={"package": "uavpart", "version": __version__}))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK
