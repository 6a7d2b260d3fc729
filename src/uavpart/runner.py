"""Experiment driver: sweeps, seeds, CSV outputs and the rerun manifest.

For every sweep value the scene is solved once (the solvers are
deterministic); seeds only drive user sampling.  Outputs land in the chosen
directory as metrics.csv, manifest.ini and, on request, partition and trace
dumps.  Identical config and seeds give byte-identical CSV files.
"""

from __future__ import annotations

import csv
import os
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


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _point_tag(cfg, value):
    if cfg.sweep_var == "none":
        return "base"
    return f"{cfg.sweep_var}_{_fmt(float(value))}"


def _scenario1_rows(cfg, grid, uavs, params, radio, baseline, point, out_dir):
    result = solve_scenario1(
        grid, uavs, params, cfg.alpha, cfg.n_users,
        mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter, radio=radio,
    )
    base_service = service_field_for_partition(
        grid, radio, uavs, cfg.alpha, cfg.n_users, baseline
    )
    rows = []
    residual = float(np.abs(result.partition.masses - result.fairness.target_masses).max())
    rows.append(("s1_mass_residual", residual))
    rows.append(("s1_iterations", float(len(result.potentials.f_trace) - 1)))
    rows.append(("s1_service_total_proposed",
                 total_data_service(grid, result.partition, result.service, cfg.n_users)))
    rows.append(("s1_service_total_voronoi",
                 total_data_service(grid, baseline, base_service, cfg.n_users)))
    for i, count in enumerate(cfg.n_users * result.partition.masses):
        rows.append((f"s1_users_uav{i}_proposed", float(count)))
    for i, count in enumerate(cfg.n_users * baseline.masses):
        rows.append((f"s1_users_uav{i}_voronoi", float(count)))
    per_seed = []
    for seed in range(cfg.n_seeds):
        sample = sample_users(grid, cfg.n_users, seed)
        per_seed.append((seed, [
            ("s1_jain_proposed",
             jain_index(service_per_user(result.partition, result.service, sample))),
            ("s1_jain_voronoi",
             jain_index(service_per_user(baseline, base_service, sample))),
        ]))
    if cfg.write_partitions:
        partition_to_csv(grid, result.partition,
                         os.path.join(out_dir, f"partition_s1_{point}_proposed.csv"))
        partition_to_csv(grid, baseline,
                         os.path.join(out_dir, f"partition_s1_{point}_voronoi.csv"))
    if cfg.trace:
        _write_trace(os.path.join(out_dir, f"trace_s1_{point}.csv"), result.potentials)
    return rows, per_seed


def _scenario2_rows(cfg, grid, uavs, params, radio, baseline, point, out_dir):
    result = solve_scenario2(
        grid, uavs, params, cfg.load_bits, cfg.alpha, cfg.n_users,
        mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter, radio=radio,
    )
    base_report = region_hover_report(
        grid, baseline, radio, cfg.load_bits, cfg.alpha, cfg.n_users
    )

    def equal_split_total(part):
        return sum(
            hover_time_equal_split(
                grid, part.region(i), radio, i, cfg.load_bits, cfg.alpha, cfg.n_users
            )
            for i in range(part.n_uavs)
        )

    rows = [
        ("s2_hover_proposed_optbw", result.report.total),
        ("s2_hover_proposed_eqbw", equal_split_total(result.partition)),
        ("s2_hover_voronoi_optbw", base_report.total),
        ("s2_hover_voronoi_eqbw", equal_split_total(baseline)),
        ("s2_iterations", float(len(result.potentials.f_trace) - 1)),
        ("s2_duality_gap", result.duality_gap),
    ]
    if cfg.write_partitions:
        partition_to_csv(grid, result.partition,
                         os.path.join(out_dir, f"partition_s2_{point}_proposed.csv"))
        partition_to_csv(grid, baseline,
                         os.path.join(out_dir, f"partition_s2_{point}_voronoi.csv"))
    if cfg.trace:
        _write_trace(os.path.join(out_dir, f"trace_s2_{point}.csv"), result.potentials)
    return rows


def _write_trace(path, potentials):
    p = potentials
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in zip(range(len(p.f_trace)), p.f_trace, p.grad_trace, p.step_trace):
            writer.writerow(_fmt(v) for v in row)


def run_experiment(cfg, out_dir=None):
    """Run all sweep points and seeds; write CSVs; return an exit code.

    0 on success, 2 on a bad config or scene, 3 when an instance is
    infeasible, 4 when a solver fails to converge; diagnostics go to stderr.
    The config is validated before the output directory is created.
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
            params = build_channel(cur)
            radio = compute_radio_field(grid, uavs, params)
            baseline = weighted_voronoi(grid, radio)  # best-signal baseline of both scenarios
            point = _point_tag(cfg, value)
            sweep_value = "" if cfg.sweep_var == "none" else _fmt(float(value))
            shared = []
            per_seed_rows = {seed: [] for seed in range(cfg.n_seeds)}
            if cur.scenario in ("1", "both"):
                rows, per_seed = _scenario1_rows(cur, grid, uavs, params, radio, baseline,
                                                 point, out_dir)
                shared.extend(rows)
                for seed, seed_rows in per_seed:
                    per_seed_rows[seed].extend(seed_rows)
            if cur.scenario in ("2", "both"):
                shared.extend(_scenario2_rows(cur, grid, uavs, params, radio, baseline,
                                             point, out_dir))
            for seed in range(cfg.n_seeds):
                for metric, metric_value in shared + per_seed_rows[seed]:
                    records.append((cfg.experiment_id, cfg.sweep_var, sweep_value,
                                    seed, metric, _fmt(float(metric_value))))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        writer.writerows(records)
    with open(os.path.join(out_dir, "manifest.ini"), "w") as fh:
        fh.write(config_to_ini(cfg, provenance={"package": "uavpart", "version": __version__}))
    return EXIT_OK
