"""Experiment driver: sweeps, seeds, CSV outputs and the rerun manifest.

For every sweep value the scene is solved once (the solvers are
deterministic); seeds only drive user sampling.  Outputs land in the chosen
directory as metrics.csv, manifest.ini and, on request, partition and trace
dumps, and only when the run exits 0.  Identical config and seeds give
byte-identical CSV files.
"""

from __future__ import annotations

import csv
import errno
import io
import os
import shutil
import sys
import tempfile

import numpy as np

from . import __version__
from .channel import compute_radio_field
from .config import (
    build_channel,
    build_grid,
    build_uavs,
    config_to_ini,
    format_value,
    validate_config,
)
from .errors import ConvergenceError, InfeasibleError
from .metrics import jain_index, sample_users, service_per_user, total_data_service
from .partition import partition_to_csv, weighted_voronoi
from .scenario1 import service_field_for_partition, solve_scenario1
from .scenario2 import hover_time_equal_split  # probed by perfbench as scenario2.eqbw
from .scenario2 import region_hover_report, solve_scenario2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_CONVERGENCE = 4

METRICS_HEADER = ("experiment_id", "sweep_var", "sweep_value", "seed", "metric", "value")
TRACE_HEADER = ("iter", "objective", "residual", "step")
# moved into the output directory after every other file of a run
LAST_MOVED = ("metrics.csv", "manifest.ini")


def _scenario1_rows(cfg, grid, radio, baseline, point, out_dir):
    result = solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users,
                             mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter)
    base_service = service_field_for_partition(grid, baseline, radio, cfg.max_hover, cfg.alpha,
                                               cfg.n_users)
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
    sample = sample_users(grid, cfg.n_users, range(cfg.n_seeds))
    per_seed = [
        [("s1_jain_proposed", proposed), ("s1_jain_voronoi", voronoi)]
        for proposed, voronoi in zip(_jain(service_per_user(result.service, sample)),
                                     _jain(service_per_user(base_service, sample)))
    ]
    _write_outputs(cfg, grid, result, baseline, out_dir, "s1", point)
    return rows, per_seed


def _jain(allocation):
    """Each seed's Jain index, one per row: nan for a seed whose every
    sampled user's region spends its budget on control."""
    scored = allocation.any(axis=1)
    index = np.full(len(allocation), np.nan)
    if scored.any():
        index[scored] = jain_index(allocation[scored])
    return index.tolist()


def _scenario2_rows(cfg, grid, radio, baseline, point, out_dir):
    result = solve_scenario2(grid, radio, cfg.load_bits, cfg.alpha, cfg.n_users,
                             mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter)
    base = region_hover_report(grid, baseline, radio, cfg.load_bits, cfg.alpha, cfg.n_users)
    rows = [
        ("s2_hover_proposed_optbw", result.report.total),
        ("s2_hover_proposed_eqbw", result.report.equal_split.total),
        ("s2_hover_voronoi_optbw", base.total),
        ("s2_hover_voronoi_eqbw", base.equal_split.total),
        ("s2_iterations", float(len(result.potentials.f_trace) - 1)),
        ("s2_duality_gap", result.potentials.gap),
    ]
    _write_outputs(cfg, grid, result, baseline, out_dir, "s2", point)
    return rows


def _write_outputs(cfg, grid, result, baseline, out_dir, tag, point):
    """Write one scenario's proposed and best-signal partition maps and its
    ascent trace, each when the config asks for it.

    When both scenarios run, scenario 2's best-signal map is a copy of
    scenario 1's file: both come from the same baseline partition."""
    def path(scenario, kind):
        return os.path.join(out_dir, f"partition_{scenario}_{point}_{kind}.csv")

    if cfg.write_partitions:
        partition_to_csv(grid, result.partition, path(tag, "proposed"))
        if tag == "s2" and cfg.scenario == "both":
            shutil.copyfile(path("s1", "voronoi"), path("s2", "voronoi"))
        else:
            partition_to_csv(grid, baseline, path(tag, "voronoi"))
    if cfg.trace:
        _write_trace(os.path.join(out_dir, f"trace_{tag}_{point}.csv"), result.potentials)


def _write_trace(path, potentials):
    p = potentials
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for row in zip(range(len(p.f_trace)), p.f_trace, p.grad_trace, p.step_trace):
            writer.writerow(format_value(v) for v in row)


def _metrics_lines(point, shared, per_seed):
    """One sweep point's metrics.csv lines, as csv.writer writes each row
    (point, seed, metric, value): the shared rows, then that seed's own,
    for every seed.  Only the point's experiment id, sweep variable and
    sweep value can need quoting, so they are written through csv.writer
    once; the seed, the metric names and the values are plain text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(point)
    end = writer.dialect.lineterminator
    prefix = buf.getvalue()[:-len(end)]
    shared = [f"{metric},{format_value(float(value))}{end}" for metric, value in shared]
    lines = []
    for seed, seed_rows in enumerate(per_seed):
        head = f"{prefix},{seed},"
        lines.extend(head + row for row in shared)
        lines.extend(f"{head}{metric},{format_value(float(value))}{end}"
                     for metric, value in seed_rows)
    return lines


def _write_run(cfg, points, out_dir):
    """Solve every sweep point of cfg, the (tag, printed value, config)
    triples validate_config returns, and write all of the run's files into
    out_dir: each point's maps and traces as it is solved, then metrics.csv
    and manifest.ini.

    Each point's grid, fleet and channel are built here, so the rules they
    own run once, in their own constructors; their ValueError, like the
    solvers', reaches run_experiment as a config error.  So does an n_seeds
    too long for the list of per-seed rows, before any point is solved."""
    lines = []
    try:  # each seed's own rows, none until scenario 1 scores the seeds
        no_rows = [[]] * cfg.n_seeds
    except MemoryError:
        raise ValueError(f"cannot list the rows of n_seeds = {cfg.n_seeds} seeds") from None
    for point, sweep_value, cur in points:
        grid, uavs, channel = build_grid(cur), build_uavs(cur), build_channel(cur)
        radio = compute_radio_field(grid, uavs, channel)
        baseline = weighted_voronoi(grid, radio)  # best-signal baseline of both scenarios
        shared, per_seed = [], no_rows
        if cur.scenario in ("1", "both"):
            shared, per_seed = _scenario1_rows(cur, grid, radio, baseline, point, out_dir)
        if cur.scenario in ("2", "both"):
            shared.extend(_scenario2_rows(cur, grid, radio, baseline, point, out_dir))
        lines.extend(_metrics_lines((cfg.experiment_id, cfg.sweep_var, sweep_value),
                                    shared, per_seed))
    # UTF-8 in every locale: the id and out_dir are any text UTF-8 encodes
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(METRICS_HEADER)
        fh.writelines(lines)
    with open(os.path.join(out_dir, "manifest.ini"), "w", encoding="utf-8") as fh:
        fh.write(config_to_ini(cfg, provenance={"package": "uavpart", "version": __version__}))


def run_experiment(cfg, out_dir=None):
    """Run all sweep points and seeds; write CSVs; return an exit code.

    Each sweep point is solved once and its user seeds are scored in one
    batch: one sample_users call over all seeds, each seed's users the
    draws of its own generator, and one jain_index call per partition;
    metrics.csv keeps one row set per seed.  The sweep points are the ones
    validate_config checks and returns, each with its tag and printed value.

    Every file is written into a staging directory that tempfile makes
    inside the output directory when it exists, else beside it, after
    making the parent chain as os.makedirs would; an output path that
    exists but is no directory fails before any point is solved.  After the
    last point every target name is checked, so a directory at one fails
    before any file is moved; then the files are moved into the output
    directory with os.replace, metrics.csv and manifest.ini last, and the
    stage is removed on every way out.  So a run that exits non-zero or
    raises leaves the output directory as it was, and never creates a fresh
    one.  Only a failure while the files are moved in, reported as an
    unwritable output, can leave part of them moved, and a process killed
    by a signal leaves its stage behind (never the output directory's
    files).

    0 on success, 2 on a bad config or scene or an unwritable output, 3 when
    an instance is infeasible, 4 when a solver fails to converge (diagnostics
    on stderr).  A ValueError, ConfigError among them, from any stage of a
    point (the grid, the fleet, the channel or a solver) is a config error.
    """
    out_dir = cfg.out_dir if out_dir is None else out_dir
    try:
        points = validate_config(cfg)
        # the stage shares the output directory's file system, so os.replace
        # never crosses one: inside it when it exists (a mount point too),
        # else beside it, where makedirs will make it
        if os.path.isdir(out_dir):
            stage_in = out_dir
        elif os.path.lexists(out_dir):
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out_dir)
        else:
            stage_in = os.path.dirname(os.path.realpath(out_dir))
            os.makedirs(stage_in, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".uavpart-stage-", dir=stage_in) as stage:
            _write_run(cfg, points, stage)
            os.makedirs(out_dir, exist_ok=True)
            names = [n for n in os.listdir(stage) if n not in LAST_MOVED] + list(LAST_MOVED)
            # a directory at a target name would stop the moves part way
            for name in names:
                target = os.path.join(out_dir, name)
                if os.path.isdir(target) and not os.path.islink(target):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
            for name in names:
                os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    except ValueError as exc:
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
