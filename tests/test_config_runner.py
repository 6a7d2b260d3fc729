"""Config parsing, fleet placement, the experiment runner and the CLI."""

import csv
import importlib.util
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.channel import compute_radio_field
import uavpart.config as config_module
import uavpart.metrics as metrics_module
import uavpart.runner as runner_module
from uavpart.cli import main
from uavpart.config import (
    ExperimentConfig,
    apply_sweep,
    build_channel,
    build_grid,
    build_uavs,
    config_to_ini,
    load_config,
    place_uavs_grid,
    validate_config,
)
from uavpart.errors import ConfigError, ConvergenceError
from uavpart.runner import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    run_experiment,
)
from uavpart.partition import weighted_voronoi
from uavpart.scenario1 import service_field_for_partition, solve_scenario1

from oracles import metrics_csv_reference, per_seed_jain

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(__file__).resolve().parent.parent / "src"

FAST_BASE = {
    "experiment_id": "fast",
    "nx": 30,
    "ny": 30,
    "mass_tol": 0.01,
    "n_seeds": 2,
}


def fast_text(**overrides):
    keys = dict(FAST_BASE, **overrides)
    return "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())


FAST_KEYS = fast_text()
# ids that configparser's default interpolation would reject or rewrite
PERCENT_IDS = ("run 50% load", "%(nx)s")
FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_metrics(out_dir):
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


# config file handling


def test_defaults_roundtrip(tmp_path):
    cfg = ExperimentConfig()
    path = write_cfg(tmp_path, config_to_ini(cfg))
    assert load_config(path) == cfg


def test_modified_roundtrip(tmp_path):
    cfg = replace(
        ExperimentConfig(),
        experiment_id="sweep-test",
        sweep_var="beta",
        sweep_values=(0.0, 0.25, 1.0),
        write_partitions=True,
        nx=64,
    )
    path = write_cfg(tmp_path, config_to_ini(cfg))
    assert load_config(path) == cfg
    # every bit of a float survives the manifest
    cfg = replace(
        cfg,
        mu_x=250.1234567890123,
        alpha=0.1 + 0.2,
        bandwidth=1.0e6 / 3.0,
        sweep_values=(1.0 / 3.0, 2.0**-60, 0.7000000000000001),
    )
    path = write_cfg(tmp_path, config_to_ini(cfg))
    assert load_config(path) == cfg
    # values are read literally: a % is no interpolation
    for experiment_id in PERCENT_IDS:
        path = write_cfg(tmp_path, fast_text(experiment_id=experiment_id))
        assert load_config(path).experiment_id == experiment_id
        cfg = replace(cfg, experiment_id=experiment_id)
        assert load_config(write_cfg(tmp_path, config_to_ini(cfg))) == cfg


def test_config_errors(tmp_path):
    cases = [
        "[experiment]\nno_such_key = 1\n",
        "[experiment]\nnx = abc\n",
        "[experiment]\nwrite_partitions = maybe\n",
        "[experiment]\nsigma_x = -5\n",
        "[experiment]\nsweep_var = beta\n",
        "[experiment]\nsweep_var = beta\nsweep_values = nan\n",
        "[experiment]\nscenario = 3\n",
        "[experiment]\nmu_los = -2\n",
        # retired keys: the linear channel aliases and the old solver's rounds
        "[experiment]\nmu_los = 2\n",
        "[experiment]\nrounds = 200\n",
        # scenario 2's control price 2 alpha N^2 overflows, then N^2 itself
        "[experiment]\nalpha = 1e300\nn_users = 100000\n",
        f"[experiment]\nalpha = 0\nn_users = {10**160}\n",
        "key = value without a section\n",
    ]
    for text in cases:
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_provenance_section_is_ignored(tmp_path):
    path = write_cfg(
        tmp_path,
        "[experiment]\nnx = 40\n\n[provenance]\npackage = uavpart\nversion = 9.9\n",
    )
    assert load_config(path).nx == 40


def test_apply_sweep_each_variable():
    cfg = replace(ExperimentConfig(), sweep_var="beta", sweep_values=(0.5,))
    assert apply_sweep(cfg, 0.5).beta == 0.5
    cfg = replace(cfg, sweep_var="sigma")
    swept = apply_sweep(cfg, 700.0)
    assert swept.sigma_x == swept.sigma_y == 700.0
    cfg = replace(cfg, sweep_var="tau_max")
    assert apply_sweep(cfg, 900.0).max_hover == 900.0
    cfg = replace(cfg, sweep_var="bandwidth")
    assert apply_sweep(cfg, 5e6).bandwidth == 5e6
    cfg = replace(cfg, sweep_var="alpha")
    assert apply_sweep(cfg, 0.1).alpha == 0.1
    cfg = replace(cfg, sweep_var="n_uavs")
    assert apply_sweep(cfg, 8.0).n_uavs == 8


def test_validate_catches_bad_combinations(tmp_path, capsys):
    # beta is ChannelParams' rule: it runs where the run builds the channel
    out = tmp_path / "out"
    assert run_experiment(replace(ExperimentConfig(), beta=1.5), str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: beta must lie in [0, 1]\n"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ConfigError):
        validate_config(replace(ExperimentConfig(), n_uavs=0))
    with pytest.raises(ConfigError):
        validate_config(replace(ExperimentConfig(), mass_tol=0.0))
    with pytest.raises(ConfigError):
        validate_config(replace(ExperimentConfig(), density_kind="ring"))


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.ini")), ids=lambda p: p.stem)
def test_committed_configs_load(path):
    # load_config runs validate_config over every sweep point
    cfg = load_config(str(path))
    assert cfg.experiment_id == path.stem


# fleet placement


def test_placement_single_uav_center():
    (uav,) = place_uavs_grid(1000.0, 1000.0, 1, 200.0, 0.5, 1e6)
    assert (uav.x, uav.y) == (500.0, 500.0)
    assert (uav.altitude, uav.power, uav.bandwidth) == (200.0, 0.5, 1e6)


def test_placement_four_quadrants():
    uavs = place_uavs_grid(1000.0, 1000.0, 4, 200.0, 0.5, 1e6)
    got = {(u.x, u.y) for u in uavs}
    assert got == {(250.0, 250.0), (750.0, 250.0), (250.0, 750.0), (750.0, 750.0)}


def test_placement_five_row_major():
    uavs = place_uavs_grid(1000.0, 1000.0, 5, 200.0, 0.5, 1e6)
    expected = [
        (1000.0 / 6.0, 250.0),
        (500.0, 250.0),
        (5000.0 / 6.0, 250.0),
        (1000.0 / 6.0, 750.0),
        (500.0, 750.0),
    ]
    for uav, (x, y) in zip(uavs, expected):
        assert uav.x == pytest.approx(x, rel=1e-12)
        assert uav.y == pytest.approx(y, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 30),
    width=st.floats(100.0, 5000.0),
    height=st.floats(100.0, 5000.0),
)
def test_placement_inside_area_and_distinct(m, width, height):
    uavs = place_uavs_grid(width, height, m, 100.0, 0.5, 1e6)
    assert len(uavs) == m
    seen = {(u.x, u.y) for u in uavs}
    assert len(seen) == m
    for u in uavs:
        assert 0.0 < u.x < width and 0.0 < u.y < height


# runner


def test_run_experiment_happy_path(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_KEYS))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_OK
    rows = read_metrics(out)
    metrics_per_seed = {}
    for row in rows:
        assert row["experiment_id"] == "fast"
        assert row["sweep_var"] == "none" and row["sweep_value"] == ""
        metrics_per_seed.setdefault(row["seed"], []).append(row["metric"])
    assert set(metrics_per_seed) == {"0", "1"}
    expected = {
        "s1_mass_residual", "s1_iterations",
        "s1_service_total_proposed", "s1_service_total_voronoi",
        "s1_jain_proposed", "s1_jain_voronoi",
        "s2_hover_proposed_optbw", "s2_hover_proposed_eqbw",
        "s2_hover_voronoi_optbw", "s2_hover_voronoi_eqbw",
        "s2_iterations", "s2_duality_gap",
    }
    for i in range(5):
        expected.add(f"s1_users_uav{i}_proposed")
        expected.add(f"s1_users_uav{i}_voronoi")
    for seed, names in metrics_per_seed.items():
        assert set(names) == expected
        assert len(names) == len(expected)
    assert (out / "manifest.ini").exists()


def test_run_experiment_values_are_sane(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_KEYS))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_OK
    values = {
        row["metric"]: float(row["value"])
        for row in read_metrics(out)
        if row["seed"] == "0"
    }
    assert values["s1_mass_residual"] <= 0.01
    assert values["s2_iterations"] >= 0
    assert 0.0 <= values["s2_duality_gap"] <= 1e-3 * values["s2_hover_proposed_optbw"]
    assert 0.0 < values["s1_jain_proposed"] <= 1.0
    assert values["s1_service_total_proposed"] > 0
    assert values["s2_hover_proposed_optbw"] > 0
    assert values["s2_hover_proposed_optbw"] <= values["s2_hover_voronoi_optbw"] * 1.001
    assert values["s2_hover_proposed_eqbw"] >= values["s2_hover_proposed_optbw"]
    users = sum(values[f"s1_users_uav{i}_proposed"] for i in range(5))
    assert users == pytest.approx(300.0, abs=3.5)


def test_run_experiment_byte_identical(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_KEYS))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(cfg, str(out_a)) == EXIT_OK
    assert run_experiment(cfg, str(out_b)) == EXIT_OK
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_manifest_reruns_identically(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_KEYS))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_OK
    again = load_config(str(out / "manifest.ini"))
    assert again == cfg
    for k, experiment_id in enumerate(PERCENT_IDS):
        cfg = load_config(write_cfg(tmp_path, fast_text(experiment_id=experiment_id, scenario=1)))
        first, rerun = tmp_path / f"first{k}", tmp_path / f"rerun{k}"
        assert run_experiment(cfg, str(first)) == EXIT_OK
        assert {row["experiment_id"] for row in read_metrics(first)} == {experiment_id}
        again = load_config(str(first / "manifest.ini"))
        assert again == cfg
        assert run_experiment(again, str(rerun)) == EXIT_OK
        for name in ("metrics.csv", "manifest.ini"):
            assert (first / name).read_bytes() == (rerun / name).read_bytes()


def test_run_sweep_points(tmp_path):
    text = fast_text(scenario=2, sweep_var="beta", sweep_values="0 1")
    cfg = load_config(write_cfg(tmp_path, text))
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_OK
    rows = read_metrics(out)
    by_value = {}
    for row in rows:
        assert row["sweep_var"] == "beta"
        by_value.setdefault(row["sweep_value"], set()).add(row["metric"])
    assert set(by_value) == {"0", "1"}
    assert "s2_hover_proposed_optbw" in by_value["0"]
    assert not any(m.startswith("s1_") for m in by_value["0"])


def test_both_scenarios_share_one_best_signal_map(tmp_path):
    # scenario 2's best-signal map is scenario 1's file, copied; a
    # scenario-2-only run formats the same map itself
    text = fast_text(write_partitions="true", sweep_var="beta", sweep_values="0 1")
    both, alone = tmp_path / "both", tmp_path / "alone"
    assert run_experiment(load_config(write_cfg(tmp_path, text)), str(both)) == EXIT_OK
    cfg = replace(load_config(write_cfg(tmp_path, text)), scenario="2")
    assert run_experiment(cfg, str(alone)) == EXIT_OK
    for point in ("beta_0", "beta_1"):
        s1 = (both / f"partition_s1_{point}_voronoi.csv").read_bytes()
        assert len(s1.splitlines()) == 1 + 30 * 30
        assert (both / f"partition_s2_{point}_voronoi.csv").read_bytes() == s1
        assert (alone / f"partition_s2_{point}_voronoi.csv").read_bytes() == s1


def test_run_infeasible_exit(tmp_path, capsys):
    text = fast_text(sinr_threshold_db=60)
    cfg = load_config(write_cfg(tmp_path, text))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_run_convergence_exit(tmp_path, capsys):
    # 5e-4 is below what a 30x30 grid can represent, so the budget runs out
    text = fast_text(scenario=1, mass_tol=0.0005, max_ascent_iter=50)
    cfg = load_config(write_cfg(tmp_path, text))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_CONVERGENCE
    assert "converge" in capsys.readouterr().err


# cli


def test_cli_run_with_overrides(tmp_path):
    path = write_cfg(tmp_path, fast_text(write_partitions="true"))
    out = tmp_path / "cli_out"
    code = main([
        "run", path,
        "--out", str(out),
        "--seeds", "1",
        "--grid", "32x32",
        "--scenario", "1",
        "--trace",
    ])
    assert code == EXIT_OK
    rows = read_metrics(out)
    assert {row["seed"] for row in rows} == {"0"}
    assert not any(row["metric"].startswith("s2_") for row in rows)
    assert (out / "partition_s1_base_proposed.csv").exists()
    assert (out / "partition_s1_base_voronoi.csv").exists()
    trace = (out / "trace_s1_base.csv").read_text().splitlines()
    assert trace[0] == "iter,objective,residual,step"
    iterations = next(
        float(row["value"]) for row in rows if row["metric"] == "s1_iterations"
    )
    assert len(trace) == int(iterations) + 2  # header plus the initial row


def test_cli_partition_file_matches_grid(tmp_path):
    path = write_cfg(tmp_path, fast_text(write_partitions="true", scenario=2))
    out = tmp_path / "cli_out"
    assert main(["run", path, "--out", str(out), "--seeds", "1"]) == EXIT_OK
    lines = (out / "partition_s2_base_proposed.csv").read_text().splitlines()
    assert lines[0] == "cell_x_m,cell_y_m,uav_index"
    assert len(lines) == 1 + 30 * 30
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(1000.0 / 60.0)
    assert int(first[2]) >= -1


def test_cli_uniform_density_runs(tmp_path):
    # density_kind = uniform gives every cell the constant density
    # 1 / (width * height), and both scenarios run on it
    path = write_cfg(tmp_path, fast_text(density_kind="uniform", width=800.0, height=500.0))
    grid = build_grid(load_config(path))
    assert np.all(grid.density == 1.0 / (800.0 * 500.0))
    out = tmp_path / "cli_out"
    assert main(["run", path, "--out", str(out), "--seeds", "1"]) == EXIT_OK
    metrics = {row["metric"] for row in read_metrics(out)}
    assert "s1_mass_residual" in metrics and "s2_duality_gap" in metrics


def test_cli_bad_config_returns_config_exit(tmp_path):
    path = write_cfg(tmp_path, "[experiment]\nno_such_key = 1\n")
    assert main(["run", path]) == EXIT_CONFIG
    assert main(["run", str(tmp_path / "nope.ini")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides",
    [
        {"scenario": 2, "sweep_var": "n_uavs", "sweep_values": "2 0.5"},
        {"scenario": 2, "sweep_var": "beta", "sweep_values": "0.5 1.5"},
        {"scenario": 2, "sweep_var": "bandwidth", "sweep_values": "1e6 -1"},
        {"b1": -1},
        {"mu_los_db": -3},
        {"altitude": 1e200},
        {"carrier_hz": 1e200},
        {"carrier_hz": 1e-200},
        {"width": 1e200},
        {"height": 1e155},
        {"sigma_x": 1e200},
        {"sigma_y": 1e-200},
        {"sigma_x": 1, "sigma_y": 1, "mu_x": -500},
        {"mu_x": 1e200},
        {"scenario": 2, "mu_los_db": 4000},
        {"scenario": 2, "noise_dbm_per_hz": 4000},
        {"scenario": 2, "sinr_threshold_db": 4000},
        {"width": 1e-200, "height": 1e-200},
        # a subnormal peak, whose density would not integrate to 1
        {"scenario": 1, "sigma_x": 100, "sigma_y": 100, "mu_x": 4816, "mu_y": 500},
        # sample_users cannot draw 10**100 users: its ValueError was a traceback
        {"scenario": 1, "density_kind": "uniform", "nx": 6, "ny": 6, "n_users": 10**100,
         "alpha": 1e-300, "mass_tol": 1},
        # N0 B = 1e-20 * 1e-320 is 0 and nothing interferes: the SINR was
        # inf, a RuntimeWarning traceback; with warnings ignored scenario 2
        # wrote a plan of control time alone
        {"scenario": 1, "n_uavs": 1, "bandwidth": 1e-320, "density_kind": "uniform",
         "nx": 6, "ny": 4},
        {"scenario": 2, "n_uavs": 1, "bandwidth": 1e-320, "density_kind": "uniform",
         "nx": 6, "ny": 4},
    ],
    ids=["n_uavs", "beta", "bandwidth", "b1", "mu_los_db", "altitude_overflow",
         "carrier_overflow", "carrier_underflow", "width_overflow", "height_overflow",
         "sigma_overflow", "sigma_underflow", "density_underflow", "mean_overflow",
         "mu_los_db_overflow", "noise_overflow", "sinr_threshold_overflow",
         "cell_area_underflow", "density_subnormal", "sampled_users_beyond_an_array",
         "noise_underflow_s1", "noise_underflow_s2"],
)
@pytest.mark.filterwarnings("error")
def test_cli_bad_scene_returns_config_exit(tmp_path, capsys, overrides):
    path = write_cfg(tmp_path, fast_text(**overrides))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_sampled_users_beyond_an_array_names_n_users(tmp_path, capsys):
    # the one stderr line was NumPy's "Maximum allowed dimension exceeded"
    path = write_cfg(tmp_path, fast_text(scenario=1, density_kind="uniform", nx=6, ny=6,
                                         n_users=10**100, alpha=1e-300, mass_tol=1))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot draw n_users = {10**100} users for "
                          "n_seeds = 2: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_sampled_users_beyond_memory_names_n_users(monkeypatch, tmp_path, capsys):
    # np.empty's MemoryError for 10**12 users per seed was a traceback; the
    # allocation is made to fail here, so no test asks for 14.6 TiB
    class NoMemory:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(shape, *args, **kwargs):
            raise MemoryError(f"Unable to allocate 14.6 TiB for an array with shape {shape} "
                              "and data type float64")

    monkeypatch.setattr(metrics_module, "np", NoMemory())
    path = write_cfg(tmp_path, fast_text(scenario=1, density_kind="uniform", nx=6, ny=6,
                                         n_users=10**12, alpha=1e-300, mass_tol=1))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot draw n_users = {10**12} users for n_seeds = 2: Unable to "
        f"allocate 14.6 TiB for an array with shape (2, {10**12}) and data type float64\n")
    assert not out.exists()


def test_scenario2_point_reads_its_own_links_twice(monkeypatch, tmp_path):
    # one read of the proposed partition's links and one of the best-signal
    # partition's give both bandwidth splits of each
    import uavpart.scenario2 as scenario2_module
    reads = []
    link_seconds = scenario2_module._link_seconds

    def counted(*args):
        reads.append(args[1])
        return link_seconds(*args)

    monkeypatch.setattr(scenario2_module, "_link_seconds", counted)
    cfg = replace(ExperimentConfig(), experiment_id="reads", scenario="2", nx=20, ny=20,
                  mass_tol=5e-3, n_seeds=1, sweep_var="beta", sweep_values=(0.5, 1.0))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_OK
    assert len(reads) == 4


@pytest.mark.filterwarnings("error")
def test_cli_scenario1_run_never_imports_numpy_random(tmp_path):
    # the users are drawn from uavpart's own SplitMix64 stream, so a run that
    # samples them loads none of numpy.random's extension modules
    path = write_cfg(tmp_path, fast_text(scenario=1, n_seeds=4))
    check = ("import sys; from uavpart.cli import main; code = main(sys.argv[1:]); "
             "print(sorted(m for m in sys.modules if m.startswith('numpy.random'))); "
             "sys.exit(code)")
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-c", check, "run", path, "--out", str(out)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    seeds = {row["seed"] for row in read_metrics(out) if row["metric"] == "s1_jain_proposed"}
    assert seeds == {"0", "1", "2", "3"}


def test_cli_overflowing_load_is_infeasible(tmp_path, capsys):
    # every cell's transmission time overflows to inf: no cell can be served
    path = write_cfg(tmp_path, fast_text(scenario=2, load_bits=1e308))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible instance: ")
    assert "finite transmission time" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_transmission_time_is_infeasible(tmp_path, capsys):
    # N load / (B_i eff_ic) overflows on every link at bandwidth = 1e-300:
    # a RuntimeWarning, then the same exit 3 with warnings ignored
    path = write_cfg(tmp_path, fast_text(scenario=2, nx=20, ny=20, bandwidth=1e-300))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible instance: 400 populated cells have no finite "
                          "transmission time, ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides", [{"altitude": 1e153}, {"carrier_hz": 1e160}], ids=["altitude", "carrier_hz"]
)
@pytest.mark.parametrize("scenario", ["1", "2"])
@pytest.mark.filterwarnings("error")
def test_cli_overflowing_path_loss_is_infeasible(tmp_path, capsys, scenario, overrides):
    # the path loss overflows to inf on every link: no power reaches any cell
    path = write_cfg(tmp_path, fast_text(scenario=scenario, nx=20, ny=20, **overrides))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible instance: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_huge_alpha_fails_cleanly(tmp_path, capsys):
    # the control-time prices reach 1e305: the dual term must not overflow
    path = write_cfg(tmp_path, fast_text(scenario=2, nx=20, ny=20, alpha=1e300))
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CONVERGENCE)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == (code == EXIT_CONVERGENCE)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", [1, 2])
def test_cli_overflowing_control_price_is_a_config_error(tmp_path, capsys, scenario):
    # 2 alpha N^2 = 2e310 overflows a float: the config is rejected before
    # any solver runs, in either scenario, with no RuntimeWarning
    path = write_cfg(tmp_path, fast_text(scenario=scenario, nx=20, ny=20, alpha=1e300,
                                         n_users=100000))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: every control price 2 alpha N^2 must be finite and non-negative\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_users", [10**160, 10**400], ids=["1e160", "1e400"])
def test_cli_user_count_with_no_float_square_is_a_config_error(tmp_path, capsys, n_users):
    # N^2 is too large for a float even at alpha = 0: the rule names n_users
    path = write_cfg(tmp_path, fast_text(nx=20, ny=20, alpha=0, n_users=n_users))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: n_users squared must be at most the largest float\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, code", [(6, EXIT_CONVERGENCE), (40, EXIT_OK)])
def test_cli_newton_move_on_tiny_costs_raises_no_warning(tmp_path, capsys, n, code):
    # a resource per user near 1e-302 made the band Hessians overflow: a
    # RuntimeWarning traceback; a band whose J or move is not finite fits no band
    path = write_cfg(tmp_path, fast_text(nx=n, ny=n, scenario=1, n_seeds=1, alpha=0,
                                         max_hover=1e-190, bandwidth=1e-110, mass_tol=1e-3))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == (code == EXIT_CONVERGENCE)
    assert err.startswith("solver did not converge: dual ascent ended at a kink") or not err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_uavs", [401, 10**400], ids=["401", "1e400"])
def test_cli_fleet_larger_than_the_grid_is_a_config_error(tmp_path, capsys, n_uavs):
    # more UAVs than the 400 cells of a 20 x 20 grid: the rule names n_uavs
    # before the fleet is built (10**400 is too large for a float)
    path = write_cfg(tmp_path, fast_text(nx=20, ny=20, n_uavs=n_uavs))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: n_uavs must be at most nx * ny, the number of grid cells\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides", [{"max_hover": 1.8e6}, {"bandwidth": 1e8}],
                         ids=["max_hover", "bandwidth"])
def test_cli_large_units_converge(tmp_path, overrides):
    # the step search scales with the costs, so only the units change here
    path = write_cfg(tmp_path, fast_text(scenario=1, nx=60, ny=60, mass_tol=1e-3,
                                         **overrides))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    residual = [float(row["value"]) for row in read_metrics(out)
                if row["metric"] == "s1_mass_residual"]
    assert residual and max(residual) <= 1e-3


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1e2, 3e2, 1e3, 1e4, 1e6, 1e20],
                         ids=lambda a: f"{a:g}")
def test_cli_large_control_weight_converges(tmp_path, alpha):
    # scenario 2 starts from prices of order alpha N^2, so its first step
    # scales with them; the ascent runs until the masses meet their prices
    path = write_cfg(tmp_path, fast_text(scenario=2, nx=20, ny=20, alpha=alpha))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    rows = {row["metric"]: float(row["value"]) for row in read_metrics(out)}
    gap, total = rows["s2_duality_gap"], rows["s2_hover_proposed_optbw"]
    assert 0.0 <= gap <= total
    # the dual value, total - gap, bounds every plan's hover total from below
    assert total - gap <= rows["s2_hover_voronoi_optbw"]
    # at alpha = 1e20 the transmission seconds round away against prices of
    # order alpha N^2, so the ascent ends at a kink far above the baseline
    if alpha < 1e20:
        assert total <= rows["s2_hover_voronoi_optbw"]
        assert gap <= 1e-3 * total


TIGHT_HOT_SPOT = ("[experiment]\nscenario = 1\nmu_x = 166.6667\nmu_y = 250\n"
                  "sigma_x = 60\nsigma_y = 60\nalpha = 0.3\n")


@pytest.mark.filterwarnings("error")
def test_cli_jain_of_an_unserved_sample_is_nan(tmp_path):
    # a tight hot spot overloads one best-signal region, whose serving time
    # is floored at 0; at seed 4 every sampled user sits in it
    path = write_cfg(tmp_path, TIGHT_HOT_SPOT)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--seeds", "5"]) == EXIT_OK
    jain = {(row["seed"], row["metric"]): row["value"]
            for row in read_metrics(out) if row["metric"].startswith("s1_jain_")}
    assert len(jain) == 10
    assert jain["4", "s1_jain_voronoi"] == "nan"
    for key, value in jain.items():
        if key != ("4", "s1_jain_voronoi"):
            assert 0.0 < float(value) <= 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scenario", ["1", "both"])
def test_metrics_csv_is_the_per_seed_writer_output(tmp_path, scenario):
    # the runner quotes each point's fields once and writes the seeds' rows
    # as text; the file must be what csv.writer writes row by row, with the
    # Jain indices of seeds scored one at a time (seed 4's voronoi is nan)
    cfg = replace(load_config(write_cfg(tmp_path, TIGHT_HOT_SPOT)),
                  experiment_id='tight,"hot" spot', scenario=scenario, n_seeds=5)
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_OK
    grid = build_grid(cfg)
    radio = compute_radio_field(grid, build_uavs(cfg), build_channel(cfg))
    result = solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users,
                             mass_tol=cfg.mass_tol, max_iter=cfg.max_ascent_iter)
    baseline = service_field_for_partition(grid, weighted_voronoi(grid, radio), radio,
                                           cfg.max_hover, cfg.alpha, cfg.n_users)
    jain = [per_seed_jain(grid, cfg.n_users, range(cfg.n_seeds), service)
            for service in (result.service, baseline)]
    assert np.isnan(jain[1][4])
    per_seed = [[("s1_jain_proposed", p), ("s1_jain_voronoi", v)] for p, v in zip(*jain)]
    shared = [(row["metric"], row["value"]) for row in read_metrics(out)
              if row["seed"] == "0" and not row["metric"].startswith("s1_jain_")]
    assert len(shared) == (20 if scenario == "both" else 14)
    expected = metrics_csv_reference((cfg.experiment_id, "none", ""), shared, per_seed)
    assert (out / "metrics.csv").read_bytes() == expected.encode()


@pytest.mark.filterwarnings("error")
def test_cli_kink_exit_names_the_mismatch_and_the_heaviest_cell(tmp_path, capsys):
    # at 100 x 100 the hot spot's heaviest cell outweighs mass_tol, and the
    # fair ascent ends at a kink with its masses off their shares
    path = write_cfg(tmp_path, TIGHT_HOT_SPOT)
    argv = ["run", path, "--grid", "100x100", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]
    cfg = replace(load_config(path), nx=100, ny=100)
    grid = build_grid(cfg)
    radio = compute_radio_field(grid, build_uavs(cfg), build_channel(cfg))
    with pytest.raises(ConvergenceError) as info:
        solve_scenario1(grid, radio, cfg.max_hover, cfg.alpha, cfg.n_users)
    mismatch, heaviest = info.value.trace[1][-1], grid.cell_mass.max()
    assert heaviest > mismatch > cfg.mass_tol
    for number in (mismatch, cfg.mass_tol, heaviest):
        assert f"{number:.3e}" in err


@pytest.mark.filterwarnings("error")
def test_cli_second_point_underflow_writes_nothing(tmp_path, capsys):
    # the first point's hot spot (sigma = 1e5) is nearly flat and would run;
    # the second's (sigma = 100) underflows on the grid, 19 km off the area
    text = fast_text(scenario=1, nx=20, ny=20, mu_x=20000, sweep_var="sigma",
                     sweep_values="100000 100", write_partitions="true")
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: hot spot density underflows on the grid\n"
    assert not out.exists()


def tree(root):
    """Every file under root, by path relative to root, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


# a 30 x 30 scenario-1 sigma sweep with maps and traces: each point writes
# three files before the next point is solved
STAGED_SWEEP = replace(ExperimentConfig(), experiment_id="staged", scenario="1", nx=30, ny=30,
                       mass_tol=5e-3, n_seeds=1, write_partitions=True, trace=True,
                       sweep_var="sigma", sweep_values=(1000.0, 800.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("failure", ["kink", "infeasible", "raises"])
def test_a_failed_run_leaves_the_output_directory_as_it_was(tmp_path, capsys, monkeypatch,
                                                            failure):
    # the first point is solved and its files written before the second
    # fails: at a kink (sigma = 30, exit 4), with a fleet that cannot control
    # its users (exit 3), or in a solver that raises; a fresh path must not
    # exist afterwards, a finished run's files must keep every byte, and no
    # staging directory may be left beside either
    finished = tmp_path / "finished"
    assert run_experiment(STAGED_SWEEP, str(finished)) == EXIT_OK
    before = tree(finished)
    assert len(before) == 8  # two maps and a trace per point, metrics.csv, manifest.ini
    assert sorted(p.name for p in tmp_path.iterdir()) == ["finished"]
    rerun = {"kink": replace(STAGED_SWEEP, beta=0.5, sweep_values=(1000.0, 30.0)),
             "infeasible": replace(STAGED_SWEEP, beta=0.5, sweep_var="tau_max",
                                   sweep_values=(1800.0, 1e-3)),
             "raises": replace(STAGED_SWEEP, beta=0.5)}[failure]
    solve = runner_module.solve_scenario1
    calls = []

    def second_point_raises(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("solver crashed")
        return solve(*args, **kwargs)

    if failure == "raises":
        monkeypatch.setattr(runner_module, "solve_scenario1", second_point_raises)
    fresh = tmp_path / "fresh" / "out"
    for out in (fresh, finished):
        calls.clear()
        if failure == "raises":
            with pytest.raises(RuntimeError, match="^solver crashed$"):
                run_experiment(rerun, str(out))
            continue
        code = run_experiment(rerun, str(out))
        assert code == (EXIT_CONVERGENCE if failure == "kink" else EXIT_INFEASIBLE)
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not fresh.exists()
    assert tree(finished) == before
    assert sorted(p.name for p in finished.iterdir()) == sorted(before)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["finished", "fresh"]
    assert list(fresh.parent.iterdir()) == []


def run_timed(path, out, warnings="error::RuntimeWarning"):
    """uavpart run path --out out in a process of its own, under -W warnings,
    so a hang is stopped by the timeout; stdout holds main's wall time."""
    timed = ("import sys, time; from uavpart.cli import main; start = time.perf_counter(); "
             "code = main(sys.argv[1:]); print(time.perf_counter() - start); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-W", warnings, "-c", timed, "run", path,
                           "--out", str(out)], capture_output=True, text=True, timeout=60,
                          env=env)


@pytest.mark.parametrize(
    "n, overrides, pool",
    [(6, {"max_hover": 1e303}, "inf"), (20, {"max_hover": 1.7e308}, "inf"),
     (6, {"max_hover": 2e301, "alpha": 2e301 / 14400}, "0"),
     (20, {"max_hover": 1.7e308, "bandwidth": 1e-6}, "inf"),
     (6, {"density_kind": "uniform", "height": 3.7e6, "bandwidth": 1e-320,
          "max_hover": 1.7e308, "max_ascent_iter": 3}, "inf")],
    ids=["6x6", "20x20", "control_term", "two_tau", "two_tau_subnormal_bandwidth"],
)
def test_fairness_pool_that_overflows_exits_2_at_once(tmp_path, n, overrides, pool):
    # B . tau (or 4 alpha tau in the third, 2 tau in the last two) overflowed
    # to inf and the ascent never ended; the run goes in a process of its
    # own, so a hang is stopped by the timeout
    keys = dict({"nx": n, "ny": n, "scenario": 1, "max_ascent_iter": 1}, **overrides)
    path = write_cfg(tmp_path, fast_text(**keys))
    out = tmp_path / "out"
    done = run_timed(path, out)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == (f"config error: the fairness split's pool sum_i B_i T_i = {pool} "
                           "is not a normal float\n")
    assert float(done.stdout) < 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "ignore"])
def test_shares_no_partition_meets_exit_3_at_once(tmp_path, warnings):
    # every populated cell has a link, but UAVs 3 to 6 reach only empty
    # cells: the ascent climbed to infinite potentials, a RuntimeWarning
    # traceback, or with warnings ignored an exit 4 after about 9 s
    path = write_cfg(tmp_path, fast_text(scenario=1, n_uavs=7, bandwidth=1000,
                                         sinr_threshold_db=1e-30, sigma_y=7, nx=3, ny=6,
                                         n_users=20, n_seeds=1, mass_tol=1e-3))
    out = tmp_path / "out"
    done = run_timed(path, out, warnings)
    assert done.returncode == EXIT_INFEASIBLE
    assert done.stderr.startswith("infeasible instance: no partition meets the shares: "
                                  "the UAV set {3, 4, 5, 6} needs 0.571429 of the user mass")
    assert len(done.stderr.splitlines()) == 1
    assert float(done.stdout) < 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "ignore"])
@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("overrides", [{"power": 1e300, "carrier_hz": 1e-3},
                                       {"noise_dbm_per_hz": 3000, "bandwidth": 1e300}],
                         ids=["power_overflow", "noise_overflow"])
def test_radio_field_that_overflows_exits_2(tmp_path, overrides, scenario, warnings):
    # u.power / loss (first) or N0 B (second) overflowed to inf in
    # _link_layers: a RuntimeWarning traceback, or with warnings ignored an
    # exit 3 as if no link cleared the SINR floor
    path = write_cfg(tmp_path, fast_text(nx=8, ny=8, scenario=scenario, **overrides))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == ("config error: the noise N0 B_i of UAV 0 overflows a float, or a "
                           "received power or its SINR does\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "ignore"])
def test_own_link_seconds_that_overflow_exit_3(tmp_path, warnings):
    # load_bits / eff overflowed on the own links of 12 populated cells: a
    # RuntimeWarning traceback, or with warnings ignored an exit 0 with inf
    # for all four s2_hover_* metrics
    path = write_cfg(tmp_path, fast_text(nx=8, ny=8, scenario=2, n_users=1, load_bits=1.7e308))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_INFEASIBLE
    assert done.stderr == ("infeasible instance: 12 populated cells have no finite "
                           "transmission time, first at (312 m, 62 m)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
def test_service_field_that_overflows_exits_2(tmp_path, warnings):
    # the Voronoi baseline's scale B_i T_i / (N a_i) overflowed: a
    # RuntimeWarning traceback, or with warnings shown an exit 0 with
    # s1_service_total_voronoi = nan
    path = write_cfg(tmp_path, fast_text(scenario=1, nx=9, ny=9, n_uavs=2, n_users=5,
                                         n_seeds=1, sigma_x=30, sigma_y=100, mu_x=1170,
                                         mu_y=-130, bandwidth=5e4, max_hover=1e226, mass_tol=1))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == "config error: the per-user service of UAV 0 overflows a float\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
def test_zero_load_takes_no_time_where_the_bandwidth_underflows(tmp_path, warnings):
    # 0 / (B_i eff_ic) was 0 / 0 = nan where B_i eff_ic underflows to 0: a
    # RuntimeWarning traceback, or with warnings shown an exit 2 with
    # "costs must not contain NaN or -inf"
    rows = []
    for bandwidth in (5e-324, 1e6):
        path = write_cfg(tmp_path, fast_text(scenario=2, density_kind="uniform", nx=8, ny=8,
                                             n_seeds=1, load_bits=0, bandwidth=bandwidth))
        out = tmp_path / f"out_{bandwidth}"
        done = run_timed(path, out, warnings)
        assert (done.returncode, done.stderr) == (0, "")
        rows.append(read_metrics(out))
    assert rows[0] == rows[1]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
def test_demand_beyond_a_float_exits_3(tmp_path, warnings):
    # N load = 1e9 * 1e300 overflows: cost *= B_i warned on overflow and the
    # divide gave inf / inf = nan, a RuntimeWarning traceback, or with
    # warnings shown an exit 2 with "costs must not contain NaN or -inf"
    path = write_cfg(tmp_path, fast_text(nx=8, ny=8, scenario=2, n_seeds=1, n_users=10**9,
                                         load_bits=1e300, bandwidth=1e308,
                                         noise_dbm_per_hz=-3000, power=1e300, beta=0))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_INFEASIBLE
    assert done.stderr == ("infeasible instance: 64 populated cells have no finite "
                           "transmission time, first at (62 m, 62 m)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
def test_zero_load_takes_no_time_at_a_zero_spectral_efficiency(tmp_path, warnings):
    # the report's load_bits / eff was 0 / 0 = nan on 52 own links with
    # eff = 0, where the solver's field gave 0 s: a RuntimeWarning
    # traceback, or with warnings shown an exit 3 naming 52 cells
    path = write_cfg(tmp_path, fast_text(width=1e6, height=1e6, nx=8, ny=8,
                                         density_kind="uniform", n_uavs=1, power=1e-13,
                                         sinr_threshold_db=-300, load_bits=0, beta=0,
                                         scenario=2, n_seeds=1))
    out = tmp_path / "out"
    done = run_timed(path, out, warnings)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    hover = {row["metric"]: float(row["value"]) for row in read_metrics(out)
             if row["metric"].startswith("s2_hover_")}
    # one UAV serves every user: control time alone, alpha N^2
    assert hover == dict.fromkeys(hover, 0.01 * 300**2) and len(hover) == 4


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
@pytest.mark.parametrize("scenario", [1, 2])
def test_n_seeds_beyond_a_list_exits_2(tmp_path, scenario, warnings):
    # [[]] * n_seeds raised a bare MemoryError, a traceback; CPython refuses
    # a list of 2**62 entries before it asks for any memory
    path = write_cfg(tmp_path, fast_text(nx=8, ny=8, scenario=scenario, n_seeds=2**62))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == f"config error: cannot list the rows of n_seeds = {2**62} seeds\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
@pytest.mark.parametrize("overrides, scale", [
    ({"bandwidth": 3.7e-300}, "1.785e+308"),
    ({"n_uavs": 1, "alpha": 8.5e307}, "1.700e+308"),
], ids=["cost_spread", "start_psi"])
def test_ascent_scale_past_2_to_1023_exits_2(tmp_path, overrides, scale, warnings):
    # the step search's start 2.0 ** int(frexp(first_step)[1]) raised
    # OverflowError once the costs' spread (first) or the start's |psi|
    # (second) reached 2**1023: a traceback in both warning modes
    path = write_cfg(tmp_path, fast_text(scenario=2, density_kind="uniform", nx=8, ny=8,
                                         n_users=1, n_seeds=1, **overrides))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == (f"config error: the ascent's scale {scale}, the costs' spread or "
                           "the start's largest |psi|, is not below 2**1023\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("warnings", ["error::RuntimeWarning", "default"])
def test_equal_split_that_overflows_exits_2(tmp_path, warnings):
    # N a_i t_slowest overflowed before the divide by B_i: a RuntimeWarning
    # traceback, or with warnings shown an exit 0 with both
    # s2_hover_*_eqbw = inf beside finite optimal-split totals
    path = write_cfg(tmp_path, fast_text(nx=8, ny=8, scenario=2, n_seeds=1, load_bits=1e305,
                                         bandwidth=1e10))
    done = run_timed(path, tmp_path / "out", warnings)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == ("config error: the hover time of UAV 4 under the optimal or the "
                           "equal bandwidth split is not a finite float\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("overrides, message", [
    ({"nx": 0}, "grid must be at least 1x1"),
    ({"width": 0}, "area dimensions must be positive with a finite, non-zero cell area"),
], ids=["empty_grid", "zero_width"])
def test_load_config_reads_a_grid_that_the_run_rejects(tmp_path, capsys, overrides, message):
    # the grid's rules are its own: the config read holds them to nothing,
    # and the run exits 2 with the grid's one line when it builds the grid
    path = write_cfg(tmp_path, fast_text(**overrides))
    key, value = next(iter(overrides.items()))
    assert getattr(load_config(path), key) == value
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("blocked", ["metrics.csv", "trace_s2_base.csv"])
def test_a_directory_at_a_target_name_moves_no_file(tmp_path, capsys, blocked):
    # the maps and the trace were moved in before os.replace met the
    # directory named metrics.csv, so the run exited 2 with the output
    # directory changed
    cfg = replace(ExperimentConfig(), experiment_id="blocked", scenario="2", nx=20, ny=20,
                  mass_tol=5e-3, n_seeds=1, write_partitions=True, trace=True)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (out / blocked / "kept.txt").write_bytes(b"kept")
    (out / "notes.txt").write_bytes(b"earlier")
    before = tree(out)
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: cannot write output: [Errno 21] "
                                       f"Is a directory: '{out / blocked}'\n")
    assert tree(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, "notes.txt"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_fairness_pool_below_the_normal_floats_exits_2_at_once(tmp_path):
    # alpha = 0 with a subnormal B . tau = 5e-310 made every serving time
    # NaN and the ascent never ended, leaving its stage behind; the run goes
    # in a process of its own, so a hang is stopped by the timeout
    path = write_cfg(tmp_path, fast_text(nx=6, ny=6, scenario=1, n_seeds=1, alpha=0.0,
                                         max_hover=1e-200, bandwidth=1e-110))
    out = tmp_path / "out"
    done = run_timed(path, out)
    assert done.returncode == EXIT_CONFIG
    assert done.stderr == ("config error: the fairness split's pool sum_i B_i T_i = 5e-310 "
                           "is not a normal float\n")
    assert float(done.stdout) < 1.0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]


@pytest.mark.parametrize("field", ["experiment_id", "out_dir"])
def test_text_that_utf8_cannot_encode_writes_nothing(tmp_path, capsys, field):
    # a lone surrogate raised UnicodeEncodeError: out of os.makedirs for
    # out_dir, and after a partial metrics.csv for experiment_id
    cfg = replace(ExperimentConfig(), nx=30, ny=30, mass_tol=5e-3, n_seeds=1, scenario="1",
                  out_dir=str(tmp_path / "out"))
    cfg = replace(cfg, **{field: getattr(cfg, field) + "a\ud800b"})
    assert run_experiment(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {field} must be text that UTF-8 can encode\n"
    assert list(tmp_path.iterdir()) == []


def test_validate_config_returns_the_named_points():
    base = replace(ExperimentConfig(), nx=20, ny=20)
    # nothing swept: one point, the config itself, whatever sweep_values holds
    for cfg in (base, replace(base, sweep_values=(3.0, 3.0))):
        ((tag, printed, point),) = validate_config(cfg)
        assert (tag, printed) == ("base", "") and point is cfg
    cfg = replace(base, sweep_var="sigma", sweep_values=(100000.0, 1000 / 3))
    points = validate_config(cfg)
    assert [(tag, printed) for tag, printed, _ in points] == [
        ("sigma_100000", "100000"), ("sigma_333.333333", "333.333333")]
    assert [point for _, _, point in points] == [apply_sweep(cfg, v) for v in cfg.sweep_values]
    swept = validate_config(replace(base, sweep_var="n_uavs", sweep_values=(2.0, 7.0)))
    assert [(tag, printed, point.n_uavs) for tag, printed, point in swept] == [
        ("n_uavs_2", "2", 2), ("n_uavs_7", "7", 7)]


def test_unknown_sweep_var_is_a_config_error():
    cfg = replace(ExperimentConfig(), nx=20, ny=20, sweep_var="gamma", sweep_values=(1.0,))
    with pytest.raises(ConfigError, match=r"^sweep_var must be one of \('none', 'beta', "):
        validate_config(cfg)


def test_finite_rule_reads_floats_tuples_and_per_uav_arrays():
    # a float field holds one finite number, the one manifest.ini writes: a
    # per-UAV array or list is the solvers' input, not a config's, and the
    # config itself is written, so a swept field's base value is held to it
    base = replace(ExperimentConfig(), nx=20, ny=20)
    swept = replace(base, sweep_var="alpha", sweep_values=(0.01, 0.02))
    for cfg, field, value in [(base, "alpha", np.full(5, 0.01)),
                              (base, "max_hover", [1800.0] * 5),
                              (swept, "alpha", np.full(5, 0.01)),
                              (base, "alpha", np.array([0.01, 0.01, np.nan, 0.01, 0.01])),
                              (base, "max_hover", [1800.0, np.inf, 1800.0, 1800.0, 1800.0]),
                              (base, "beta", np.float64("nan")),
                              (swept, "alpha", float("nan")),
                              (base, "mu_y", float("-inf")),
                              (base, "mu_x", "250")]:
        with pytest.raises(ConfigError, match=f"^{field} must be one finite number$"):
            validate_config(replace(cfg, **{field: value}))
    with pytest.raises(ConfigError, match="^sweep_values must be finite$"):
        validate_config(replace(base, sweep_values=(0.5, -np.inf)))
    # a NumPy float and an int are one number each
    validate_config(replace(base, beta=np.float64(0.5), mu_x=250))


@pytest.mark.parametrize(
    "overrides",
    [{"alpha": np.full(5, 0.01)}, {"max_hover": [1800.0] * 5},
     {"alpha": np.full(5, 0.01), "sweep_var": "alpha", "sweep_values": (0.01, 0.02)}],
    ids=["alpha", "max_hover", "swept_alpha"],
)
@pytest.mark.filterwarnings("error")
def test_per_uav_config_value_writes_nothing(tmp_path, capsys, overrides):
    # config_to_ini could not write these: the run raised TypeError after
    # metrics.csv, leaving an empty manifest.ini
    cfg = replace(ExperimentConfig(), nx=40, ny=40, n_seeds=1, scenario="2", **overrides)
    out = tmp_path / "out"
    field = next(iter(overrides))
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {field} must be one finite number\n"
    assert not out.exists()


def test_each_sweep_point_is_checked_once(monkeypatch):
    checked = []
    check = config_module._check_fields
    monkeypatch.setattr(config_module, "_check_fields", lambda cfg: checked.append(cfg) or check(cfg))
    base = replace(ExperimentConfig(), nx=20, ny=20)
    validate_config(base)
    assert checked == [base]
    checked.clear()
    cfg = replace(base, sweep_var="sigma", sweep_values=(100.0, 200.0, 300.0))
    points = validate_config(cfg)
    assert checked == [point for _, _, point in points] and len(checked) == 3


def test_swept_field_base_value_is_held_to_no_range(tmp_path, capsys):
    # no run reads the value a sweep replaces; the manifest writes it back
    cfg = replace(ExperimentConfig(), nx=20, ny=20, beta=1.5, sweep_var="beta",
                  sweep_values=(0.0, 0.5))
    assert [point.beta for _, _, point in validate_config(cfg)] == [0.0, 0.5]
    assert load_config(write_cfg(tmp_path, config_to_ini(cfg))) == cfg
    out = tmp_path / "out"
    ran = replace(cfg, n_seeds=1, mass_tol=0.01)
    assert run_experiment(ran, str(out)) == EXIT_OK
    assert load_config(str(out / "manifest.ini")) == ran
    unswept = tmp_path / "unswept"
    assert run_experiment(replace(cfg, sweep_var="none"), str(unswept)) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: beta must lie in [0, 1]\n"
    assert not unswept.exists()
    validate_config(replace(cfg, beta=0.5, sweep_var="sigma", sigma_x=-5.0, sweep_values=(100.0,)))


@pytest.mark.parametrize("field", ["experiment_id", "out_dir"])
@pytest.mark.parametrize("text", [" fair", "fair ", "\tfair", "fa\nir", "fa\rir", "fa\u2028ir", ""])
def test_text_that_manifest_ini_cannot_write_back_is_rejected(tmp_path, capsys, field, text):
    # configparser strips a value and splits it at line breaks, so a manifest
    # would read these back changed, or not at all
    cfg = replace(ExperimentConfig(), nx=20, ny=20, n_seeds=1, scenario="1", **{field: text})
    out = tmp_path / "out"
    if not text:  # the empty string reads back as written
        assert load_config(write_cfg(tmp_path, config_to_ini(cfg))) == cfg
        return
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {field} must be one line with no surrounding whitespace\n"
    assert not out.exists()
    inner = replace(cfg, **{field: "fa ir\t,x"})
    assert load_config(write_cfg(tmp_path, config_to_ini(inner))) == inner


@pytest.mark.parametrize(
    "field, value, message",
    [("nx", 20.0, "one whole number"), ("ny", 20.0, "one whole number"),
     ("n_seeds", 2.0, "one whole number"), ("n_uavs", 3.0, "one whole number"),
     ("n_users", True, "one whole number"), ("max_ascent_iter", 5.5, "one whole number"),
     ("trace", "yes", "True or False"), ("write_partitions", 1, "True or False")],
)
def test_int_and_bool_fields_of_another_type_write_nothing(tmp_path, capsys, field, value,
                                                           message):
    # a float int field raised TypeError after the output directory existed,
    # and the others wrote a manifest.ini that did not read back equal
    cfg = replace(ExperimentConfig(), **{"nx": 20, "ny": 20, "n_seeds": 1, "scenario": "1",
                                         field: value})
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {field} must be {message}\n"
    assert not out.exists()
    # the same value made the field's own kind is accepted and reads back equal
    kind = type(getattr(ExperimentConfig(), field))
    fixed = replace(cfg, **{field: kind(value)})
    assert load_config(write_cfg(tmp_path, config_to_ini(fixed))) == fixed


def test_out_dir_holding_a_nul_writes_nothing(tmp_path, capsys):
    # os.makedirs raised ValueError: embedded null byte, a traceback
    cfg = replace(ExperimentConfig(), nx=20, ny=20, n_seeds=1, scenario="1",
                  out_dir=str(tmp_path / "b\x00c"))
    assert run_experiment(cfg) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: out_dir must hold no NUL character\n"
    assert list(tmp_path.iterdir()) == []
    # an id is no path: one holding a NUL reads back from manifest.ini as written
    named = replace(cfg, out_dir="results", experiment_id="a\x00b")
    assert load_config(write_cfg(tmp_path, config_to_ini(named))) == named


def test_run_figures_goes_on_after_a_config_that_fails_to_load(tmp_path, capsys):
    # the script runs the INIs beside it; the bad one sorts first
    script = tmp_path / "run_figures.py"
    script.write_text((SCRIPTS / "run_figures.py").read_text())
    write_cfg(tmp_path, fast_text(mass_tol=0), name="a_bad.ini")
    write_cfg(tmp_path, fast_text(nx=20, ny=20, n_seeds=1, scenario=1), name="b_good.ini")
    spec = importlib.util.spec_from_file_location("run_figures_copy", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "out"
    assert module.main(["--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: mass tolerance must be positive\n"
    assert captured.out.startswith(f"a_bad -> {out / 'a_bad'}\nb_good -> {out / 'b_good'}\n")
    assert not (out / "a_bad").exists()
    assert {row["seed"] for row in read_metrics(out / "b_good")} == {"0"}


@st.composite
def configs(draw):
    """A config on a small grid with up to three of its float fields set to
    any finite float or one in [0, 1], any text as its id and output
    directory, and its other fields drawn from their ranges or just outside
    them; validate_config rejects some."""
    floats = {name: draw(st.one_of(st.floats(0.0, 1.0),
                                   st.floats(allow_nan=False, allow_infinity=False)))
              for name in draw(st.sets(st.sampled_from(FLOAT_FIELDS), max_size=3))}
    sweep_var = draw(st.sampled_from(["none", "beta", "sigma", "alpha", "n_uavs"]))
    sweep_values = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1 / 3, 400.0]),
                                 min_size=sweep_var != "none", max_size=3, unique=True))
    return replace(
        ExperimentConfig(), **floats, nx=draw(st.integers(1, 8)), ny=draw(st.integers(1, 8)),
        experiment_id=draw(st.one_of(st.sampled_from(PERCENT_IDS), st.text())),
        out_dir=draw(st.text()),
        density_kind=draw(st.sampled_from(["uniform", "gaussian"])),
        n_uavs=draw(st.integers(1, 6)), n_users=draw(st.integers(0, 10**6)),
        max_ascent_iter=draw(st.integers(1, 10**6)), n_seeds=draw(st.integers(1, 60)),
        scenario=draw(st.sampled_from(["1", "2", "both"])),
        sweep_var=sweep_var, sweep_values=tuple(sweep_values),
        write_partitions=draw(st.booleans()), trace=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(configs())
def test_every_accepted_config_is_what_its_manifest_reads_back(tmp_path_factory, cfg):
    try:
        validate_config(cfg)
    except ConfigError:
        return
    path = write_cfg(tmp_path_factory.mktemp("manifest"), config_to_ini(cfg))
    assert load_config(path) == cfg


@pytest.mark.parametrize(
    "overrides, message",
    [({"sigma_x": -5.0}, "sigma must be positive with a finite, non-zero square"),
     ({"mu_x": 1e200}, "hot spot density underflows on the grid"),
     ({"density_kind": "uniform", "nx": 0}, "grid must be at least 1x1")],
    ids=["sigma", "underflow", "empty_grid"],
)
def test_grid_rules_exit_2_and_write_nothing(tmp_path, capsys, overrides, message):
    # the run turns the grid's ValueError into a ConfigError, exit 2
    cfg = replace(ExperimentConfig(), **{"nx": 4, "ny": 4, **overrides})
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []
    # the grid itself raises the ValueError of its own rule
    with pytest.raises(ValueError) as info:
        build_grid(cfg)
    assert not isinstance(info.value, ConfigError)


def test_uniform_density_is_held_to_the_sigma_rule_only(tmp_path, capsys):
    # a uniform density reads neither the mean nor sigma: a mean whose hot
    # spot would underflow is accepted, a sigma out of range is not
    base = replace(ExperimentConfig(), density_kind="uniform", nx=20, ny=20)
    assert run_experiment(replace(base, mu_x=1e200, n_seeds=1), str(tmp_path / "ok")) == EXIT_OK
    with pytest.raises(ConfigError, match="sigma must be positive"):
        validate_config(replace(base, sigma_y=1e-200))
    out = tmp_path / "out"
    assert run_experiment(replace(base, density_kind="gaussian", mu_x=1e200), str(out)) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: hot spot density underflows on the grid\n"
    assert not out.exists()


def test_bad_sweep_point_rejected_by_run_experiment(tmp_path, capsys):
    cfg = replace(load_config(write_cfg(tmp_path, FAST_KEYS)),
                  sweep_var="n_uavs", sweep_values=(2.5,))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_CONFIG
    assert "whole numbers" in capsys.readouterr().err
    cfg = replace(cfg, sweep_values=(3.0, 0.0))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_CONFIG
    assert "at least one UAV" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["out_is_file", "out_under_file", "out_is_dangling_link",
                                     "metrics_is_dir"])
def test_cli_unwritable_output_returns_config_exit(tmp_path, capsys, monkeypatch, blocked):
    path = write_cfg(tmp_path, fast_text(scenario=1, n_seeds=1))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = {"out_is_file": blocker, "out_under_file": blocker / "out",
           "out_is_dangling_link": tmp_path / "link",
           "metrics_is_dir": tmp_path / "out"}[blocked]
    if blocked == "out_is_dangling_link":
        out.symlink_to(tmp_path / "nowhere")
    if blocked == "metrics_is_dir":
        (out / "metrics.csv").mkdir(parents=True)
    solve = runner_module.solve_scenario1
    calls = []
    monkeypatch.setattr(runner_module, "solve_scenario1",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert len(err.strip().splitlines()) == 1
    assert blocker.read_text() == "a file, not a directory\n"
    # an output path that cannot become a directory fails before any point
    # is solved; only a failed move comes after the sweep
    assert len(calls) == (1 if blocked == "metrics_is_dir" else 0)


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "fresh"])
def test_the_stage_shares_the_output_directory_s_file_system(tmp_path, monkeypatch, exists):
    # an existing output directory may be a mount point, or writable under a
    # parent that is not, so the stage goes inside it; a fresh one is made in
    # its parent, so the stage goes beside it
    out = tmp_path / "out"
    if exists:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    made_in = []
    make = tempfile.TemporaryDirectory

    def record(*args, dir=None, **kwargs):
        made_in.append(dir)
        return make(*args, dir=dir, **kwargs)

    monkeypatch.setattr(runner_module.tempfile, "TemporaryDirectory", record)
    cfg = replace(ExperimentConfig(), nx=20, ny=20, scenario="1", n_seeds=1, mass_tol=0.01)
    assert run_experiment(cfg, str(out)) == EXIT_OK
    assert made_in == [str(out) if exists else str(tmp_path)]
    names = ["manifest.ini", "metrics.csv"] + (["notes.txt"] if exists else [])
    assert sorted(p.name for p in out.iterdir()) == names
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_sweep_values_that_print_the_same_are_rejected(tmp_path, capsys):
    text = fast_text(scenario=2, sweep_var="beta", sweep_values="0.5 0.5000000000001")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "print the same" in err
    assert not out.exists()
    cfg = replace(ExperimentConfig(), sweep_var="beta", sweep_values=(0.5, 0.5))
    with pytest.raises(ConfigError, match="print the same"):
        validate_config(cfg)
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    assert not out.exists()
    # distinct to 9 digits is enough, and unused values are not checked
    validate_config(replace(cfg, sweep_values=(0.5, 0.500000001)))
    validate_config(replace(cfg, sweep_var="none"))


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": -1},
        {"n_users": 0},
        {"scenario": "2", "load_bits": -1.0},
        {"n_seeds": 0},
        # [[]] * n_seeds raised OverflowError: cannot fit 'int' into an
        # index-sized integer
        {"n_seeds": 10**20},
    ],
    ids=["alpha", "n_users", "load_bits", "n_seeds", "n_seeds_beyond_sys_maxsize"],
)
def test_run_experiment_validates_unswept_config(tmp_path, capsys, overrides):
    cfg = replace(load_config(write_cfg(tmp_path, FAST_KEYS)), **overrides)
    out = tmp_path / "out"
    assert run_experiment(cfg, str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": "inf"},
        {"scenario": 2, "load_bits": "inf"},
        {"mass_tol": "inf"},
        {"mu_los_db": "nan"},
        {"noise_dbm_per_hz": "nan"},
        {"sinr_threshold_db": "nan"},
        {"altitude": "inf"},
        {"power": "inf"},
        {"carrier_hz": "inf"},
        {"bandwidth": "inf"},
        {"max_hover": "inf"},
        {"mu_nlos_db": "inf"},
        {"sweep_var": "alpha", "sweep_values": "0.01 inf"},
    ],
    ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items() if k != "scenario"),
)
def test_cli_non_finite_returns_config_exit(tmp_path, capsys, overrides):
    path = write_cfg(tmp_path, fast_text(nx=40, ny=40, **overrides))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "finite" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_cli_bad_overrides(tmp_path):
    path = write_cfg(tmp_path, FAST_KEYS)
    assert main(["run", path, "--seeds", "0"]) == EXIT_CONFIG
    assert main(["run", path, "--grid", "0x5"]) == EXIT_CONFIG
    with pytest.raises(SystemExit):
        main(["run", path, "--grid", "banana"])
    with pytest.raises(SystemExit):
        main(["nope"])
