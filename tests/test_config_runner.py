"""Config parsing, fleet placement, the experiment runner and the CLI."""

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavpart.cli import main
from uavpart.config import (
    ExperimentConfig,
    apply_sweep,
    config_to_ini,
    load_config,
    place_uavs_grid,
    validate_config,
)
from uavpart.errors import ConfigError
from uavpart.runner import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    run_experiment,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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


def test_linear_unit_aliases(tmp_path):
    path = write_cfg(
        tmp_path,
        """
[experiment]
mu_los = 1.9952623149688795
mu_nlos = 199.52623149688787
sinr_threshold = 0.01
noise_w_per_hz = 1e-20
""",
    )
    cfg = load_config(path)
    assert cfg.mu_los_db == pytest.approx(3.0, rel=1e-12)
    assert cfg.mu_nlos_db == pytest.approx(23.0, rel=1e-12)
    assert cfg.sinr_threshold_db == pytest.approx(-20.0, rel=1e-12)
    assert cfg.noise_dbm_per_hz == pytest.approx(-170.0, rel=1e-12)


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
    base = ExperimentConfig()
    assert apply_sweep(base, 123.0) is base


def test_validate_catches_bad_combinations():
    with pytest.raises(ConfigError):
        validate_config(replace(ExperimentConfig(), beta=1.5))
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


def test_retired_rounds_key_still_reruns(tmp_path):
    # manifests written before the averaged-occupancy solver was retired
    # carry `rounds = 200`; the key is read and ignored
    cfg = load_config(write_cfg(tmp_path, FAST_KEYS))
    old = config_to_ini(cfg).replace("[experiment]\n", "[experiment]\nrounds = 200\n")
    path = write_cfg(tmp_path, old, name="manifest.ini")
    assert load_config(path) == cfg
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_experiment(load_config(path), str(out_a)) == EXIT_OK
    assert run_experiment(load_config(path), str(out_b)) == EXIT_OK
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


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
    ],
    ids=["n_uavs", "beta", "bandwidth", "b1", "mu_los_db", "altitude_overflow",
         "carrier_overflow", "carrier_underflow", "width_overflow", "height_overflow",
         "sigma_overflow", "sigma_underflow", "density_underflow", "mean_overflow",
         "mu_los_db_overflow", "noise_overflow", "sinr_threshold_overflow",
         "cell_area_underflow"],
)
@pytest.mark.filterwarnings("error")
def test_cli_bad_scene_returns_config_exit(tmp_path, capsys, overrides):
    path = write_cfg(tmp_path, fast_text(**overrides))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert len(err.strip().splitlines()) == 1
    if "mu_x" in overrides:
        # an underflowing hot spot is only found when the grid is built,
        # after run_experiment has created the output directory
        assert "underflows" in err
        assert not (out / "metrics.csv").exists()
    else:
        assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_load_is_infeasible(tmp_path, capsys):
    # every cell's transmission time overflows to inf: no cell can be served
    path = write_cfg(tmp_path, fast_text(scenario=2, load_bits=1e308))
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible instance: ")
    assert "finite transmission time" in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "metrics.csv").exists()


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
    assert not (out / "metrics.csv").exists()


@pytest.mark.filterwarnings("error")
def test_cli_huge_alpha_fails_cleanly(tmp_path, capsys):
    # the control-time prices reach 1e305: the dual term must not overflow
    path = write_cfg(tmp_path, fast_text(scenario=2, nx=20, ny=20, alpha=1e300))
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code in (EXIT_OK, EXIT_CONVERGENCE)
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == (code == EXIT_CONVERGENCE)


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


@pytest.mark.filterwarnings("error")
def test_cli_jain_of_an_unserved_sample_is_nan(tmp_path):
    # a tight hot spot overloads one best-signal region, whose serving time
    # is floored at 0; at seed 2 every sampled user sits in it
    path = write_cfg(tmp_path, "[experiment]\nscenario = 1\nmu_x = 166.6667\nmu_y = 250\n"
                               "sigma_x = 60\nsigma_y = 60\nalpha = 0.3\n")
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out), "--seeds", "3"]) == EXIT_OK
    jain = {(row["seed"], row["metric"]): row["value"]
            for row in read_metrics(out) if row["metric"].startswith("s1_jain_")}
    assert len(jain) == 6
    assert jain["2", "s1_jain_voronoi"] == "nan"
    for key, value in jain.items():
        if key != ("2", "s1_jain_voronoi"):
            assert 0.0 < float(value) <= 1.0


def test_bad_sweep_point_rejected_by_run_experiment(tmp_path, capsys):
    cfg = replace(load_config(write_cfg(tmp_path, FAST_KEYS)),
                  sweep_var="n_uavs", sweep_values=(2.5,))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_CONFIG
    assert "whole numbers" in capsys.readouterr().err
    cfg = replace(cfg, sweep_values=(3.0, 0.0))
    assert run_experiment(cfg, str(tmp_path / "out")) == EXIT_CONFIG
    assert "at least one UAV" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["out_is_file", "out_under_file", "metrics_is_dir"])
def test_cli_unwritable_output_returns_config_exit(tmp_path, capsys, blocked):
    path = write_cfg(tmp_path, fast_text(scenario=1, n_seeds=1))
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = {"out_is_file": blocker, "out_under_file": blocker / "out",
           "metrics_is_dir": tmp_path / "out"}[blocked]
    if blocked == "metrics_is_dir":
        (out / "metrics.csv").mkdir(parents=True)
    assert main(["run", path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert len(err.strip().splitlines()) == 1
    assert blocker.read_text() == "a file, not a directory\n"


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
    ],
    ids=["alpha", "n_users", "load_bits", "n_seeds"],
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
        {"mu_los": "inf"},
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
