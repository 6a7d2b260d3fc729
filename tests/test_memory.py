"""Allocation bounds of the two (n_uavs, n_cells) kernels and of a whole run,
read with tracemalloc: the radio field keeps one float (n_uavs, n_cells)
array and holds little beyond it and its scratch, the dual ascent works in
three float64 and six one-byte n_cells-length arrays, and a run of both
scenarios stays under four float (n_uavs, n_cells) arrays.  A process that
runs scene after scene reuses its heap: the second pass faults no memory
in."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from uavpart import channel
from uavpart.channel import _link_layers, compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.partition import ascend_dual
from uavpart.runner import EXIT_OK, run_experiment
from uavpart.scenario1 import build_cost_field, solve_fairness_system, solve_scenario1
from uavpart.scenario2 import solve_scenario2

CFG = replace(ExperimentConfig(), nx=120, ny=100, n_uavs=8)
GRID, UAVS, PARAMS = build_grid(CFG), build_uavs(CFG), build_channel(CFG)
N = GRID.n_cells
SLACK = 64 * 1024  # small arrays and interpreter objects
SRC = Path(__file__).resolve().parent.parent / "src"
# the default scene in each scenario, twice, in one process; prints the minor
# page faults of the second pass
TWO_PASSES = """
import resource, sys
from dataclasses import replace
from uavpart.config import ExperimentConfig
from uavpart.runner import EXIT_OK, run_experiment

for rep in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for scenario in ("1", "2", "both"):
        cfg = replace(ExperimentConfig(), scenario=scenario, n_seeds=3)
        assert run_experiment(cfg, out_dir=f"{sys.argv[1]}/{rep}_{scenario}") == EXIT_OK
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def traced_peak(fn):
    """fn's result and the peak of traced memory above the start of the call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_radio_field_peaks_near_its_outputs():
    _ = GRID.column_x, GRID.row_y  # cached on the grid, not the field's own
    radio, peak = traced_peak(lambda: compute_radio_field(GRID, UAVS, PARAMS))
    outputs = sum(getattr(radio, name).nbytes for name in (
        "spectral_eff", "feasible_by_uav", "feasible", "bandwidths"))
    assert radio.n_uavs == 8
    # the outputs, the power and SINR scratch block and the summed power;
    # the path loss is worked in rows the field already holds
    assert peak <= outputs + 2 * radio.spectral_eff.nbytes + N * 8 + SLACK


def test_spectral_eff_is_the_fields_only_float_layer():
    radio = compute_radio_field(GRID, UAVS, PARAMS)
    layers = [name for name, value in vars(radio).items()
              if isinstance(value, np.ndarray) and value.dtype == float
              and value.shape == (8, N)]
    assert layers == ["spectral_eff"]
    assert radio.spectral_eff.base is None  # keeps no larger block alive
    assert not radio.spectral_eff.flags.writeable


def test_power_and_sinr_read_after_a_solve_are_the_fields_own_layers(monkeypatch):
    built = []

    def recording(*args, **kwargs):
        links = _link_layers(*args, **kwargs)
        built.append(links.copy())
        return links

    with monkeypatch.context() as patched:
        patched.setattr(channel, "_link_layers", recording)
        radio = compute_radio_field(GRID, UAVS, PARAMS)
    assert len(built) == 1 and "_links" not in vars(radio)
    solve_scenario1(GRID, radio, CFG.max_hover, CFG.alpha, CFG.n_users, mass_tol=CFG.mass_tol)
    solve_scenario2(GRID, radio, CFG.load_bits, CFG.alpha, CFG.n_users, mass_tol=CFG.mass_tol)
    power, sinr = built[0]
    for got, want in ((radio.power, power), (radio.sinr, sinr)):
        assert got.dtype == want.dtype and got.shape == want.shape == (8, N)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert radio.power is radio.power and radio.sinr is radio.sinr  # computed once


def test_run_allocates_under_four_float_layers(tmp_path):
    # both scenarios with maps and traces: the radio field's scratch peak is
    # about three (n_uavs, n_cells) float layers, and every later stage
    # works beside the one the field keeps; a field that kept its power
    # and SINR layers through the solves peaked above five
    cfg = replace(CFG, scenario="both", n_seeds=3, write_partitions=True, trace=True)
    assert run_experiment(cfg, out_dir=str(tmp_path / "warm")) == EXIT_OK
    code, peak = traced_peak(lambda: run_experiment(cfg, out_dir=str(tmp_path / "run")))
    assert code == EXIT_OK
    assert peak <= 4 * 8 * N * 8


def test_ascent_allocates_less_than_one_cost_array():
    radio = compute_radio_field(GRID, UAVS, PARAMS)
    fairness = solve_fairness_system(radio.bandwidths, CFG.max_hover, CFG.alpha, CFG.n_users)
    costs = build_cost_field(radio, fairness)
    shares = fairness.target_masses
    _ = GRID.cell_mass
    potentials, peak = traced_peak(lambda: ascend_dual(
        GRID, costs, np.zeros(8), shares, np.full(8, np.inf), CFG.mass_tol,
        CFG.max_ascent_iter))
    assert potentials.grad_trace[-1] <= CFG.mass_tol
    assert len(potentials.f_trace) > 2  # Newton steps, each with its band Hessians
    assert costs.shape == (8, N)
    # the minimum, a trial minimum and a row; the claim's codes, the last
    # codes, its free, claimed and lower masks, and the runner-up UAVs
    assert peak <= 3 * N * 8 + 6 * N + SLACK


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap and ru_minflt")
def test_second_pass_of_scenes_faults_no_memory_in(tmp_path):
    # the radio field's scratch block keeps glibc from trimming the heap
    # between scenes (see compute_radio_field); a field built row by row
    # without it took thousands of minor faults on the second pass
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", TWO_PASSES,
                           str(tmp_path)], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 64
