"""Allocation bounds of the two (n_uavs, n_cells) kernels, read with tracemalloc:
the radio field holds little beyond its outputs, and the dual ascent works in
n_cells-length arrays."""

import tracemalloc
from dataclasses import replace

import numpy as np

from uavpart.channel import compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.partition import ascend_dual
from uavpart.scenario1 import build_cost_field, solve_fairness_system

CFG = replace(ExperimentConfig(), nx=120, ny=100, n_uavs=8)
GRID, UAVS, PARAMS = build_grid(CFG), build_uavs(CFG), build_channel(CFG)
N = GRID.n_cells
SLACK = 64 * 1024  # small arrays and interpreter objects


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
    _ = GRID.cell_x, GRID.cell_y  # cached on the grid, not the field's own
    radio, peak = traced_peak(lambda: compute_radio_field(GRID, UAVS, PARAMS))
    outputs = sum(getattr(radio, name).nbytes for name in (
        "power", "sinr", "spectral_eff", "feasible_by_uav", "feasible", "bandwidths"))
    assert radio.n_uavs == 8
    assert peak <= outputs + 4 * N * 8 + SLACK


def test_radio_fields_are_layers_of_one_allocation():
    radio = compute_radio_field(GRID, UAVS, PARAMS)
    fields = (radio.power, radio.sinr, radio.spectral_eff)
    block = radio.power.base
    assert all(f.base is block for f in fields)
    assert block.nbytes == sum(f.nbytes for f in fields)
    assert all(np.shares_memory(f, block) for f in fields)
    for f, g in ((radio.power, radio.sinr), (radio.sinr, radio.spectral_eff)):
        assert not np.shares_memory(f, g)
    assert not any(f.flags.writeable for f in fields)


def test_ascent_allocates_less_than_one_cost_array():
    radio = compute_radio_field(GRID, UAVS, PARAMS)
    fairness = solve_fairness_system(radio.bandwidths, CFG.max_hover, CFG.alpha, CFG.n_users)
    costs = build_cost_field(radio, fairness)
    shares = fairness.target_masses
    _ = GRID.cell_mass
    potentials, peak = traced_peak(lambda: ascend_dual(
        GRID, costs, np.zeros(8), term=lambda psi: psi @ shares,
        target=lambda psi, masses: shares, mass_tol=CFG.mass_tol,
        max_iter=CFG.max_ascent_iter))
    assert potentials.grad_trace[-1] <= CFG.mass_tol
    assert costs.shape == (8, N)
    assert peak < costs.nbytes
