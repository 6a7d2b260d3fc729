"""The benchmark tracer in perfbench/tracing.py wraps library functions by
module attribute and reads fields of their results.  These tests load it as
it is and check that every probe still resolves and every hook still accepts
what the library returns, so `perfbench/run.py --trace 1` keeps working."""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from uavpart.channel import compute_radio_field
from uavpart.config import ExperimentConfig, build_channel, build_grid, build_uavs
from uavpart.metrics import sample_users
from uavpart.runner import EXIT_OK, run_experiment
from uavpart.scenario1 import solve_scenario1

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

TINY = replace(
    ExperimentConfig(), experiment_id="tiny", nx=20, ny=20, n_uavs=3,
    mass_tol=5e-3, n_seeds=2,
)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves(tracing):
    for module_name, attr, _, _ in tracing.Tracer().probes():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_hooks_accept_real_results(tracing):
    grid, uavs = build_grid(TINY), build_uavs(TINY)
    radio = compute_radio_field(grid, uavs, build_channel(TINY))
    result = solve_scenario1(grid, radio, TINY.max_hover, TINY.alpha, TINY.n_users,
                             mass_tol=TINY.mass_tol)
    tracer = tracing.Tracer()
    tracer._radio(radio)
    tracer._scenario1(result)
    tracer._users(sample_users(grid, TINY.n_users, [0]))
    assert tracer.counts["channel.radio_bytes"] > 0
    assert tracer.counts["scenario1.iterations"] == len(result.potentials.f_trace) - 1
    assert tracer.counts["metrics.users_sampled"] == TINY.n_users


def test_traced_run_counts_and_restores(tracing, tmp_path):
    tracer = tracing.Tracer()
    originals = [
        getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.probes()
    ]
    with tracer.installed(), tracer.span(tracing.RUN_SPAN):
        assert run_experiment(TINY, out_dir=str(tmp_path / "out")) == EXIT_OK
    metrics = tracing.layer_metrics([tracer])
    assert metrics["metrics.users_sampled"] == TINY.n_users * TINY.n_seeds
    assert metrics["partition.assign_calls"] > 0
    assert metrics["scenario2.hover_report_calls"] > 0
    assert metrics["channel.radio_bytes"] > 0
    restored = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracer.probes()]
    assert restored == originals
