"""Spans and counters recorded from outside the library.

Each public function is wrapped where its caller looks it up (for example
`uavpart.scenario2.assign_by_min_cost`, not `uavpart.partition`'s own
name), so the library itself is not modified.  Spans are kept in memory and
folded into per-layer metrics when a scene ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

import numpy as np

# Counters that must repeat exactly between two runs of the same scenes.
EXACT_COUNTERS = (
    "scenario1.iterations",
    "scenario1.dual_evals",
    "scenario2.rounds",
    "scenario2.reassigned_cells",
    "scenario2.last_round_flips",
    "partition.assign_calls",
    "scenario2.hover_report_calls",
    "metrics.users_sampled",
    "runner.bytes_written",
    "channel.radio_bytes",
)

# Inclusive time per span name, reported as <name>_s.
TIMED_SPANS = (
    "config.load",
    "grid.build",
    "channel.radio",
    "scenario1.solve",
    "scenario1.fairness",
    "scenario1.dual_eval",
    "scenario1.eval",
    "scenario2.solve",
    "scenario2.marginal_cost",
    "scenario2.hover_report",
    "scenario2.eqbw",
    "partition.assign",
    "partition.voronoi",
    "partition.csv",
    "metrics.sample",
    "metrics.jain",
)

# Counters that are the number of spans of one name.
CALL_COUNTS = {
    "scenario1.dual_evals": "scenario1.dual_eval",
    "scenario2.rounds": "scenario2.marginal_cost",
    "partition.assign_calls": "partition.assign",
    "scenario2.hover_report_calls": "scenario2.hover_report",
}

RUN_SPAN = "runner.run_experiment"


def layer_metrics(tracers):
    """Per-layer metrics summed over the spans and counters of `tracers`.

    A span's self time is its duration minus the time its child spans
    cover; only the run_experiment span is reported that way.
    """
    busy = Counter()
    calls = Counter()
    counts = Counter()
    run_self = 0.0
    for tracer in tracers:
        counts.update(tracer.counts)
        child_time = Counter()
        for _, start, end, parent in tracer.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, _) in enumerate(tracer.spans):
            busy[name] += end - start
            calls[name] += 1
            if name == RUN_SPAN:
                run_self += end - start - child_time[k]
    out = {f"{name}_s": busy[name] for name in TIMED_SPANS}
    for counter in EXACT_COUNTERS:
        out[counter] = calls[CALL_COUNTS[counter]] if counter in CALL_COUNTS else counts[counter]
    out["runner.self_s"] = run_self
    iterations = out["scenario1.iterations"]
    out["scenario1.evals_per_iteration"] = (
        out["scenario1.dual_evals"] / iterations if iterations else 0.0
    )
    return out


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._s2_assignment = None
        self._s2_flips = 0

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    # hooks that turn a wrapped call's result into counters

    def _radio(self, radio):
        self.counts["channel.radio_bytes"] += sum(
            arr.nbytes for arr in (radio.power, radio.sinr, radio.spectral_eff,
                                   radio.feasible_by_uav, radio.feasible, radio.bandwidths)
        )

    def _scenario1(self, result):
        self.counts["scenario1.iterations"] += len(result.potentials.f_trace) - 1

    def _s2_start(self, part):
        self._s2_assignment = part.assignment
        self._s2_flips = 0

    def _s2_assign(self, part):
        self._s2_flips = int(np.count_nonzero(part.assignment != self._s2_assignment))
        self.counts["scenario2.reassigned_cells"] += self._s2_flips
        self._s2_assignment = part.assignment

    def _scenario2(self, result):
        self.counts["scenario2.last_round_flips"] += self._s2_flips

    def _users(self, sample):
        self.counts["metrics.users_sampled"] += sample.n_users

    def probes(self):
        """(module, attribute, span name, result hook) for every wrapped call."""
        return (
            ("uavpart.runner", "build_grid", "grid.build", None),
            ("uavpart.runner", "compute_radio_field", "channel.radio", self._radio),
            ("uavpart.runner", "solve_scenario1", "scenario1.solve", self._scenario1),
            ("uavpart.scenario1", "solve_fairness_system", "scenario1.fairness", None),
            ("uavpart.scenario1", "dual_value", "scenario1.dual_eval", None),
            ("uavpart.scenario1", "assign_by_min_cost", "partition.assign", None),
            ("uavpart.runner", "service_field_for_partition", "scenario1.eval", None),
            ("uavpart.runner", "total_data_service", "scenario1.eval", None),
            ("uavpart.runner", "solve_scenario2", "scenario2.solve", self._scenario2),
            ("uavpart.scenario2", "weighted_voronoi", "partition.voronoi", self._s2_start),
            ("uavpart.scenario2", "marginal_hover_cost", "scenario2.marginal_cost", None),
            ("uavpart.scenario2", "assign_by_min_cost", "partition.assign", self._s2_assign),
            ("uavpart.scenario2", "region_hover_report", "scenario2.hover_report", None),
            ("uavpart.runner", "weighted_voronoi", "partition.voronoi", None),
            ("uavpart.partition", "assign_by_min_cost", "partition.assign", None),
            ("uavpart.runner", "region_hover_report", "scenario2.eqbw", None),
            ("uavpart.runner", "hover_time_equal_split", "scenario2.eqbw", None),
            ("uavpart.runner", "partition_to_csv", "partition.csv", None),
            ("uavpart.runner", "sample_users", "metrics.sample", self._users),
            ("uavpart.runner", "service_per_user", "metrics.jain", None),
            ("uavpart.runner", "jain_index", "metrics.jain", None),
        )

    def wrap(self, fn, name, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every probed function for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, hook in self.probes():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
