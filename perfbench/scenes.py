"""Benchmark workloads, the scenes they are made of, and the per-scene
correctness gate.

A scene is one sweep point of one committed experiment config, run as its
own `run_experiment` call.  The workload seed moves the demand hot spot of
every scene; the solvers draw no random numbers, so the seed is the only
source of input variation.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
from dataclasses import dataclass, replace

# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "fair-sweep": {
        "configs": ("fairness_vs_concentration", "service_vs_interference"),
        "overrides": {"write_partitions": False, "trace": False},
    },
    "hover-sweep": {
        "configs": ("hover_vs_bandwidth", "hover_vs_control_weight",
                    "hover_vs_fleet_size", "hover_vs_interference"),
        "overrides": {"write_partitions": False, "trace": False},
    },
    "maps-fine": {
        "configs": ("partition_maps",),
        "overrides": {"nx": 400, "ny": 400, "write_partitions": True, "trace": True},
    },
}

# Seed 0 keeps the hot spot of the committed configs (250 m, 330 m).  Any
# other seed draws each scene's centre uniformly from a disc of this radius
# around it.  That moves the scenario-1 dual evaluations of a fair-sweep pass
# by about 5% (quartile spread over ten seeds), so the seed changes the
# solvers' work while a pass stays comparable from seed to seed.  Discs of
# 50 m and 100 m give about 9%, and the whole area about 40%.
DEFAULT_SEED = 0
HOTSPOT_RADIUS_M = 25.0


@dataclass(frozen=True)
class Scene:
    name: str
    cfg: object


def build_scenes(workload, seed, load_config, scripts_dir):
    """The workload's scenes, each a single-point config with its hot spot
    drawn from the seed."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    scenes = []
    for stem in spec["configs"]:
        cfg = load_config(f"{scripts_dir}/{stem}.ini")
        points = cfg.sweep_values if cfg.sweep_var != "none" else (None,)
        for value in points:
            radius = HOTSPOT_RADIUS_M * math.sqrt(rng.random())
            angle = 2.0 * math.pi * rng.random()
            mu_x, mu_y = cfg.mu_x, cfg.mu_y
            if seed != DEFAULT_SEED:
                mu_x += radius * math.cos(angle)
                mu_y += radius * math.sin(angle)
            scene_cfg = replace(cfg, mu_x=mu_x, mu_y=mu_y, **spec["overrides"])
            name = stem
            if value is not None:
                scene_cfg = replace(scene_cfg, sweep_values=(value,))
                name = f"{stem}/{cfg.sweep_var}={value:g}"
            scenes.append(Scene(name, scene_cfg))
    return scenes


def read_metrics(data):
    """metrics.csv bytes as {metric: [value per user seed]}."""
    rows = {}
    for row in csv.DictReader(io.StringIO(data.decode())):
        rows.setdefault(row["metric"], []).append(float(row["value"]))
    return rows


def scene_failures(scene, code, data, reference):
    """Reasons the scene's outputs fail the gate; empty when it passes.

    `data` is this pass's metrics.csv and `reference` the first pass's, or
    None on the first pass.  s2_stabilized is deliberately not gated.
    """
    if code != 0:
        return [f"exit code {code}"]
    if data is None:
        return ["no metrics.csv"]
    reasons = []
    if reference is not None and data != reference:
        reasons.append("metrics.csv differs from the first pass")
    rows = read_metrics(data)
    if scene.cfg.scenario in ("1", "both"):
        residual = rows.get("s1_mass_residual", [math.inf])[0]
        if not residual <= scene.cfg.mass_tol:
            reasons.append(f"s1_mass_residual {residual:.3g} > mass_tol {scene.cfg.mass_tol:g}")
    if scene.cfg.scenario in ("2", "both"):
        proposed = rows.get("s2_hover_proposed_optbw", [math.inf])[0]
        voronoi = rows.get("s2_hover_voronoi_optbw", [-math.inf])[0]
        if not proposed <= voronoi:
            reasons.append(f"s2 proposed hover {proposed:.6g} s > voronoi {voronoi:.6g} s")
    return reasons


def plan_quality(scene, data):
    """Plan-quality figures of one passing scene.

    Returns (ratio, jain_mean, hover_ratio); the last two are None when
    their scenario does not run.  The ratio is the proposed plan's cost over
    the best-signal baseline's, so lower is better.  Where scenario 2 runs it
    is the total hover time, an exact figure.  Otherwise it is 1 / mean Jain
    index over the user seeds, an estimate from sampled users: a scene that
    runs both scenarios draws a single user sample, so its Jain ratio is
    mostly sampling noise and only its hover ratio is used.
    """
    rows = read_metrics(data)
    jain = hover = None
    if scene.cfg.scenario in ("1", "both"):
        jain = statistics.fmean(rows["s1_jain_proposed"])
        ratio = statistics.fmean(rows["s1_jain_voronoi"]) / jain
    if scene.cfg.scenario in ("2", "both"):
        hover = ratio = rows["s2_hover_proposed_optbw"][0] / rows["s2_hover_voronoi_optbw"][0]
    return ratio, jain, hover
