"""uavpart benchmark: time experiment scenes end to end, or trace their layers.

Run from the repository root:

    python3 perfbench/run.py --workload fair-sweep --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
run.  Earlier lines carry the environment and a summary.  See
perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import scenes as scene_defs
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(ROOT, "scripts")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")
SETUP_REPEATS = 6  # fresh interpreters at each of three points of a timed run
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scene_defs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=scene_defs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seconds must be positive")
    return args


def declared_units(trace):
    """{metric: unit} for the metrics BENCHMARK.json declares for this mode."""
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_library():
    """Import uavpart from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "uavpart", "__init__.py")):
        raise RuntimeError(f"no uavpart sources under {SRC}")
    for stem in {c for w in scene_defs.WORKLOADS.values() for c in w["configs"]}:
        if not os.path.isfile(os.path.join(SCRIPTS, f"{stem}.ini")):
            raise RuntimeError(f"missing experiment config scripts/{stem}.ini")
    sys.path.insert(0, SRC)
    import uavpart
    import uavpart.config
    import uavpart.runner

    if os.path.dirname(os.path.abspath(uavpart.__file__)) != os.path.join(SRC, "uavpart"):
        raise RuntimeError(f"uavpart imported from {uavpart.__file__}, not {SRC}")
    return uavpart


# environment


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "uavpart"))):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SRC, "uavpart", name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library NumPy loaded."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args, samples):
    import numpy as np

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": l3.strip() if l3 else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "trace": args.trace,
        "samples": samples,
    }


# measurement


def setup_samples(args):
    """Set-up seconds of SETUP_REPEATS fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, SETUP_PROBE, "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_scene(run_experiment, scene, out_dir, tracer):
    """Run one scene; returns (seconds, exit code, metrics.csv bytes or None,
    bytes written)."""
    os.makedirs(out_dir)
    start = time.perf_counter()
    try:
        if tracer is None:
            code = run_experiment(scene.cfg, out_dir=out_dir)
        else:
            with tracer.installed(), tracer.span(tracing.RUN_SPAN):
                code = run_experiment(scene.cfg, out_dir=out_dir)
    except Exception:  # a scene that raises counts as failed; the run goes on
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    data = None
    metrics_path = os.path.join(out_dir, "metrics.csv")
    if os.path.isfile(metrics_path):
        with open(metrics_path, "rb") as fh:
            data = fh.read()
    written = sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())
    shutil.rmtree(out_dir)
    return seconds, code, data, written


class Passes:
    """Runs passes over a workload's scenes and applies the correctness gate.

    The first pass is the warm-up: it is gated and gives each scene's
    reference metrics.csv and plan quality, but its times are not kept.  On
    a 2-CPU Xeon VM a process's first 10 s or so of solving run about 15%
    slower than later ones, so every run would otherwise carry that bias.
    """

    def __init__(self, uavpart, scenes, out_root):
        self.run_experiment = uavpart.runner.run_experiment
        self.scenes = scenes
        self.out_root = out_root
        self.reference = [None] * len(scenes)
        self.ratios, self.jains, self.hovers = [], [], []  # from scenes.plan_quality
        self.attempted = 0
        self.failures = []
        self.count = 0
        self.walls = []
        self.scene_seconds = []

    def run(self, tracers=None):
        """One pass over every scene; with `tracers` (one per scene) the
        pass is traced.  Returns the pass wall time."""
        wall = 0.0
        scene_seconds = []
        for k, scene in enumerate(self.scenes):
            tracer = None if tracers is None else tracers[k]
            out_dir = os.path.join(self.out_root, f"scene{k:02d}")
            seconds, code, data, written = run_scene(self.run_experiment, scene, out_dir, tracer)
            if tracer is not None:
                tracer.counts["runner.bytes_written"] += written
            wall += seconds
            scene_seconds.append(seconds)
            self.attempted += 1
            reasons = scene_defs.scene_failures(scene, code, data, self.reference[k])
            if reasons:
                self.failures.append({"pass": self.count, "scene": scene.name,
                                      "reasons": reasons})
                continue
            if self.reference[k] is None:
                self.reference[k] = data
                ratio, jain, hover = scene_defs.plan_quality(scene, data)
                self.ratios.append(ratio)
                if jain is not None:
                    self.jains.append(jain)
                if hover is not None:
                    self.hovers.append(hover)
        if self.count:
            self.walls.append(wall)
            self.scene_seconds.extend(scene_seconds)
        self.count += 1
        return wall


def percentile_beyond_ten(values):
    """(p, value): the highest whole percentile with at least ten samples
    above it, by nearest rank; None when there are too few samples."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n else 0
    if p <= 0:
        return None
    ordered = sorted(values)
    return p, ordered[max(math.ceil(p * n / 100), 1) - 1]


def timed_run(args, passes):
    """The warm-up pass, then timed passes until the time is up, with set-up
    samples before, between and after.  setup_s is the least of the set-up
    samples: noise on a cold start only adds time, and samples at three
    points of the run are less likely all to fall in one slow spell of the
    host."""
    setups = setup_samples(args)
    passes.run()
    setups += setup_samples(args)
    start = time.perf_counter()
    while not passes.walls or time.perf_counter() - start < args.seconds:
        passes.run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += setup_samples(args)
    metrics = {
        "wall_s": statistics.median(passes.walls),
        "scene_s_p50": statistics.median(passes.scene_seconds),
        "setup_s": min(setups),
        "peak_rss_mb": peak_rss_mb,
        "plan_ratio": statistics.fmean(passes.ratios) if passes.ratios else math.nan,
    }
    tail = percentile_beyond_ten(passes.scene_seconds)
    summary = {
        "error_rate": len(passes.failures) / passes.attempted,
        "scene_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "s1_jain_mean": statistics.fmean(passes.jains) if passes.jains else None,
        "s2_hover_ratio": statistics.fmean(passes.hovers) if passes.hovers else None,
        "pass_walls_s": passes.walls,
        "setup_samples_s": setups,
    }
    samples = {"wall_s": len(passes.walls), "scene_s_p50": len(passes.scene_seconds),
               "setup_s": len(setups), "peak_rss_mb": 1,
               "plan_ratio": len(passes.ratios)}
    return metrics, summary, samples, []


def traced_run(args, uavpart, passes):
    """After the warm-up, alternate traced and untraced passes, traced first,
    until the time is up and there are at least two traced passes and one
    untraced one."""
    traced, untraced, per_scene = [], [], None
    load_config = uavpart.config.load_config
    passes.run()
    start = time.perf_counter()
    while (len(traced) < 2 or not untraced
           or time.perf_counter() - start < args.seconds):
        if len(traced) <= len(untraced):
            config_tracer = tracing.Tracer()
            # the configs are loaded again under the tracer; the scenes
            # they give are the ones already built from the same seed
            scene_defs.build_scenes(args.workload, args.seed,
                                    config_tracer.wrap(load_config, "config.load"), SCRIPTS)
            tracers = [tracing.Tracer() for _ in passes.scenes]
            wall = passes.run(tracers)
            totals = tracing.layer_metrics(tracers + [config_tracer])
            totals["trace.wall_s"] = wall
            traced.append(totals)
            if per_scene is None:
                per_scene = [dict(scene=scene.name, **tracing.layer_metrics([t]))
                             for scene, t in zip(passes.scenes, tracers)]
        else:
            untraced.append(passes.run())
    mismatched = sorted(
        name for name in tracing.EXACT_COUNTERS
        if len({totals[name] for totals in traced}) != 1
    )
    # counters repeat exactly (checked above), so their median is the count
    metrics = {name: statistics.median(totals[name] for totals in traced)
               for name in traced[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    summary = {
        "error_rate": len(passes.failures) / passes.attempted,
        "counters_not_repeating": mismatched,
        "untraced_wall_s": untraced,
        "traced_wall_s": [totals["trace.wall_s"] for totals in traced],
        "scenes": per_scene,
    }
    samples = {"traced_passes": len(traced), "untraced_passes": len(untraced)}
    problems = [f"counter {name} differs between traced passes" for name in mismatched]
    return metrics, summary, samples, problems


def main(argv=None):
    args = parse_args(argv)
    try:
        units = declared_units(args.trace)
        uavpart = import_library()
    except (OSError, ValueError, KeyError, RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    scene_list = scene_defs.build_scenes(
        args.workload, args.seed, uavpart.config.load_config, SCRIPTS)
    out_root = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        passes = Passes(uavpart, scene_list, out_root)
        if args.trace:
            metrics, summary, samples, problems = traced_run(args, uavpart, passes)
        else:
            metrics, summary, samples, problems = timed_run(args, passes)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    problems += [f"metric {name} is not declared in BENCHMARK.json"
                 for name in sorted(set(metrics) - set(units))]
    summary["failures"] = passes.failures
    summary["problems"] = problems
    print(json.dumps({"env": environment(args, samples)}))
    print(json.dumps({"summary": summary}))
    values = {name: metrics.get(name, math.nan) for name in units}
    correct = not passes.failures and not problems and all(
        math.isfinite(value) for value in values.values())
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
