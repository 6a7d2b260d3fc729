"""Run every experiment config in this directory and print headline numbers.

Each <name>.ini becomes <out>/<name>/ with metrics.csv, manifest.ini and any
requested partition or trace dumps.  Usage:

    python3 scripts/run_figures.py [--out results] [--only hover]
"""

import argparse
import csv
import os
import sys
from collections import defaultdict

import numpy as np

from uavpart.config import load_config
from uavpart.errors import ConfigError
from uavpart.runner import EXIT_CONFIG, EXIT_OK, run_experiment

HEADLINE = (
    "s1_service_total_proposed",
    "s1_service_total_voronoi",
    "s1_jain_proposed",
    "s1_jain_voronoi",
    "s2_hover_proposed_optbw",
    "s2_hover_proposed_eqbw",
    "s2_hover_voronoi_optbw",
    "s2_hover_voronoi_eqbw",
)


def summarize(metrics_path):
    groups = defaultdict(list)
    with open(metrics_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["metric"] in HEADLINE:
                groups[(row["sweep_value"], row["metric"])].append(float(row["value"]))
    lines = []
    for (sweep_value, metric), values in groups.items():
        label = sweep_value if sweep_value else "base"
        mean = float(np.mean(values))
        note = f"  (mean of {len(values)} seeds)" if len(set(values)) > 1 else ""
        lines.append(f"    {label:>10}  {metric:<28} {mean:.6g}{note}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--only", default="", help="run only configs whose name contains this")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    configs = sorted(
        name for name in os.listdir(here)
        if name.endswith(".ini") and args.only in name
    )
    if not configs:
        print(f"no configs matching {args.only!r} in {here}", file=sys.stderr)
        return 2

    worst = EXIT_OK
    for name in configs:
        stem = name[:-4]
        out_dir = os.path.join(args.out, stem)
        print(f"{stem} -> {out_dir}")
        try:
            cfg = load_config(os.path.join(here, name))
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            worst = max(worst, EXIT_CONFIG)
            continue
        code = run_experiment(cfg, out_dir=out_dir)
        if code != EXIT_OK:
            print(f"    exit code {code}", file=sys.stderr)
            worst = max(worst, code)
            continue
        for line in summarize(os.path.join(out_dir, "metrics.csv")):
            print(line)
    return worst


if __name__ == "__main__":
    sys.exit(main())
