"""Command line entry point: uavpart run <config> [options]."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .config import SCENARIOS, load_config
from .errors import ConfigError
from .runner import EXIT_CONFIG, run_experiment


def _parse_grid(text):
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NXxNY, got {text!r}") from None


def build_parser():
    """The parser of uavpart run; each flag but --grid stores to the config
    field it sets, and --grid to the pair (nx, ny)."""
    parser = argparse.ArgumentParser(
        prog="uavpart",
        description="Partition a UAV-served area and reproduce the experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("config", help="path to a key = value config file")
    run.add_argument("--out", dest="out_dir", metavar="OUT",
                     help="output directory (default from the config)")
    run.add_argument("--seeds", dest="n_seeds", type=int, metavar="SEEDS",
                     help="number of sampling seeds")
    run.add_argument("--grid", type=_parse_grid, metavar="NXxNY",
                     help="grid resolution override")
    run.add_argument("--scenario", choices=SCENARIOS, help="which scenario to run")
    run.add_argument("--trace", action="store_const", const=True,
                     help="dump per-iteration solver traces")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.grid is not None:
        args.nx, args.ny = args.grid
    # a flag left out is None and keeps the config's value
    flags = vars(args)
    overrides = {f.name: flags[f.name] for f in fields(cfg) if flags.get(f.name) is not None}
    # run_experiment validates the overridden config before writing anything
    return run_experiment(replace(cfg, **overrides))


if __name__ == "__main__":
    sys.exit(main())
