"""Time one cold set-up of a workload in this fresh interpreter.

Imports uavpart from the checkout's src/, loads the workload's experiment
configs and builds the first scene's grid, UAVs and channel parameters, then
prints the seconds that took.  perfbench/run.py starts it several times and
reports the least as setup_s.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import uavpart  # noqa: F401
    from uavpart.config import build_channel, build_grid, build_uavs, load_config

    from scenes import build_scenes

    first = build_scenes(args.workload, args.seed, load_config, os.path.join(ROOT, "scripts"))[0]
    build_grid(first.cfg)
    build_uavs(first.cfg)
    build_channel(first.cfg)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
