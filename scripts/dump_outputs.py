"""Write every output file of a fixed set of runs, for byte-for-byte diffs.

The set is every scene of the three perfbench workloads at workload seeds 0
and 1, every experiment config in scripts/ at 60 x 60 with 3 user seeds, and
one scenario-2 sweep of the default scene at 40 x 40 over large control
weights, all with partition maps and ascent traces on.  Dump the old and the
new checkout and compare the trees:

    python3 scripts/dump_outputs.py /tmp/before --root path/to/old/checkout
    python3 scripts/dump_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

An empty diff means every metrics.csv, manifest.ini, partition CSV and trace
CSV, and every exit code, is byte-identical.  --root names the checkout
whose src/, scripts/ and perfbench/scenes.py are used (default: the one
holding this script); nothing in it is modified.
"""

import argparse
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 1)
CONFIG_GRID = 60
CONFIG_SEEDS = 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory; must not exist yet")
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout to run (default: this script's)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import scenes as scene_defs
    from uavpart.config import ExperimentConfig, load_config
    from uavpart.runner import run_experiment

    os.makedirs(args.out)
    scripts = os.path.join(root, "scripts")
    runs = []
    for workload in sorted(scene_defs.WORKLOADS):
        for seed in SEEDS:
            for k, scene in enumerate(
                    scene_defs.build_scenes(workload, seed, load_config, scripts)):
                name = f"{k:02d}_" + scene.name.replace("/", "__")
                runs.append((os.path.join(workload, f"seed{seed}", name), scene.cfg))
    for ini in sorted(f for f in os.listdir(scripts) if f.endswith(".ini")):
        cfg = load_config(os.path.join(scripts, ini))
        runs.append((os.path.join("configs", ini[:-4]),
                     replace(cfg, nx=CONFIG_GRID, ny=CONFIG_GRID, n_seeds=CONFIG_SEEDS)))
    runs.append(("large_alpha", ExperimentConfig(
        experiment_id="large_alpha", scenario="2", nx=40, ny=40, n_seeds=1,
        sweep_var="alpha", sweep_values=(0.5, 300.0, 10000.0))))
    codes = []
    for rel, cfg in runs:
        cfg = replace(cfg, write_partitions=True, trace=True)
        code = run_experiment(cfg, out_dir=os.path.join(args.out, rel))
        codes.append(f"{rel} {code}\n")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    print(f"{len(runs)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
