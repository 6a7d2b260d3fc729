"""Write every output file of a fixed set of runs, for byte-for-byte diffs.

The runs are the ones dump_runs lists: every scene of the perfbench
workloads at workload seeds 0 and 1 and every experiment config in scripts/
at 60 x 60 with 3 user seeds, each expected to exit 0, then the rows of
SPECIAL_RUNS, each with its expected exit code and the reason it is here.
Every run writes its partition maps and ascent traces; one that exits
non-zero leaves no output directory and shows in exit_codes.txt only.  The
script writes every run, then exits 1 and names on stderr each run whose
exit code differs from the one expected.
ascents.txt adds the kernel's own iterates: one line per random ascent of
seeds 0-299 (random_ascent, with 1 to 5 UAVs and mixed both ways, mass_tol
1e-6 and max_iter 1000) giving the seed, the UAV count, mixed, the iteration
and evaluation counts, the last mismatch and a sha256 over psi, the three
traces, the assignment and the gap.  Dump the old and the new checkout and
compare the trees:

    python3 scripts/dump_outputs.py /tmp/before --root path/to/old/checkout
    python3 scripts/dump_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after

An empty diff means every metrics.csv, manifest.ini, partition CSV and trace
CSV, every exit code and every random ascent is byte-identical.  --root
names the checkout whose src/, scripts/ and perfbench/scenes.py are used
(default: the one holding this script); nothing in it is modified.  The
runs, their expected exit codes and the random ascents are this script's,
so checkouts compare on one set.
"""

import argparse
import hashlib
import os
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 1)
CONFIG_GRID = 60
CONFIG_SEEDS = 3
ASCENT_SEEDS = 300
ASCENT_UAVS = 5

# the fields most rows share: a small grid and one user seed
SMALL = dict(nx=8, ny=8, n_seeds=1)
# scenario 2 with six UAVs and no interference, on grids coarse enough for a kink
COARSE = dict(scenario="2", n_uavs=6, beta=0.0, n_seeds=1)
# the ascent's scale, the costs' spread or the start's |psi|, reaches 2**1023
ASCENT_SCALE = dict(SMALL, scenario="2", density_kind="uniform", n_users=1)

# Each row is one run: its name (also its experiment_id, unless the row sets
# one), its expected exit code, why it is here, and the fields it sets on
# ExperimentConfig().
SPECIAL_RUNS = (
    ("large_alpha", 0, "scenario 2 at control weights where the ascent takes longest",
     dict(scenario="2", nx=40, ny=40, n_seeds=1, sweep_var="alpha",
          sweep_values=(0.5, 300.0, 10000.0))),
    ("kink_s2_22x22", 0, "scenario 2 ends at a kink, off target, after 469 iterations",
     dict(COARSE, nx=22, ny=22, sigma_x=100.0, sigma_y=100.0, alpha=52.9)),
    ("kink_s2_10x10", 0, "scenario 2 ends at a kink, off target, after 612 iterations",
     dict(COARSE, nx=10, ny=10, sigma_x=60.0, sigma_y=60.0, alpha=73.1)),
    ("kink_s1_exit4", 4, "scenario 1 ends at a kink off its shares on a hot spot of whole cells",
     dict(scenario="1", nx=100, ny=100, n_seeds=1, mu_x=166.6667, mu_y=250.0, sigma_x=60.0,
          sigma_y=60.0, alpha=0.3)),
    ("quoted_id", 0, "every metrics.csv row of 4 batched seeds quotes the id as csv.writer does",
     dict(experiment_id='fair,"quoted" id', scenario="1", nx=CONFIG_GRID, ny=CONFIG_GRID,
          n_seeds=4, sweep_var="sigma",
          sweep_values=(200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0))),
    ("second_point_underflow", 2, "the second hot spot underflows; no map of the first is kept",
     dict(scenario="1", nx=20, ny=20, n_seeds=1, mu_x=20000.0, sweep_var="sigma",
          sweep_values=(100000.0, 100.0))),
    ("subnormal_hot_spot", 2, "a subnormal kernel peak, whose density would not integrate to 1",
     dict(scenario="1", nx=30, ny=30, n_seeds=1, mu_x=4816.0, mu_y=500.0, sigma_x=100.0,
          sigma_y=100.0)),
    ("noise_underflow_s1", 2, "N0 B underflows to 0 and nothing interferes: an infinite SINR",
     dict(scenario="1", nx=6, ny=4, n_seeds=1, n_uavs=1, bandwidth=1e-320,
          density_kind="uniform")),
    ("noise_underflow_s2", 2, "N0 B underflows to 0 and nothing interferes: an infinite SINR",
     dict(scenario="2", nx=6, ny=4, n_seeds=1, n_uavs=1, bandwidth=1e-320,
          density_kind="uniform")),
    ("users_beyond_an_array", 2, "sample_users cannot shape 10**100 draws",
     dict(scenario="1", nx=6, ny=6, n_seeds=1, density_kind="uniform", n_users=10**100,
          alpha=1e-300, mass_tol=1.0)),
    ("users_past_two_blocks", 0, "2100 users per seed, more than any other run draws",
     dict(scenario="1", nx=CONFIG_GRID, ny=CONFIG_GRID, n_seeds=CONFIG_SEEDS, n_users=2100)),
    ("unmet_shares", 3, "UAVs 3 to 6 reach only empty cells, so their shares cannot be met",
     dict(scenario="1", n_uavs=7, bandwidth=1000.0, sinr_threshold_db=1e-30, sigma_y=7.0,
          nx=3, ny=6, n_users=20, n_seeds=1)),
    ("power_overflow_s1", 2, "the received power overflows a float in the radio field",
     dict(SMALL, scenario="1", power=1e300, carrier_hz=1e-3)),
    ("power_overflow_s2", 2, "the received power overflows a float in the radio field",
     dict(SMALL, scenario="2", power=1e300, carrier_hz=1e-3)),
    ("noise_overflow", 2, "the noise N0 B overflows a float in the radio field",
     dict(SMALL, noise_dbm_per_hz=3000.0, bandwidth=1e300)),
    ("load_overflow_s2", 3, "load_bits / eff overflows on the own links of 12 populated cells",
     dict(SMALL, scenario="2", n_users=1, load_bits=1.7e308)),
    ("service_overflow_s1", 2, "the Voronoi baseline's per-user scale B_i T_i / (N a_i) overflows",
     dict(scenario="1", nx=9, ny=9, n_uavs=2, n_users=5, n_seeds=1, sigma_x=30.0, sigma_y=100.0,
          mu_x=1170.0, mu_y=-130.0, bandwidth=5e4, max_hover=1e226, mass_tol=1.0)),
    ("zero_load_s2", 0, "no load where B_i eff_ic underflows to 0: 0 s on every usable link",
     dict(SMALL, scenario="2", density_kind="uniform", load_bits=0.0, bandwidth=5e-324)),
    ("demand_overflow_s2", 3, "N load = 1e9 * 1e300 overflows: no finite time at any rate",
     dict(SMALL, scenario="2", n_users=10**9, load_bits=1e300, bandwidth=1e308,
          noise_dbm_per_hz=-3000.0, power=1e300, beta=0.0)),
    ("zero_load_zero_rate_s2", 0, "no load on 52 own links of spectral efficiency 0: 0 s there too",
     dict(SMALL, scenario="2", width=1e6, height=1e6, density_kind="uniform", n_uavs=1,
          power=1e-13, sinr_threshold_db=-300.0, load_bits=0.0, beta=0.0)),
    ("seeds_beyond_a_list", 2, "CPython refuses 2**62 per-seed rows before it asks for memory",
     dict(SMALL, n_seeds=2**62)),
    ("ascent_scale_spread_s2", 2, "the costs' spread reaches 2**1023, past the step search's start",
     dict(ASCENT_SCALE, bandwidth=3.7e-300)),
    ("ascent_scale_psi_s2", 2, "the start's |psi| reaches 2**1023, past the step search's start",
     dict(ASCENT_SCALE, n_uavs=1, alpha=8.5e307)),
    ("equal_split_overflow_s2", 2, "N a_i t_slowest overflows before the equal split divides by B",
     dict(SMALL, scenario="2", load_bits=1e305, bandwidth=1e10)),
)


def random_ascent(seed, n_uavs, mixed):
    """The grid and the costs, start, shares and curvatures of a random
    integer-cost ascent on a 10 x 6 uniform grid.  Costs are 0-3 with +inf on
    30% of the links and on every link of a quarter of the cells, k is 1-4,
    the start -2 to 2 and the shares zero; mixed sets some k_i to +inf and
    some to 0 (with psi_i = 0), and takes the shares from the partition at
    random potentials, where every UAV's share is a mass it can reach."""
    from uavpart.grid import uniform_density
    from uavpart.partition import assign_by_min_cost

    grid = uniform_density(1000.0, 1000.0, 10, 6)
    rng = np.random.default_rng(seed)
    costs = rng.integers(0, 4, size=(n_uavs, grid.n_cells)).astype(float)
    costs[rng.random(costs.shape) < 0.3] = np.inf
    costs[:, rng.random(grid.n_cells) < 0.25] = np.inf
    k = rng.integers(1, 5, size=n_uavs).astype(float)
    start = rng.integers(-2, 3, size=n_uavs).astype(float)
    shares = np.zeros(n_uavs)
    if mixed:
        kind = rng.integers(0, 3, size=n_uavs)
        k[kind == 0], start[kind == 0], k[kind == 1] = 0.0, 0.0, np.inf
        star = rng.uniform(-2.0, 2.0, size=n_uavs)
        shares = assign_by_min_cost(grid, costs - star[:, None]).masses
    return grid, costs, start, shares, k


def ascent_lines():
    """One line per random ascent: seed, UAVs, mixed, iterations, evaluations,
    last mismatch and the sha256 of psi, the traces, the assignment and gap."""
    from uavpart.partition import ascend_dual

    for seed in range(ASCENT_SEEDS):
        for n_uavs in range(1, ASCENT_UAVS + 1):
            for mixed in (False, True):
                ascent = ascend_dual(*random_ascent(seed, n_uavs, mixed), 1e-6, 1000)
                digest = hashlib.sha256()
                for field in (ascent.psi, ascent.f_trace, ascent.grad_trace, ascent.step_trace,
                              ascent.partition.assignment, np.float64(ascent.gap)):
                    digest.update(field.tobytes())
                yield (f"{seed} {n_uavs} {int(mixed)} {len(ascent.f_trace) - 1} {ascent.evals} "
                       f"{float(ascent.grad_trace[-1])!r} {digest.hexdigest()}\n")


def dump_runs(root):
    """Every run of the dump in order, as (name, expected exit code, config):
    the perfbench scenes and the scripts/ configs of the checkout at root,
    each expected to exit 0, then SPECIAL_RUNS.  Puts root's src/ and
    perfbench/ first on sys.path, so the configs are that checkout's."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import scenes as scene_defs
    from uavpart.config import ExperimentConfig, load_config

    scripts = os.path.join(root, "scripts")
    runs = []
    for workload in sorted(scene_defs.WORKLOADS):
        for seed in SEEDS:
            for k, scene in enumerate(
                    scene_defs.build_scenes(workload, seed, load_config, scripts)):
                name = f"{k:02d}_" + scene.name.replace("/", "__")
                runs.append((os.path.join(workload, f"seed{seed}", name), 0, scene.cfg))
    for ini in sorted(f for f in os.listdir(scripts) if f.endswith(".ini")):
        cfg = load_config(os.path.join(scripts, ini))
        runs.append((os.path.join("configs", ini[:-4]), 0,
                     replace(cfg, nx=CONFIG_GRID, ny=CONFIG_GRID, n_seeds=CONFIG_SEEDS)))
    for name, code, _, fields in SPECIAL_RUNS:
        runs.append((name, code, ExperimentConfig(**{"experiment_id": name, **fields})))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="output directory; must not exist yet")
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout to run (default: this script's)")
    args = parser.parse_args(argv)
    runs = dump_runs(os.path.abspath(args.root))
    from uavpart.runner import run_experiment

    os.makedirs(args.out)
    codes, wrong = [], []
    for name, expected, cfg in runs:
        cfg = replace(cfg, write_partitions=True, trace=True)
        code = run_experiment(cfg, out_dir=os.path.join(args.out, name))
        codes.append(f"{name} {code}\n")
        if code != expected:
            wrong.append(f"{name}: exit code {code}, expected {expected}")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    with open(os.path.join(args.out, "ascents.txt"), "w") as fh:
        fh.writelines(ascent_lines())
    print(f"{len(runs)} runs written to {args.out}")
    for line in wrong:
        print(line, file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
