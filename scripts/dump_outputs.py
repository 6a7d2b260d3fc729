"""Write every output file of a fixed set of runs, for byte-for-byte diffs.

The set is every scene of the three perfbench workloads at workload seeds 0
and 1, every experiment config in scripts/ at 60 x 60 with 3 user seeds,
and one scenario-2 sweep of the default scene at 40 x 40 over large control
weights, three scenes whose ascent ends at a kink, one fairness sweep whose
experiment id needs CSV quoting, one sigma sweep whose second hot spot
underflows on the grid, one hot spot whose peak is subnormal on the grid,
one lone UAV whose noise underflows to 0 in each scenario, one run that
asks for more users than an array holds, one scenario-1 run of 2100 users
per seed, one scenario-1 fleet whose shares no partition meets, one fleet
whose received power overflows in each scenario, one whose noise
overflows, one scenario-2 load whose own-link seconds overflow, one scenario-1 baseline whose per-user service overflows,
one scenario-2 run with no load whose bandwidth underflows and one with no
load on links of spectral efficiency 0 (both exit 0), one scenario-2
demand that overflows, one run asking for more seeds than a list holds, two
scenario-2 ascents whose scale reaches 2**1023 and one scenario-2 equal
split whose hover time overflows, 96 runs, all with partition maps and
ascent traces on.  A run that exits non-zero leaves no output directory:
the scenario-1 kink scene (exit 4), the two hot spots, the two noise
underflows, the users beyond an array, the three radio-field overflows, the
service overflow, the seeds beyond a list, the two ascent scales and the
equal split (exit 2), and the unmet shares, the load overflow and the demand
overflow (exit 3) show in exit_codes.txt only.
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
random ascents are drawn by this script, so checkouts compare on one draw.
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
QUOTED_SEEDS = 4
ASCENT_SEEDS = 300
ASCENT_UAVS = 5


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
    # at a kink: scenario 2 on two coarse grids exits 0 off target after 469
    # and 612 iterations, scenario 1 exits 4 on a hot spot of whole cells
    coarse = dict(scenario="2", n_uavs=6, beta=0.0, n_seeds=1)
    runs += [
        ("kink_s2_22x22", ExperimentConfig(experiment_id="kink_s2_22x22", nx=22, ny=22,
                                           sigma_x=100.0, sigma_y=100.0, alpha=52.9, **coarse)),
        ("kink_s2_10x10", ExperimentConfig(experiment_id="kink_s2_10x10", nx=10, ny=10,
                                           sigma_x=60.0, sigma_y=60.0, alpha=73.1, **coarse)),
        ("kink_s1_exit4", ExperimentConfig(
            experiment_id="kink_s1_exit4", scenario="1", nx=100, ny=100, n_seeds=1,
            mu_x=166.6667, mu_y=250.0, sigma_x=60.0, sigma_y=60.0, alpha=0.3)),
    ]
    # the id holds a comma and a double quote, so every metrics.csv row of
    # the batched seeds must quote it as csv.writer does
    fair = load_config(os.path.join(scripts, "fairness_vs_concentration.ini"))
    runs.append(("quoted_id", replace(fair, experiment_id='fair,"quoted" id', nx=CONFIG_GRID,
                                      ny=CONFIG_GRID, n_seeds=QUOTED_SEEDS)))
    # the second point underflows; no map of the first may be written
    runs.append(("second_point_underflow", ExperimentConfig(
        experiment_id="second_point_underflow", scenario="1", nx=20, ny=20, n_seeds=1,
        mu_x=20000.0, sweep_var="sigma", sweep_values=(100000.0, 100.0))))
    # a subnormal kernel peak, whose density would not integrate to 1
    runs.append(("subnormal_hot_spot", ExperimentConfig(
        experiment_id="subnormal_hot_spot", scenario="1", nx=30, ny=30, n_seeds=1,
        mu_x=4816.0, mu_y=500.0, sigma_x=100.0, sigma_y=100.0)))
    # N0 B = 1e-20 * 1e-320 is 0 and nothing interferes: an infinite SINR
    for scenario in ("1", "2"):
        runs.append((f"noise_underflow_s{scenario}", ExperimentConfig(
            experiment_id=f"noise_underflow_s{scenario}", scenario=scenario, nx=6, ny=4,
            n_seeds=1, n_uavs=1, bandwidth=1e-320, density_kind="uniform")))
    # sample_users cannot shape 10**100 draws
    runs.append(("users_beyond_an_array", ExperimentConfig(
        experiment_id="users_beyond_an_array", scenario="1", nx=6, ny=6, n_seeds=1,
        density_kind="uniform", n_users=10**100, alpha=1e-300, mass_tol=1.0)))
    # 2100 users per seed, more than any other run draws
    runs.append(("users_past_two_blocks", ExperimentConfig(
        experiment_id="users_past_two_blocks", scenario="1", nx=CONFIG_GRID, ny=CONFIG_GRID,
        n_seeds=CONFIG_SEEDS, n_users=2100)))
    # UAVs 3 to 6 reach only empty cells, so their shares cannot be met
    runs.append(("unmet_shares", ExperimentConfig(
        experiment_id="unmet_shares", scenario="1", n_uavs=7, bandwidth=1000.0,
        sinr_threshold_db=1e-30, sigma_y=7.0, nx=3, ny=6, n_users=20, n_seeds=1)))
    # u.power / loss and N0 B overflow a float in the radio field
    for scenario in ("1", "2"):
        runs.append((f"power_overflow_s{scenario}", ExperimentConfig(
            experiment_id=f"power_overflow_s{scenario}", scenario=scenario, nx=8, ny=8,
            n_seeds=1, power=1e300, carrier_hz=1e-3)))
    runs.append(("noise_overflow", ExperimentConfig(
        experiment_id="noise_overflow", nx=8, ny=8, n_seeds=1, noise_dbm_per_hz=3000.0,
        bandwidth=1e300)))
    # load_bits / eff overflows on the own links of 12 populated cells
    runs.append(("load_overflow_s2", ExperimentConfig(
        experiment_id="load_overflow_s2", scenario="2", nx=8, ny=8, n_seeds=1, n_users=1,
        load_bits=1.7e308)))
    # the Voronoi baseline's per-user scale B_i T_i / (N a_i) overflows
    runs.append(("service_overflow_s1", ExperimentConfig(
        experiment_id="service_overflow_s1", scenario="1", nx=9, ny=9, n_uavs=2, n_users=5,
        n_seeds=1, sigma_x=30.0, sigma_y=100.0, mu_x=1170.0, mu_y=-130.0, bandwidth=5e4,
        max_hover=1e226, mass_tol=1.0)))
    # no load where B_i eff_ic underflows to 0: 0 s on every usable link
    runs.append(("zero_load_s2", ExperimentConfig(
        experiment_id="zero_load_s2", scenario="2", density_kind="uniform", nx=8, ny=8,
        n_seeds=1, load_bits=0.0, bandwidth=5e-324)))
    # the demand N load = 1e9 * 1e300 overflows: no finite time at any rate
    runs.append(("demand_overflow_s2", ExperimentConfig(
        experiment_id="demand_overflow_s2", scenario="2", nx=8, ny=8, n_seeds=1,
        n_users=10**9, load_bits=1e300, bandwidth=1e308, noise_dbm_per_hz=-3000.0,
        power=1e300, beta=0.0)))
    # no load on 52 own links whose spectral efficiency is 0: 0 s there too
    runs.append(("zero_load_zero_rate_s2", ExperimentConfig(
        experiment_id="zero_load_zero_rate_s2", scenario="2", width=1e6, height=1e6,
        nx=8, ny=8, density_kind="uniform", n_uavs=1, power=1e-13, sinr_threshold_db=-300.0,
        load_bits=0.0, beta=0.0, n_seeds=1)))
    # CPython refuses a list of 2**62 per-seed rows before it asks for memory
    runs.append(("seeds_beyond_a_list", ExperimentConfig(
        experiment_id="seeds_beyond_a_list", nx=8, ny=8, n_seeds=2**62)))
    # the ascent's scale, the costs' spread or the start's |psi|, reaches
    # 2**1023, past the step search's power-of-two start
    for rel, extra in (("ascent_scale_spread_s2", dict(bandwidth=3.7e-300)),
                       ("ascent_scale_psi_s2", dict(n_uavs=1, alpha=8.5e307))):
        runs.append((rel, ExperimentConfig(
            experiment_id=rel, scenario="2", density_kind="uniform", nx=8, ny=8, n_users=1,
            n_seeds=1, **extra)))
    # N a_i t_slowest overflows before the equal split divides by B_i
    runs.append(("equal_split_overflow_s2", ExperimentConfig(
        experiment_id="equal_split_overflow_s2", scenario="2", nx=8, ny=8, n_seeds=1,
        load_bits=1e305, bandwidth=1e10)))
    codes = []
    for rel, cfg in runs:
        cfg = replace(cfg, write_partitions=True, trace=True)
        code = run_experiment(cfg, out_dir=os.path.join(args.out, rel))
        codes.append(f"{rel} {code}\n")
    with open(os.path.join(args.out, "exit_codes.txt"), "w") as fh:
        fh.writelines(codes)
    with open(os.path.join(args.out, "ascents.txt"), "w") as fh:
        fh.writelines(ascent_lines())
    print(f"{len(runs)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
