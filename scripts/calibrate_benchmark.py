#!/usr/bin/env python3
"""Sweep benchmark generator/solver settings and report the method ordering.

For each candidate setting this trains ERM / plain worst-group / hierarchical
across seeds on the synthetic spurious benchmark with the minority group
rotated at test time, then prints mean worst-group accuracy on the shifted
test set with the margins of interest (hierarchical minus worst-group, and
worst-group minus ERM). The data, the shift and the solver settings are
those of configs/benchmark.json, and each cell is trained as `hierdro run`
trains it; the grid below sweeps the generator settings and the radius scale
around them. Run it after changing the generator or solver if the benchmark
margins need re-validating.
"""

import argparse
import dataclasses
import itertools
import math
import os
import sys
import time

import numpy as np

from hierdro import cli
from hierdro.errors import DivergenceError
from hierdro.evaluation import evaluate
from hierdro.solver import ERM, GROUP_DRO, HIERARCHICAL, MODES

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.json")


def bench(config, s, sd, flip, rot, eps_scale, iterations, seeds):
    """The config's dataset with the given generator settings and rotation of
    its shift, trained with its solver settings for ``iterations`` steps:
    every mode x seed cell trained as ``hierdro run`` trains it."""
    shift = dataclasses.replace(config.dataset.shifts[0], magnitude=rot)
    dataset = dataclasses.replace(config.dataset, spurious_strength=s, noise_sd=sd,
                                  label_flip_p=flip, shifts=(shift,))
    solver = dataclasses.replace(config.solver, iterations=iterations,
                                 checkpoint_every=max(1, iterations // 10))
    config = dataclasses.replace(config, dataset=dataset, solver=solver, modes=MODES,
                                 seeds=tuple(seeds))
    data = cli._generate_datasets(config)
    train_ds = data["train"]
    eps = eps_scale * math.sqrt(int(train_ds.n_g.min()))
    cells, results = cli.train_cells(config, train_ds, data["val"], eps)
    for result in results:
        if isinstance(result, DivergenceError):
            raise result
    rows = {}
    for mode in MODES:
        done = [r for (m, _, _), r in zip(cells, results) if m == mode]
        orig_accs = [evaluate(r.best, data["test"], train_ds.alpha).worst_group_acc for r in done]
        shift_accs = [evaluate(r.best, data["test_shifted"], train_ds.alpha).worst_group_acc
                      for r in done]
        rows[mode] = (np.mean(orig_accs), np.mean(shift_accs), np.std(shift_accs))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=80_000)
    parser.add_argument("--quick", action="store_true",
                        help="one setting, short horizon")
    args = parser.parse_args()
    seeds = list(range(args.seeds))
    config = cli.load_config(CONFIG)

    iterations = args.iterations
    ds = config.dataset
    grid = {
        "s": [ds.spurious_strength],
        "sd": [ds.noise_sd],
        "flip": [ds.label_flip_p],
        "rot": [ds.shifts[0].magnitude],
        "eps_scale": [48 / 255, 96 / 255],
    }
    if args.quick:
        grid["eps_scale"] = [96 / 255]
        iterations = min(iterations, 20_000)

    print(f"{'s':>5} {'sd':>5} {'flip':>5} {'rot':>6} {'eps':>6} | "
          f"{'E_shift':>8} {'G_shift':>8} {'H_shift':>8} | {'H-G':>7} {'G-E':>7} | "
          f"{'E_orig':>7} {'G_orig':>7} {'H_orig':>7}")
    for s, sd, flip, rot, eps_scale in itertools.product(
            grid["s"], grid["sd"], grid["flip"], grid["rot"], grid["eps_scale"]):
        t0 = time.time()
        rows = bench(config, s, sd, flip, rot, eps_scale, iterations, seeds)
        e, g, h = rows[ERM], rows[GROUP_DRO], rows[HIERARCHICAL]
        print(f"{s:5.2f} {sd:5.2f} {flip:5.2f} {rot:6.2f} {eps_scale:6.3f} | "
              f"{e[1]:8.3f} {g[1]:8.3f} {h[1]:8.3f} | {h[1]-g[1]:+7.3f} {g[1]-e[1]:+7.3f} | "
              f"{e[0]:7.3f} {g[0]:7.3f} {h[0]:7.3f}  ({time.time()-t0:.0f}s)")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
