#!/usr/bin/env python3
"""Time one training step of a parent revision and of this tree, layout by layout.

    python3 scripts/step_table.py --parent HEAD [--steps 1000] [--rounds 21]
    python3 scripts/step_table.py --parent-src OTHER/src [--steps 1000] [--rounds 21]

Both sides run in this one process: the parent's ``src/hierdro``, exported
with ``git archive`` as ``bench_pair.py`` exports it (``--parent REV``) or
read from a directory that holds ``hierdro/`` (``--parent-src DIR``), is
imported under another package name, which works because the package uses
only relative imports; this tree's ``src/hierdro`` is imported as
``hierdro``.  Each round starts every layout afresh on each side, the side
that goes first alternating from round to round, and times ``--steps``
steps of ``solver.advance``; a side's time is its minimum over the rounds.
The 15 layouts are the one-row steps of the three modes on the canonical
instance of the convergence study (batch 8, criterion 6's step) and on the
benchmark setting (``configs/benchmark.json``'s training split, batch 64,
step decay, radius 96/255 * sqrt(190) for hierarchical rows) with a
``linear`` and an ``mlp1`` model of width 32, the one-row ``linear`` ERM
step of the benchmark setting under ``empirical`` sampling, the 4-row step
of the degeneracy check, the 8-row step of tuning (one hierarchical row per
default grid scale) and the 15-row step of ``run`` (three modes times five
seeds), each ``linear`` and ``mlp1``.

It prints one Markdown table: per layout the rows, the parent's and this
tree's microseconds per step, their ratio, and whether the final
parameters and simplex weights are bitwise the same on both sides.  The
exit code is 1 when some layout is not bitwise, else 0.

Timings depend on the state of the process's heap: glibc's trim and mmap
thresholds move with earlier allocations, and one layout has measured 370
or 483 us per step on the same code.  Compare sides only within one run,
which interleaves them in one heap.
"""

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import export_revision  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_CONFIG = os.path.join(ROOT, "configs", "benchmark.json")
SIDES = ("parent", "tree")
MODES = ("erm", "group_dro", "hierarchical")
HIDDEN_WIDTH = 32
BENCH_SCALE = 96 / 255
RUN_SEEDS = (0, 1, 2, 3, 4)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="git revision of the other side")
    side.add_argument("--parent-src", help="directory holding the other side's hierdro/")
    parser.add_argument("--steps", type=int, default=1000, help="steps per timed run")
    parser.add_argument("--rounds", type=int, default=21, help="alternations of the two sides")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.rounds < 1:
        parser.error("--steps and --rounds must be positive")
    return args


def load_package(src: str, name: str) -> dict:
    """The modules of the ``hierdro`` package in ``src``, imported as ``name``."""
    path = os.path.join(src, "hierdro")
    spec = importlib.util.spec_from_file_location(name, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in ("convergence", "datagen", "model", "solver", "tuning", "verification")}


def layouts(pkg: dict, steps: int) -> list:
    """``(name, inits, configs, dataset)`` of every layout, built with ``pkg``."""
    solver, model = pkg["solver"], pkg["model"]
    out = []

    ds, config = pkg["convergence"].canonical_instance()
    init = model.init_params(model.ModelSpec(model.LINEAR), ds.d, ds.num_labels, seed=config.seed)
    for mode in MODES:
        out.append((f"canonical, batch 8, {mode}", [init],
                    [replace(config, mode=mode, iterations=steps)], ds))

    with open(BENCH_CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    data, sv = raw["dataset"], raw["solver"]
    ds = pkg["datagen"].make_spurious(data["n_per_group_train"], data["spurious_strength"],
                                      data["noise_sd"], data["label_flip_p"], seed=data["seed"])
    base = solver.SolverConfig(mode=solver.ERM, eta_beta=sv["eta_beta"],
                               eta_theta=sv["eta_theta"], adjustment=sv["adjustment"],
                               iterations=steps, batch_size=sv["batch_size"],
                               sampling=sv["sampling"], checkpoint_every=steps,
                               decay_steps=sv["decay_steps"])
    n_min = int(ds.n_g.min())
    epsilon = BENCH_SCALE * math.sqrt(n_min)
    inits = {(arch, seed): model.init_params(model.ModelSpec(arch, HIDDEN_WIDTH), ds.d,
                                             ds.num_labels, seed=seed)
             for arch in (model.LINEAR, model.MLP1) for seed in RUN_SEEDS}
    for arch in (model.LINEAR, model.MLP1):
        for mode in MODES:
            eps = epsilon if mode == solver.HIERARCHICAL else 0.0
            out.append((f"benchmark, {arch}, {mode}", [inits[arch, 0]],
                        [replace(base, mode=mode, epsilon=eps)], ds))
    out.append(("benchmark, linear, erm, empirical sampling", [inits[model.LINEAR, 0]],
                [replace(base, sampling=solver.EMPIRICAL)], ds))

    small, degenerate, init = pkg["verification"]._small_train_setup()
    degenerate = replace(degenerate, iterations=steps)
    out.append(("degeneracy check, 4 rows", [init] * 4,
                [degenerate, replace(degenerate, epsilon=0.0),
                 replace(degenerate, mode=solver.GROUP_DRO), replace(degenerate, mode=solver.ERM)],
                small))

    grid = pkg["tuning"].DEFAULT_GRID_SCALE
    for arch in (model.LINEAR, model.MLP1):
        out.append((f"tuning, {arch}, {len(grid)} rows", [inits[arch, 0]] * len(grid),
                    [replace(base, mode=solver.HIERARCHICAL, epsilon=s * math.sqrt(n_min))
                     for s in grid], ds))
    cells = [(mode, seed) for mode in MODES for seed in RUN_SEEDS]
    for arch in (model.LINEAR, model.MLP1):
        out.append((f"run, {arch}, {len(cells)} rows", [inits[arch, seed] for _, seed in cells],
                    [replace(base, mode=mode, seed=seed,
                             epsilon=epsilon if mode == solver.HIERARCHICAL else 0.0)
                     for mode, seed in cells], ds))
    return out


def time_layout(solver, inits, configs, ds) -> tuple:
    """Seconds per step of one fresh run of the layout, and the bytes of its
    final parameters and simplex weights."""
    state = solver.Lockstep.start(inits, configs, ds)
    start = time.perf_counter()
    for _ in solver.advance(state):
        pass
    seconds = (time.perf_counter() - start) / state.t
    arrays = [a for a in state.theta.arrays() if a is not None] + [state.beta]
    return seconds, b"".join(a.tobytes() for a in arrays)


def measure(packages: dict, steps: int, rounds: int) -> list:
    """Per layout: its name, row count, each side's best seconds per step
    and whether the two sides' final states are bitwise equal."""
    built = {side: layouts(pkg, steps) for side, pkg in packages.items()}
    best = {side: [math.inf] * len(built[side]) for side in SIDES}
    final = {side: [None] * len(built[side]) for side in SIDES}
    with np.errstate(all="ignore"):
        for r in range(rounds):
            for i in range(len(built["tree"])):
                for side in (SIDES if (r + i) % 2 == 0 else SIDES[::-1]):
                    _, inits, configs, ds = built[side][i]
                    seconds, state = time_layout(packages[side]["solver"], inits, configs, ds)
                    best[side][i] = min(best[side][i], seconds)
                    final[side][i] = state
    return [(name, len(configs), best["parent"][i], best["tree"][i],
             final["parent"][i] == final["tree"][i])
            for i, (name, _, configs, _) in enumerate(built["tree"])]


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="step_table_") as tmp:
        parent_src = args.parent_src
        if args.parent is not None:
            export_revision(ROOT, args.parent, os.path.join(tmp, "parent"))
            parent_src = os.path.join(tmp, "parent", "src")
        packages = {"parent": load_package(parent_src, "hierdro_parent"),
                    "tree": load_package(os.path.join(ROOT, "src"), "hierdro")}
        rows = measure(packages, args.steps, args.rounds)
    print(f"# {args.steps} steps per run, best of {args.rounds} alternations; "
          f"Python {platform.python_version()}, numpy {np.__version__}")
    print("| layout | rows | parent us/step | tree us/step | ratio | bitwise |")
    print("|---|---|---|---|---|---|")
    for name, num_rows, parent, tree, bitwise in rows:
        print(f"| {name} | {num_rows} | {parent * 1e6:.1f} | {tree * 1e6:.1f} | "
              f"{tree / parent:.3f} | {'yes' if bitwise else 'NO'} |")
    return 0 if all(row[-1] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
