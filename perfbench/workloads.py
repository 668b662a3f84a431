"""The three workloads: a CLI pipeline, single-trajectory training, verification.

Each workload is a class whose constructor is the set-up (config load and
input construction; the imports above it count too) and whose ``run_round``
performs one whole round of operations, times them and checks their
outputs.  A round always attempts the same operations, so the share of
failed operations does not depend on how many rounds fit in a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from hierdro import cli, datagen, solver, verification
from hierdro.errors import HierdroError
from hierdro.model import ModelSpec, init_params

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_CONFIG = os.path.join(ROOT, "configs", "benchmark.json")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# pipeline: the full config runs 40k tuning and 80k training steps.  These
# horizons keep a round near 8 s, so that a 20 s run holds two or three;
# at them the smallest tuning scale wins on every seed measured (8k tuning
# steps would pick the full config's 96/255).
PIPELINE_TUNE_ITERATIONS = 1_000
PIPELINE_RUN_ITERATIONS = 500
CHECKPOINTS = 10
# train: one trajectory per mode x architecture at the benchmark setting.
TRAIN_ITERATIONS = 300
TRAIN_CHECKPOINT_EVERY = 150
ARCHITECTURES = ("linear", "mlp1")
HIDDEN_WIDTH = 32
TUNED_SCALE = 96 / 255          # epsilon = scale * sqrt(190) = 5.189
# verify: the convergence-rate check with the two shortest horizons its
# 20k checkpoint cadence allows and 1/50 of the reference iterations, which
# moves the reference value by 2e-6 and leaves the gaps at 0.0329, 0.0209.
RATE_HORIZONS = (20_000, 40_000)
RATE_REFERENCE_ITERATIONS = 20_000


# FAST_CHECKS holds the check functions; their module names are what a
# traced run must call, since tracing rebinds those names.
FAST_CHECK_NAMES = tuple(next(k for k, v in vars(verification).items() if v is check)
                         for check in verification.FAST_CHECKS)


def derived_seeds(seed: int, count: int) -> list[int]:
    """``count`` 32-bit seeds from any integer (SeedSequence takes no negatives)."""
    return [int(v) for v in np.random.SeedSequence(seed % 2**64).generate_state(count)]


def load_bench_config() -> dict:
    with open(BENCH_CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Round:
    seconds: float          # the round's operations, in reference seconds
    wall_s: float           # the same, in wall seconds
    phases: dict            # per-layer phase metrics of this round
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    extra: list = field(default_factory=list)


def _check(problems: list, fn, *args) -> None:
    """Run an output check; any exception is a failed check, not a crash."""
    try:
        fn(*args)
    except Exception as exc:  # a malformed artifact must be reported, not abort the run
        problems.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")


def summary(out: str) -> str:
    """The tuned epsilon and each method's mean shifted worst-group accuracy."""
    with open(os.path.join(out, "tune_result.json"), encoding="utf-8") as fh:
        parts = [f"tuned epsilon {json.load(fh)['chosen_epsilon']:.4f}"]
    _, summaries = checks.read_results(os.path.join(out, "results.csv"))
    parts += [f"{row[0]} worst_acc_shift {row[5]}" for row in summaries]
    return "; ".join(parts)


class Workload:
    """Constructed with the run's seed (the set-up); ``run_round(meter)``
    times each operation with ``meter.lap()`` and checks the outputs
    after the last one.  ``phases`` names the per-layer phase metrics a
    round reports, with their units."""

    phases: dict = {}

    def close(self) -> None:
        pass


class Pipeline(Workload):
    """generate -> tune -> run -> report through ``cli.main``."""

    phases = {"tune_s": "s", "run_s": "s"}

    def __init__(self, seed: int):
        raw = load_bench_config()
        seeds = derived_seeds(seed, 6)
        self.config = {
            "output_dir": "pipeline",
            "seeds": seeds[1:],
            "dataset": {**raw["dataset"], "seed": seeds[0]},
            "solver": {**raw["solver"], "iterations": PIPELINE_RUN_ITERATIONS,
                       "checkpoint_every": PIPELINE_RUN_ITERATIONS // CHECKPOINTS},
            "ambiguity": raw["ambiguity"],
            "tuning": {**raw["tuning"], "iterations": PIPELINE_TUNE_ITERATIONS},
            "evaluation": raw["evaluation"],
        }
        os.makedirs(OUT_ROOT, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix="pipeline-", dir=OUT_ROOT)
        self.config_path = os.path.join(self.run_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        cli.load_config(self.config_path)
        self.rounds = 0
        self.keep = False

    def run_round(self, meter) -> Round:
        self.rounds += 1
        out = os.path.join(self.run_dir, f"round{self.rounds}")
        os.makedirs(out)
        tune_result = os.path.join(out, "tune_result.json")
        results = os.path.join(out, "results.csv")
        common = ["--config", self.config_path, "--output-dir", out]
        steps = (
            ("generate", ["generate", *common]),
            ("tune", ["tune", *common]),
            ("run", ["run", *common, "--tuned-epsilon-from", tune_result]),
            ("report", ["report", "--results", results]),
        )
        seconds, walls, codes = {}, {}, {}
        report = io.StringIO()
        meter.reset()
        for name, argv in steps:
            with contextlib.redirect_stdout(report):
                codes[name] = cli.main(argv)
            seconds[name], walls[name] = meter.lap()

        cells = len(self.config["solver"]["modes"]) * len(self.config["seeds"])
        failed = sum(code != 0 for code in codes.values())
        for name, code in codes.items():
            if code != 0:
                print(f"hierdro {name} exited {code}", file=sys.stderr)
        if os.path.exists(results):
            rows, _ = checks.read_results(results)
            failed += sum("failed" in row for row in rows)
        problems = []
        if all(code == 0 for code in codes.values()):
            _check(problems, checks.check_pipeline, out, self.config)
            lines = report.getvalue().splitlines()
            if len(lines) != 1 + cells + len(self.config["solver"]["modes"]):
                problems.append(f"report printed {len(lines)} lines")
            if not problems:
                print(summary(out), file=sys.stderr)
        self.keep = self.keep or bool(problems)
        if not problems:
            shutil.rmtree(out)
        return Round(
            seconds=sum(seconds.values()), wall_s=sum(walls.values()),
            phases={"tune_s": seconds["tune"], "run_s": seconds["run"]},
            attempted=len(steps) + cells, failed=failed, problems=problems,
        )

    def close(self) -> None:
        if self.keep:
            print(f"outputs kept in {self.run_dir}", file=sys.stderr)
        else:
            shutil.rmtree(self.run_dir, ignore_errors=True)


class Train(Workload):
    """One ``solver.train`` trajectory per mode x architecture."""

    phases = {f"{arch}.{mode}.steps_per_s": "steps/s"
              for arch in ARCHITECTURES for mode in solver.MODES}

    def __init__(self, seed: int):
        raw = load_bench_config()
        data_seed, init_seed, run_seed = derived_seeds(seed, 3)
        ds = raw["dataset"]
        make = lambda counts, offset: datagen.make_spurious(
            counts, ds["spurious_strength"], ds["noise_sd"], ds["label_flip_p"], seed=data_seed + offset)
        self.ds_train = make(ds["n_per_group_train"], 0)
        self.ds_val = make(ds["n_per_group_val"], 1)
        sv = raw["solver"]
        base = solver.SolverConfig(
            mode=solver.ERM, eta_beta=sv["eta_beta"], eta_theta=sv["eta_theta"],
            adjustment=sv["adjustment"], iterations=TRAIN_ITERATIONS,
            batch_size=sv["batch_size"], sampling=sv["sampling"], seed=run_seed,
            checkpoint_every=TRAIN_CHECKPOINT_EVERY, decay_steps=sv["decay_steps"],
        )
        epsilon = TUNED_SCALE * math.sqrt(min(ds["n_per_group_train"]))
        self.cells = []
        for arch in ARCHITECTURES:
            init = init_params(ModelSpec(arch, HIDDEN_WIDTH), self.ds_train.d, 2, seed=init_seed)
            for mode in solver.MODES:
                eps = epsilon if mode == solver.HIERARCHICAL else 0.0
                self.cells.append((arch, mode, init, replace(base, mode=mode, epsilon=eps)))

    def run_round(self, meter) -> Round:
        done, failed = [], 0
        meter.reset()
        for arch, mode, init, config in self.cells:
            try:
                result = solver.train(self.ds_train, self.ds_val, init, config)
            except HierdroError as exc:
                meter.lap()
                failed += 1
                print(f"{arch} {mode}: {exc}", file=sys.stderr)
                continue
            done.append((arch, mode, init, config, result, *meter.lap()))

        phases, problems, extra = {}, [], []
        for arch, mode, init, config, result, seconds, wall in done:
            phases[f"{arch}.{mode}.steps_per_s"] = config.iterations / seconds
            _check(problems, checks.check_trajectory, result, self.ds_train, self.ds_val,
                   mode, config.iterations, config.checkpoint_every)
            moved = None
            if init.w_hidden is not None:
                moved = not np.array_equal(result.final.theta.w_hidden, init.w_hidden)
            extra.append({"arch": arch, "mode": mode, "steps": config.iterations,
                          "seconds": wall, "w_hidden_moved": moved})
        return Round(seconds=sum(d[5] for d in done), wall_s=sum(d[6] for d in done),
                     phases=phases, attempted=len(self.cells), failed=failed,
                     problems=problems, extra=extra)


class Verify(Workload):
    """The fast verification checks plus a shortened convergence-rate check."""

    phases = {"verify_fast_s": "s", "rate_study_s": "s"}

    def __init__(self, seed: int):
        pass   # the checks run on fixed instances; the seed does not reach them

    def run_round(self, meter) -> Round:
        calls = [(name, {}) for name in FAST_CHECK_NAMES]
        calls.append(("check_convergence_rate", {"horizons": RATE_HORIZONS,
                                                 "reference_iterations": RATE_REFERENCE_ITERATIONS}))
        results, seconds, walls, failed = {}, {}, {}, 0
        meter.reset()
        for name, kwargs in calls:
            try:
                results[name] = getattr(verification, name)(**kwargs)
            except HierdroError as exc:
                failed += 1
                print(f"{name}: {exc}", file=sys.stderr)
            seconds[name], walls[name] = meter.lap()
        problems = [f"{name} did not pass: {result.details}"
                    for name, result in results.items() if not result.passed]
        fast_s = sum(seconds[name] for name in FAST_CHECK_NAMES)
        return Round(seconds=sum(seconds.values()), wall_s=sum(walls.values()),
                     phases={"verify_fast_s": fast_s, "rate_study_s": seconds["check_convergence_rate"]},
                     attempted=len(calls), failed=failed, problems=problems)


WORKLOADS = {"pipeline": Pipeline, "train": Train, "verify": Verify}
