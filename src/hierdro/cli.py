"""Experiment runner: generate | run | tune | verify | report.

Experiments are described by a single JSON config with ``dataset``,
``solver``, ``ambiguity``, ``tuning`` and ``evaluation`` blocks plus a seed
list and an output directory; the output directory and the hierarchical
radius can be overridden by flags.  A key the schema does not know is a
validation error, and so is an output directory whose generated data came
from another dataset block.
Every artifact records the config hash and the seed list, and reruns with an
identical hash produce byte-identical file bodies (no timestamps anywhere).

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 runtime divergence.  The environment variable ``HIERDRO_OUT`` provides a
root under which relative output directories are resolved.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
from dataclasses import dataclass, field

import numpy as np

from . import datagen, solver, tuning, verification
from .datagen import ShiftSpec, config_hash
from .errors import (
    ConfigError,
    DivergenceError,
    HierdroError,
    ParameterError,
)
from .evaluation import evaluate
from .model import ModelSpec, init_params, save_params
from .solver import HIERARCHICAL, MODE_LABELS, MODES, SolverConfig
from .tuning import DEFAULT_GRID_SCALE, TuneConfig

OUTPUT_ROOT_ENV = "HIERDRO_OUT"

RESULTS_COLUMNS = (
    "method", "seed", "eps",
    "worst_acc_orig", "avg_acc_orig", "worst_acc_shift", "avg_acc_shift",
)


@dataclass
class DatasetBlock:
    n_per_group_train: tuple[int, ...]
    n_per_group_val: tuple[int, ...]
    n_per_group_test: tuple[int, ...]
    spurious_strength: float
    noise_sd: float
    label_flip_p: float
    seed: int
    shifts: tuple[ShiftSpec, ...] = ()
    csv: dict | None = None           # optional pre-generated files


@dataclass
class SolverBlock:
    modes: tuple[str, ...]
    eta_beta: float
    eta_theta: float
    epsilon: float
    adjustment: float
    iterations: int
    batch_size: int
    sampling: str = solver.GROUP_UNIFORM
    checkpoint_every: int = 100
    decay_steps: bool = False
    backprop_through_feature: bool = False
    architecture: str = "linear"
    hidden_width: int = 32


@dataclass
class AmbiguityBlock:
    inner_steps: int = 1
    eta_z: float | None = None


@dataclass
class TuningBlock:
    grid_scale: tuple[float, ...] = DEFAULT_GRID_SCALE
    aggregation: str = "mean"
    order_on: str = "latents"
    warmup_iterations: int = 500
    iterations: int | None = None      # shorter horizon for tuning runs


@dataclass
class ExperimentConfig:
    output_dir: str
    seeds: tuple[int, ...]
    dataset: DatasetBlock
    solver: SolverBlock
    ambiguity: AmbiguityBlock = field(default_factory=AmbiguityBlock)
    tuning: TuningBlock = field(default_factory=TuningBlock)
    raw: dict = field(default_factory=dict)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _require(block: dict, key: str, kind, where: str):
    if key not in block:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = block[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{where}.{key}: expected {kind}, got {type(value).__name__}")
    return value


def _object(value, where: str, known) -> dict:
    """``value`` as a JSON object whose keys all belong to ``known``: a tuple
    of names, or a dataclass whose fields the keys name."""
    if dataclasses.is_dataclass(known):
        known = [f.name for f in dataclasses.fields(known)]
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in value:
        if key not in known:
            raise ConfigError(f"{where}: unknown key {key!r}")
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Schema-check a raw JSON config before any computation.

    The ``evaluation`` block has no settings yet and must be empty.
    """
    raw = _object(raw, "config", ("output_dir", "seeds", "dataset", "solver", "ambiguity",
                                  "tuning", "evaluation"))
    seeds = raw.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ConfigError("seeds: expected a nonempty list of integers")
    output_dir = raw.get("output_dir")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: expected a nonempty string")

    ds_raw = _object(raw.get("dataset"), "dataset", DatasetBlock)
    shifts = []
    for i, s in enumerate(ds_raw.get("shifts", [])):
        _object(s, f"dataset.shifts[{i}]", ShiftSpec)
        try:
            shifts.append(ShiftSpec(
                target_group=int(s["target_group"]),
                kind=str(s["kind"]),
                magnitude=float(s["magnitude"]),
                applies_to=str(s.get("applies_to", "test")),
            ))
        except (KeyError, ParameterError, TypeError, ValueError) as exc:
            raise ConfigError(f"dataset.shifts[{i}]: {exc}") from exc
    csv_block = ds_raw.get("csv")
    if csv_block is not None:
        _object(csv_block, "dataset.csv", ("train", "val", "test", "test_shifted"))
        for split in ("train", "val", "test"):
            path = csv_block.get(split)
            if not isinstance(path, str) or not os.path.exists(path):
                raise ConfigError(f"dataset.csv.{split}: file not found: {path!r}")
    dataset = DatasetBlock(
        n_per_group_train=tuple(_require(ds_raw, "n_per_group_train", list, "dataset")),
        n_per_group_val=tuple(_require(ds_raw, "n_per_group_val", list, "dataset")),
        n_per_group_test=tuple(_require(ds_raw, "n_per_group_test", list, "dataset")),
        spurious_strength=_require(ds_raw, "spurious_strength", float, "dataset"),
        noise_sd=_require(ds_raw, "noise_sd", float, "dataset"),
        label_flip_p=_require(ds_raw, "label_flip_p", float, "dataset"),
        seed=_require(ds_raw, "seed", int, "dataset"),
        shifts=tuple(shifts),
        csv=csv_block,
    )

    sv = _object(raw.get("solver"), "solver", SolverBlock)
    modes = tuple(sv.get("modes", list(MODES)))
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"solver.modes: unknown mode {mode!r}")
    solver_block = SolverBlock(
        modes=modes,
        eta_beta=_require(sv, "eta_beta", float, "solver"),
        eta_theta=_require(sv, "eta_theta", float, "solver"),
        epsilon=float(sv.get("epsilon", 0.0)),
        adjustment=float(sv.get("adjustment", 0.0)),
        iterations=_require(sv, "iterations", int, "solver"),
        batch_size=_require(sv, "batch_size", int, "solver"),
        sampling=str(sv.get("sampling", solver.GROUP_UNIFORM)),
        checkpoint_every=int(sv.get("checkpoint_every", 100)),
        decay_steps=bool(sv.get("decay_steps", False)),
        backprop_through_feature=bool(sv.get("backprop_through_feature", False)),
        architecture=str(sv.get("architecture", "linear")),
        hidden_width=int(sv.get("hidden_width", 32)),
    )

    am = _object(raw.get("ambiguity", {}), "ambiguity", AmbiguityBlock)
    ambiguity_block = AmbiguityBlock(
        inner_steps=_require(am, "inner_steps", int, "ambiguity") if "inner_steps" in am else 1,
        eta_z=None if am.get("eta_z") is None else _require(am, "eta_z", float, "ambiguity"),
    )

    tn = _object(raw.get("tuning", {}), "tuning", TuningBlock)
    _object(raw.get("evaluation", {}), "evaluation", ())
    tuning_block = TuningBlock(
        grid_scale=tuple(float(v) for v in tn.get("grid_scale", DEFAULT_GRID_SCALE)),
        aggregation=str(tn.get("aggregation", "mean")),
        order_on=str(tn.get("order_on", "latents")),
        warmup_iterations=int(tn.get("warmup_iterations", 500)),
        iterations=tn.get("iterations"),
    )

    config = ExperimentConfig(
        output_dir=output_dir,
        seeds=tuple(seeds),
        dataset=dataset,
        solver=solver_block,
        ambiguity=ambiguity_block,
        tuning=tuning_block,
        raw=raw,
    )
    # Exercise the dataclass validators now rather than mid-run.
    try:
        _solver_config(config, mode=modes[0], seed=seeds[0])
        ModelSpec(solver_block.architecture, solver_block.hidden_width)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


def resolve_output_dir(config: ExperimentConfig, override: str | None = None) -> str:
    out = override or config.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not os.path.isabs(out):
        out = os.path.join(root, out)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _solver_config(config: ExperimentConfig, mode: str, seed: int,
                   epsilon: float | None = None, iterations: int | None = None) -> SolverConfig:
    sv = config.solver
    return SolverConfig(
        mode=mode,
        eta_beta=sv.eta_beta,
        eta_theta=sv.eta_theta,
        epsilon=sv.epsilon if epsilon is None else epsilon,
        adjustment=sv.adjustment,
        iterations=sv.iterations if iterations is None else iterations,
        batch_size=sv.batch_size,
        eta_z=config.ambiguity.eta_z,
        inner_steps=config.ambiguity.inner_steps,
        sampling=sv.sampling,
        seed=seed,
        checkpoint_every=sv.checkpoint_every,
        decay_steps=sv.decay_steps,
        backprop_through_feature=sv.backprop_through_feature,
    )


def _model_spec(config: ExperimentConfig) -> ModelSpec:
    return ModelSpec(config.solver.architecture, config.solver.hidden_width)


# ---------------------------------------------------------------- generate


def _generate_datasets(config: ExperimentConfig):
    ds_block = config.dataset
    splits = {}
    for name, counts, offset in (
        ("train", ds_block.n_per_group_train, 0),
        ("val", ds_block.n_per_group_val, 1),
        ("test", ds_block.n_per_group_test, 2),
    ):
        splits[name] = datagen.make_spurious(
            counts, ds_block.spurious_strength, ds_block.noise_sd,
            ds_block.label_flip_p, seed=ds_block.seed + offset,
        )
    shifted_test = splits["test"]
    for spec in ds_block.shifts:
        if spec.applies_to == "test":
            shifted_test = datagen.apply_shift(shifted_test, spec).dataset
        else:
            splits["train"] = datagen.apply_shift(splits["train"], spec).dataset
    splits["test_shifted"] = shifted_test
    return splits


def _manifest(config: ExperimentConfig, splits: dict) -> dict:
    """The generator manifest for this config's dataset block and ``splits``."""
    ds_block = config.dataset
    return datagen.generator_manifest(
        params={
            "n_per_group_train": list(ds_block.n_per_group_train),
            "n_per_group_val": list(ds_block.n_per_group_val),
            "n_per_group_test": list(ds_block.n_per_group_test),
            "spurious_strength": ds_block.spurious_strength,
            "noise_sd": ds_block.noise_sd,
            "label_flip_p": ds_block.label_flip_p,
            "seed": ds_block.seed,
        },
        splits=splits,
        shifts=list(ds_block.shifts),
    )


def cmd_generate(config: ExperimentConfig, output_dir: str) -> dict:
    splits = _generate_datasets(config)
    summaries = {}
    for name, ds in splits.items():
        filename = f"{name}.csv"
        path = os.path.join(output_dir, filename)
        datagen.save_csv(ds, path)
        summaries[name] = datagen.split_summary(ds, filename, path)
    manifest = _manifest(config, summaries)
    manifest["config_hash"] = config.hash
    manifest["seeds"] = list(config.seeds)
    manifest_path = os.path.join(output_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _load_datasets(config: ExperimentConfig, output_dir: str):
    if config.dataset.csv is not None:
        paths = config.dataset.csv
        return {
            "train": datagen.load_csv(paths["train"]),
            "val": datagen.load_csv(paths["val"]),
            "test": datagen.load_csv(paths["test"]),
            "test_shifted": datagen.load_csv(paths.get("test_shifted", paths["test"])),
        }
    expected = os.path.join(output_dir, "train.csv")
    if os.path.exists(expected):
        _require_same_generator(config, output_dir)
        return {name: datagen.load_csv(os.path.join(output_dir, f"{name}.csv"))
                for name in ("train", "val", "test", "test_shifted")}
    return _generate_datasets(config)


def _require_same_generator(config: ExperimentConfig, output_dir: str) -> None:
    """Refuse data in ``output_dir`` that ``generate`` wrote for another dataset block."""
    path = os.path.join(output_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            found = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{output_dir} holds train.csv but no manifest.json; "
                          "run generate again or use another output directory") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    want = _manifest(config, {})
    fields = [("generator." + key, want["generator"][key], found.get("generator", {}).get(key))
              for key in want["generator"]]
    fields.append(("shifts", want["shifts"], found.get("shifts")))
    for name, expected, actual in fields:
        if actual != expected:
            raise ConfigError(f"{path}: {name} is {actual!r} but the config gives {expected!r}; "
                              "run generate again or use another output directory")


# -------------------------------------------------------------------- run


def _fmt(value: float) -> str:
    return "%.6f" % value


def cmd_run(config: ExperimentConfig, output_dir: str,
            hierarchical_epsilon: float | None = None) -> str:
    """Train every (mode, seed) cell and write the results table.

    Cells that diverge are recorded as failed rows instead of aborting the
    whole table.
    """
    data = _load_datasets(config, output_dir)
    ds_train, ds_val = data["train"], data["val"]
    ds_test, ds_test_shifted = data["test"], data["test_shifted"]
    spec = _model_spec(config)
    weights = ds_train.alpha

    rows = []
    by_mode: dict[str, list[tuple[float, float, float, float]]] = {}
    failures = []
    for mode in config.solver.modes:
        eps = 0.0
        if mode == HIERARCHICAL:
            eps = (hierarchical_epsilon if hierarchical_epsilon is not None
                   else config.solver.epsilon)
        for seed in config.seeds:
            run_cfg = _solver_config(config, mode=mode, seed=seed, epsilon=eps)
            init_seed, _ = _derived_seeds(seed)
            init = init_params(spec, ds_train.d, ds_train.num_labels, seed=init_seed)
            run_dir = os.path.join(output_dir, "runs", f"{mode}_seed{seed}")
            os.makedirs(run_dir, exist_ok=True)
            try:
                result = solver.train(ds_train, ds_val, init, run_cfg)
            except DivergenceError as exc:
                failures.append((MODE_LABELS[mode], seed, str(exc)))
                rows.append((MODE_LABELS[mode], str(seed), _fmt(eps),
                             "failed", "failed", "failed", "failed"))
                continue
            orig = evaluate(result.best, ds_test, weights)
            shift = evaluate(result.best, ds_test_shifted, weights)
            rows.append((
                MODE_LABELS[mode], str(seed), _fmt(eps),
                _fmt(orig.worst_group_acc), _fmt(orig.avg_acc_weighted),
                _fmt(shift.worst_group_acc), _fmt(shift.avg_acc_weighted),
            ))
            by_mode.setdefault(mode, []).append((
                orig.worst_group_acc, orig.avg_acc_weighted,
                shift.worst_group_acc, shift.avg_acc_weighted,
            ))
            save_params(result.best, os.path.join(run_dir, "checkpoint_best.json"))
            save_params(result.final.theta, os.path.join(run_dir, "checkpoint_final.json"))
            solver.write_history_csv(
                result.history, ds_train.num_groups,
                os.path.join(run_dir, "history.csv"),
                header_comment=f"config_hash={config.hash} mode={mode} seed={seed}",
            )

    for mode in config.solver.modes:
        cells = by_mode.get(mode, [])
        if not cells:
            continue
        eps = 0.0
        if mode == HIERARCHICAL:
            eps = (hierarchical_epsilon if hierarchical_epsilon is not None
                   else config.solver.epsilon)
        summary = []
        for j in range(4):
            values = [c[j] for c in cells]
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            summary.append(f"{mean:.4f}±{sd:.4f}")
        rows.append((MODE_LABELS[mode], "summary", _fmt(eps), *summary))

    results_path = os.path.join(output_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config.hash} seeds={list(config.seeds)}\n")
        fh.write(",".join(RESULTS_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    for mode_label, seed, message in failures:
        print(f"warning: {mode_label} seed {seed} diverged: {message}", file=sys.stderr)
    return results_path


def _derived_seeds(seed: int) -> tuple[int, int]:
    """Independent init/sampling seeds derived from one experiment seed."""
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(2)
    return (int(children[0].generate_state(1)[0]), int(children[1].generate_state(1)[0]))


# ------------------------------------------------------------------- tune


def cmd_tune(config: ExperimentConfig, output_dir: str) -> str:
    data = _load_datasets(config, output_dir)
    ds_train = data["train"]
    tune_iterations = config.tuning.iterations or config.solver.iterations
    tune_cfg = TuneConfig(
        solver=_solver_config(config, mode=HIERARCHICAL, seed=config.seeds[0],
                              iterations=tune_iterations),
        model=_model_spec(config),
        aggregation=config.tuning.aggregation,
        order_on=config.tuning.order_on,
        warmup_iterations=config.tuning.warmup_iterations,
        ordering_seed=config.seeds[0],
    )
    result = tuning.tune_epsilon(ds_train, config.tuning.grid_scale, tune_cfg)
    payload = {
        "config_hash": config.hash,
        "seeds": list(config.seeds),
        "grid_scale": list(result.grid_scale),
        "grid": list(result.grid),
        "table": [[float(v) for v in row] for row in result.table],
        "aggregation": result.aggregation,
        "chosen_epsilon": result.chosen_epsilon,
        "chosen_scale": result.chosen_scale,
        "minority_group": result.minority_group,
        "n_min": result.n_min,
    }
    path = os.path.join(output_dir, "tune_result.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------- verify


def cmd_verify(level: str, output_path: str | None) -> int:
    results = verification.run_checks(level)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.seconds:.1f}s)")
    report = {
        "level": level,
        "all_passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report["all_passed"] else 2


# ----------------------------------------------------------------- report


def cmd_report(results_path: str) -> None:
    with open(results_path, "r", encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    print("  ".join(f"{h:>16}" for h in header))
    for line in lines[1:]:
        print("  ".join(f"{c:>16}" for c in line.split(",")))


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierdro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("generate", "run", "tune"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output-dir", default=None)
        if name == "run":
            p.add_argument("--epsilon", type=float, default=None,
                           help="override the hierarchical radius parameter")
            p.add_argument("--tuned-epsilon-from", default=None,
                           help="read chosen_epsilon from a tune_result.json")

    p = sub.add_parser("verify")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--output", default=None)

    p = sub.add_parser("report")
    p.add_argument("--results", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.level, args.output)
        if args.command == "report":
            if not os.path.exists(args.results):
                raise ConfigError(f"results file not found: {args.results}")
            cmd_report(args.results)
            return 0

        config = load_config(args.config)
        output_dir = resolve_output_dir(config, args.output_dir)
        if args.command == "generate":
            cmd_generate(config, output_dir)
            return 0
        if args.command == "tune":
            cmd_tune(config, output_dir)
            return 0
        if args.command == "run":
            epsilon = args.epsilon
            if args.tuned_epsilon_from:
                try:
                    with open(args.tuned_epsilon_from, "r", encoding="utf-8") as fh:
                        epsilon = float(json.load(fh)["chosen_epsilon"])
                except (OSError, KeyError, ValueError) as exc:
                    raise ConfigError(f"cannot read tuned epsilon: {exc}") from exc
            cmd_run(config, output_dir, hierarchical_epsilon=epsilon)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (HierdroError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
