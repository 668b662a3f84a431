"""Experiment runner: generate | run | tune | verify | report.

Experiments are described by a single JSON config with ``dataset``,
``solver``, ``ambiguity``, ``tuning`` and ``evaluation`` blocks plus a seed
list and an output directory; the output directory and the hierarchical
radius can be overridden by flags.  A key the schema does not know or a
value of the wrong type is a validation error.  ``tune`` and ``run`` build
their data from the config alone, never from files ``generate`` wrote.
Every artifact records the config hash and the seed list, and reruns with an
identical hash produce byte-identical file bodies (no timestamps anywhere).
``tune`` also says on stderr, never in ``tune_result.json``, what its result
says about its own choice (:func:`tuning.diagnostics`).

Exit codes: 0 success, 1 validation error or out of memory, 2 verification
failure, 3 runtime divergence.  The environment variable ``HIERDRO_OUT``
provides a root under which relative output directories are resolved.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import datagen, solver, tuning, verification
from .datagen import ShiftSpec, config_hash
from .errors import (
    ConfigError,
    DivergenceError,
    HierdroError,
    InvalidDatasetError,
    ParameterError,
)
from .evaluation import evaluate
from .model import ModelSpec, init_params, save_params
from .solver import HIERARCHICAL, MODE_LABELS, MODES, SolverConfig
from .tuning import TuneConfig

OUTPUT_ROOT_ENV = "HIERDRO_OUT"
# numpy refuses an array of more bytes than this.  The keys that size arrays
# are bounded so that the largest array each sizes, rows of ``FEATURE_DIM``
# float64 features, stays within it: a batch of ``batch_size`` rows, a hidden
# layer of ``hidden_width`` rows and a generated split of its total rows.
MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)
MAX_FEATURE_ROWS = MAX_ARRAY_BYTES // (8 * datagen.FEATURE_DIM)

RESULTS_COLUMNS = (
    "method", "seed", "eps",
    "worst_acc_orig", "avg_acc_orig", "worst_acc_shift", "avg_acc_shift",
)


@dataclass(frozen=True)
class CsvFiles:
    """Pre-generated split files, read instead of generated data."""

    train: str
    val: str
    test: str
    test_shifted: str | None = None    # the unshifted test file when absent

    def __post_init__(self):
        for path in (self.train, self.val, self.test, self.test_shifted):
            if path is not None and not os.path.exists(path):
                raise ParameterError(f"file not found: {path!r}")


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
    csv: CsvFiles | None = None


@dataclass
class ExperimentConfig:
    """A validated config.  ``solver`` is the template of every training run:
    each command replaces its mode, seed and radius.  ``tune`` holds the
    tuning runs' horizon, which falls back to the solver's."""

    output_dir: str
    seeds: tuple[int, ...]
    dataset: DatasetBlock
    solver: SolverConfig
    model: ModelSpec
    tune: TuneConfig
    modes: tuple[str, ...]
    raw: dict = field(default_factory=dict)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def _types(cls, *names) -> dict:
    """Field name -> annotated type, for ``names`` or every field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return {name: hints[name] for name in names or hints}


def _only(cls, values: dict) -> dict:
    """The entries of ``values`` that name a field of ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {key: value for key, value in values.items() if key in names}


# The keys of each block, typed by the fields they fill.
CONFIG_KEYS = {**_types(ExperimentConfig, "output_dir", "seeds", "dataset"),
               "solver": dict, "ambiguity": dict, "tuning": dict, "evaluation": dict}
SOLVER_KEYS = {
    **_types(SolverConfig, "eta_beta", "eta_theta", "epsilon", "adjustment", "iterations",
             "batch_size", "sampling", "checkpoint_every", "decay_steps"),
    **_types(ModelSpec),
    **_types(ExperimentConfig, "modes"),
}
TUNING_KEYS = {
    **_types(TuneConfig, "aggregation", "order_on", "warmup_iterations", "grid_scale"),
    "iterations": SOLVER_KEYS["iterations"] | None,
}


def _read(value, kind, where: str):
    """The JSON ``value`` as the annotated type ``kind``; ``where`` names it in errors.

    A float accepts an integer and converts it; no other type converts, so an
    int rejects ``true`` and ``1.5``.  ``X | None`` accepts null,
    ``tuple[T, ...]`` a list of ``T``, and a dataclass an object holding its
    fields, built from the keys present so that it fills in its own defaults.
    """
    if isinstance(kind, types.UnionType):
        if value is None:
            return None
        kind = typing.get_args(kind)[0]
    if dataclasses.is_dataclass(kind):
        required = [f.name for f in dataclasses.fields(kind)
                    if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        return _build(kind, where, **_block(value, where, _types(kind), required))
    if typing.get_origin(kind) is tuple:
        if type(value) is not list:
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        item = typing.get_args(kind)[0]
        return tuple(_read(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"{where}: integer too large for a float") from exc
    if type(value) is not kind:
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _block(value, where: str, schema: dict, required=()) -> dict:
    """The keys present in the JSON object ``value``, each read as ``schema``
    types it; an unknown or a missing required key is an error.  ``where`` is
    the block's name, empty for the top level."""
    name = where or "config"
    if type(value) is not dict:
        raise ConfigError(f"{name}: expected an object, got {type(value).__name__}")
    for key in value:
        if key not in schema:
            raise ConfigError(f"{name}: unknown key {key!r}")
    for key in required:
        if key not in value:
            raise ConfigError(f"{name}: missing required field {key!r}")
    return {key: _read(v, schema[key], f"{where}.{key}" if where else key)
            for key, v in value.items()}


def _build(make, where: str, *args, **kwargs):
    """``make(*args, **kwargs)``; a value it refuses is a ``ConfigError`` naming
    ``where``, or ``where.key`` when the refusal starts ``key: ``."""
    try:
        return make(*args, **kwargs)
    except (ParameterError, InvalidDatasetError) as exc:
        key, sep, _ = str(exc).partition(": ")
        raise ConfigError(f"{where}{'.' if sep and key.isidentifier() else ': '}{exc}") from exc


def validate_config(raw: dict) -> ExperimentConfig:
    """Read a raw JSON config into the library's dataclasses before any computation.

    Each key takes its type from the field it fills, in ``SolverConfig``,
    ``ModelSpec``, ``TuneConfig``, ``ShiftSpec`` or ``DatasetBlock``, and an
    absent key takes that field's default, which is written there and
    nowhere else.  A wrong type, an unknown key or a value those dataclasses
    refuse is a ``ConfigError`` here, so the CLI exits 1 before it computes
    anything.  So is a generator key that ``datagen.make_spurious`` refuses,
    even beside a ``dataset.csv`` block, and a shift beside one, which no
    command would apply.  The ``ambiguity`` and ``evaluation`` blocks have
    no settings and must be empty.
    """
    top = _block(raw, "", CONFIG_KEYS, required=("output_dir", "seeds", "dataset", "solver"))
    if not top["seeds"]:
        raise ConfigError("seeds: expected a nonempty list of integers")
    if not top["output_dir"]:
        raise ConfigError("output_dir: expected a nonempty string")
    sv = _block(top["solver"], "solver", SOLVER_KEYS,
                required=("eta_beta", "eta_theta", "iterations", "batch_size"))
    tn = _block(top.get("tuning", {}), "tuning", TUNING_KEYS)
    for name in ("ambiguity", "evaluation"):
        _block(top.get(name, {}), name, {})
    modes = sv.get("modes", MODES)
    if not modes:
        raise ConfigError("solver.modes: expected a nonempty list")
    for mode in modes:
        if mode not in MODES:
            raise ConfigError(f"solver.modes: unknown mode {mode!r}")
    seeds, dataset = top["seeds"], top["dataset"]
    size_keys = ("n_per_group_train", "n_per_group_val", "n_per_group_test")
    for name in size_keys:
        _build(datagen.check_group_sizes, "dataset", getattr(dataset, name), name)
    _build(datagen.check_feature_law, "dataset",
           dataset.spurious_strength, dataset.noise_sd, dataset.label_flip_p)
    if dataset.csv is not None and dataset.shifts:
        raise ConfigError("dataset.shifts: no command shifts the dataset.csv files; "
                          "give shifts or a csv block, not both")
    groups = len(dataset.n_per_group_train)
    for i, spec in enumerate(dataset.shifts):
        if spec.target_group >= groups:
            raise ConfigError(f"dataset.shifts[{i}]: target_group {spec.target_group} out of "
                              f"range for {groups} groups")
    sizes = [("solver.batch_size", sv["batch_size"]),
             ("solver.hidden_width", sv.get("hidden_width", 0)),
             *((f"dataset.{name}", sum(getattr(dataset, name))) for name in size_keys)]
    for key, size in sizes:
        if size > MAX_FEATURE_ROWS:
            raise ConfigError(f"{key}: {size} rows of {datagen.FEATURE_DIM} float64 features "
                              f"are more bytes than an array can hold ({MAX_ARRAY_BYTES})")
    for key, seed in [*(("seeds", s) for s in seeds), ("dataset.seed", dataset.seed)]:
        if seed < 0:
            raise ConfigError(f"{key}: expected nonnegative integers, got {seed}")
    for key, values in (("solver.modes", modes), ("seeds", seeds)):
        repeated = sorted({v for v in values if values.count(v) > 1}, key=str)
        if repeated:
            raise ConfigError(f"{key}: repeated entries {repeated}; each entry must be unique")
    template = _build(SolverConfig, "solver", mode=HIERARCHICAL, seed=seeds[0],
                      **_only(SolverConfig, sv))
    model = _build(ModelSpec, "solver", **_only(ModelSpec, sv))
    tune_iterations = tn.get("iterations")
    tune_solver = _build(dataclasses.replace, "tuning", template, iterations=(
        template.iterations if tune_iterations is None else tune_iterations))
    tune = _build(TuneConfig, "tuning", solver=tune_solver, model=model, **_only(TuneConfig, tn))
    n_min = min(dataset.n_per_group_train)
    for scale in tune.grid_scale:
        if not math.isfinite(scale * math.sqrt(n_min)):
            raise ConfigError(f"tuning.grid_scale: scale {scale!r} times sqrt({n_min}), the "
                              "smallest training group, is not a finite epsilon")
    return ExperimentConfig(
        output_dir=top["output_dir"], seeds=seeds, dataset=dataset, solver=template,
        model=model, tune=tune, modes=modes, raw=raw,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except ValueError as exc:    # invalid JSON, or an integer past Python's digit limit
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


def _write_json(path: str, payload, allow_nan: bool = True) -> None:
    """``payload`` as indented JSON with sorted keys and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=allow_nan)
        fh.write("\n")


# ---------------------------------------------------------------- generate


SPLITS = ("train", "val", "test", "test_shifted")


def _generate_datasets(config: ExperimentConfig, splits=SPLITS):
    """The splits named in ``splits``, generated from the ``dataset`` block.

    Each split draws from its own seed, ``dataset.seed`` plus its offset,
    and ``test_shifted`` is ``test`` with the test-side shifts, so a split
    is bitwise the same whichever others are asked for.
    """
    ds_block = config.dataset
    wanted = set(splits) | ({"test"} if "test_shifted" in splits else set())
    drawn = {name: datagen.make_spurious(counts, ds_block.spurious_strength, ds_block.noise_sd,
                                         ds_block.label_flip_p, seed=ds_block.seed + offset)
             for name, counts, offset in (("train", ds_block.n_per_group_train, 0),
                                          ("val", ds_block.n_per_group_val, 1),
                                          ("test", ds_block.n_per_group_test, 2))
             if name in wanted}
    drawn["test_shifted"] = drawn.get("test")
    for spec in ds_block.shifts:
        name = "test_shifted" if spec.applies_to == "test" else "train"
        if drawn.get(name) is not None:
            drawn[name] = datagen.apply_shift(drawn[name], spec)
    return {name: drawn[name] for name in splits}


def cmd_generate(config: ExperimentConfig, output_dir: str) -> dict:
    """Write the four generated splits and their manifest.

    ``split_summary`` reads each file once, to hash it; ``tune`` and ``run``
    never read them.  An earlier run's manifest is removed before the first
    file is written, so a run that fails part way leaves no manifest of
    files it did not write.
    """
    manifest_path = os.path.join(output_dir, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    summaries = {}
    for name, ds in _generate_datasets(config).items():
        filename = f"{name}.csv"
        path = os.path.join(output_dir, filename)
        datagen.save_csv(ds, path)
        summaries[name] = datagen.split_summary(ds, filename, path)
    params = dataclasses.asdict(config.dataset)
    del params["shifts"], params["csv"]
    manifest = datagen.generator_manifest(params, summaries, list(config.dataset.shifts))
    manifest["config_hash"] = config.hash
    manifest["seeds"] = list(config.seeds)
    _write_json(manifest_path, manifest)
    return manifest


def _load_datasets(config: ExperimentConfig, splits=SPLITS):
    """The datasets named in ``splits``, from the config alone: read from the
    ``dataset.csv`` files when it names them, else generated from the
    ``dataset`` block, each only if it is asked for.  The files ``generate`` writes
    are never read back.  The training split fixes the number of labels and
    attribute values of every split, so a group absent from another file is
    an empty group there."""
    paths = config.dataset.csv
    if paths is None:
        return _generate_datasets(config, splits)
    train = _load_split(paths.train)
    where = {"val": paths.val, "test": paths.test,
             "test_shifted": paths.test_shifted or paths.test}
    return {name: train if name == "train" else _load_split(where[name], train)
            for name in splits}


def _load_split(path: str, train=None):
    """The split in the file ``path``; a file that does not load is an error
    that starts with its path.  So is a split other than the training one
    with no rows, or with another number of feature columns than ``train``,
    the training split, whose labels and attribute values it takes."""
    try:
        if train is None:
            return datagen.load_csv(path)
        ds = datagen.load_csv(path, train.num_labels, train.num_attributes)
        if ds.d != train.d:
            raise InvalidDatasetError(f"{ds.d} feature columns, but the training file has "
                                      f"{train.d}")
        if ds.n == 0:
            raise InvalidDatasetError("no rows to evaluate on")
        return ds
    except (HierdroError, UnicodeDecodeError) as exc:
        raise InvalidDatasetError(f"{path}: {exc}") from exc


# -------------------------------------------------------------------- run


def _fmt(value: float) -> str:
    return "%.6f" % value


def train_cells(config: ExperimentConfig, ds_train, ds_val, hierarchical_epsilon: float):
    """Train every (mode, seed) cell of ``config`` in one lockstep run.

    Returns the cells as ``(mode, eps, seed)``, mode by mode, and in the same
    order each cell's ``TrainResult`` or the ``DivergenceError`` it raised.
    """
    cells = [(mode, hierarchical_epsilon if mode == HIERARCHICAL else 0.0, seed)
             for mode in config.modes for seed in config.seeds]
    inits = {seed: init_params(config.model, ds_train.d, ds_train.num_labels,
                               seed=_init_seed(seed)) for seed in config.seeds}
    results = solver.train_lockstep(
        ds_train, ds_val, [inits[seed] for _, _, seed in cells],
        [dataclasses.replace(config.solver, mode=mode, seed=seed, epsilon=eps)
         for mode, eps, seed in cells])
    return cells, results


def cmd_run(config: ExperimentConfig, output_dir: str,
            hierarchical_epsilon: float | None = None) -> str:
    """Train every (mode, seed) cell in one lockstep run and write the results table.

    Cells that diverge are recorded as failed rows, with their divergence
    snapshot in the cell's ``divergence.json``, instead of aborting the
    whole table.
    """
    data = _load_datasets(config)
    ds_train = data["train"]
    weights = ds_train.alpha
    if hierarchical_epsilon is None:
        hierarchical_epsilon = config.solver.epsilon
    cells, results = train_cells(config, ds_train, data["val"], hierarchical_epsilon)

    rows = []
    by_mode: dict[tuple[str, float], list[tuple[float, float, float, float]]] = {}
    failures = []
    for (mode, eps, seed), result in zip(cells, results):
        run_dir = os.path.join(output_dir, "runs", f"{mode}_seed{seed}")
        os.makedirs(run_dir, exist_ok=True)
        # A cell's directory holds this run's files only, not an earlier run's.
        stale = (("checkpoint_best.json", "checkpoint_final.json", "history.csv")
                 if isinstance(result, DivergenceError) else ("divergence.json",))
        for name in stale:
            if os.path.exists(os.path.join(run_dir, name)):
                os.remove(os.path.join(run_dir, name))
        if isinstance(result, DivergenceError):
            failures.append((MODE_LABELS[mode], seed, str(result)))
            rows.append((MODE_LABELS[mode], str(seed), _fmt(eps),
                         "failed", "failed", "failed", "failed"))
            # A diverged loss or norm is nan or inf, which JSON has no number for.
            snapshot = {key: str(v) if isinstance(v, float) and not math.isfinite(v) else v
                        for key, v in result.snapshot.items()}
            _write_json(os.path.join(run_dir, "divergence.json"),
                        {"message": str(result), "snapshot": snapshot}, allow_nan=False)
            continue
        orig = evaluate(result.best, data["test"], weights)
        shift = evaluate(result.best, data["test_shifted"], weights)
        scores = (orig.worst_group_acc, orig.avg_acc_weighted,
                  shift.worst_group_acc, shift.avg_acc_weighted)
        rows.append((MODE_LABELS[mode], str(seed), _fmt(eps), *map(_fmt, scores)))
        by_mode.setdefault((mode, eps), []).append(scores)
        save_params(result.best, os.path.join(run_dir, "checkpoint_best.json"))
        save_params(result.final.theta, os.path.join(run_dir, "checkpoint_final.json"))
        solver.write_history_csv(
            result.history, ds_train.num_groups,
            os.path.join(run_dir, "history.csv"),
            header_comment=f"config_hash={config.hash} mode={mode} seed={seed}",
        )

    for (mode, eps), cell_scores in by_mode.items():
        summary = []
        for values in zip(*cell_scores):
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


def _init_seed(seed: int) -> int:
    """The seed of a run cell's initial parameters, derived from its experiment
    seed, which its minibatch draws use as it is."""
    child = np.random.SeedSequence(seed).spawn(1)[0]
    return int(child.generate_state(1)[0])


# ------------------------------------------------------------------- tune


def cmd_tune(config: ExperimentConfig, output_dir: str) -> str:
    data = _load_datasets(config, ("train",))
    result = tuning.tune_epsilon(data["train"], config.tune)
    payload = {
        "config_hash": config.hash,
        "seeds": list(config.seeds),
        "grid_scale": list(config.tune.grid_scale),
        "grid": list(result.grid),
        "table": [[float(v) for v in row] for row in result.table],
        "aggregation": config.tune.aggregation,
        "chosen_epsilon": result.chosen_epsilon,
        "chosen_scale": result.chosen_scale,
        "minority_group": result.minority_group,
        "n_min": result.n_min,
    }
    path = os.path.join(output_dir, "tune_result.json")
    _write_json(path, payload)
    for line in tuning.diagnostics(result, config.tune):
        print(f"tune: {line}", file=sys.stderr)
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
        _write_json(output_path, report)
    return 0 if report["all_passed"] else 2


# ----------------------------------------------------------------- report


def cmd_report(results_path: str) -> None:
    with open(results_path, "r", encoding="utf-8") as fh:
        lines = [l for l in fh.read().splitlines() if l and not l.startswith("#")]
    if not lines:
        raise ConfigError(f"{results_path} has no header line")
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
                if epsilon is not None:
                    raise ConfigError("give --epsilon or --tuned-epsilon-from, not both")
                try:
                    with open(args.tuned_epsilon_from, "r", encoding="utf-8") as fh:
                        body = json.load(fh)
                    if type(body) is not dict or "chosen_epsilon" not in body:
                        raise ConfigError("the file must hold a JSON object with a numeric "
                                          "chosen_epsilon")
                    epsilon = _read(body["chosen_epsilon"], float, "chosen_epsilon")
                except (OSError, ValueError) as exc:
                    raise ConfigError(f"cannot read tuned epsilon: {exc}") from exc
            if epsilon is not None:
                # Refuse a bad radius scale here, before any data is loaded.
                _build(dataclasses.replace, "--tuned-epsilon-from" if args.tuned_epsilon_from
                       else "--epsilon", config.solver, epsilon=epsilon)
            cmd_run(config, output_dir, hierarchical_epsilon=epsilon)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 3
    except (HierdroError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
