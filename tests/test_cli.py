import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hierdro import cli, model, verification
from hierdro.datagen import ShiftSpec, load_csv
from hierdro.errors import ConfigError


def base_config(tmp_path, **overrides):
    raw = {
        "output_dir": str(tmp_path / "out"),
        "seeds": [0, 1],
        "dataset": {
            "n_per_group_train": [60, 20, 15, 60],
            "n_per_group_val": [20, 20, 20, 20],
            "n_per_group_test": [30, 30, 30, 30],
            "spurious_strength": 0.6,
            "noise_sd": 0.5,
            "label_flip_p": 0.2,
            "seed": 5,
            "shifts": [
                {"target_group": 2, "kind": "rotation",
                 "magnitude": -math.pi / 2, "applies_to": "test"}
            ],
        },
        "solver": {
            "modes": ["erm", "group_dro", "hierarchical"],
            "eta_beta": 0.2,
            "eta_theta": 0.3,
            "epsilon": 0.8,
            "adjustment": 1.0,
            "iterations": 150,
            "batch_size": 8,
            "checkpoint_every": 50,
        },
        "tuning": {"grid_scale": [0.1, 0.2], "warmup_iterations": 40,
                   "iterations": 80},
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_generate_writes_splits_and_manifest(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["generate", "--config", cfg]) == 0
    out = tmp_path / "out"
    for name in ("train", "val", "test", "test_shifted"):
        assert (out / f"{name}.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["seeds"] == [0, 1]
    train = load_csv(out / "train.csv")
    assert list(train.n_g) == [60, 20, 15, 60]


def test_generate_idempotent_bytes(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["generate", "--config", cfg]) == 0
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("train.csv", "test_shifted.csv", "manifest.json")}
    assert cli.main(["generate", "--config", cfg]) == 0
    for name, body in first.items():
        assert (tmp_path / "out" / name).read_bytes() == body


def test_generate_shift_verified_by_manifest_means(tmp_path):
    cfg_raw = base_config(tmp_path)
    cfg = write_config(tmp_path, cfg_raw)
    cli.main(["generate", "--config", cfg])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    plain = np.array(manifest["splits"]["test"]["group_means_01"]["2"])
    shifted = np.array(manifest["splits"]["test_shifted"]["group_means_01"]["2"])
    # -90 degree rotation maps (m0, m1) to (m1, -m0) on the target group.
    np.testing.assert_allclose(shifted, [plain[1], -plain[0]], atol=1e-12)
    untouched = manifest["splits"]["test"]["group_means_01"]["0"]
    np.testing.assert_allclose(
        manifest["splits"]["test_shifted"]["group_means_01"]["0"], untouched)


def test_run_produces_results_table(tmp_path):
    raw = base_config(tmp_path)
    raw["seeds"] = [0, 1, 2]
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    assert cli.main(["run", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == ",".join(cli.RESULTS_COLUMNS)
    rows = [l.split(",") for l in lines[2:]]
    # 3 modes x 3 seeds result rows plus one summary row per mode.
    assert len(rows) == 12
    assert sum(1 for r in rows if r[1] == "summary") == 3
    run_dir = tmp_path / "out" / "runs" / "erm_seed0"
    assert (run_dir / "checkpoint_best.json").exists()
    assert (run_dir / "history.csv").exists()


def test_run_records_diverged_cells_and_continues(tmp_path):
    raw = base_config(tmp_path)
    raw["seeds"] = [0]
    raw["solver"]["modes"] = ["erm"]
    raw["solver"]["eta_theta"] = 1e308  # forces non-finite parameters
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    with np.errstate(all="ignore"):
        assert cli.main(["run", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[2:]]
    assert any("failed" in r for r in rows)
    text = (tmp_path / "out" / "runs" / "erm_seed0" / "divergence.json").read_text()
    record = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert record["message"].startswith("non-finite")
    assert {"iteration", "group", "theta_norm"} <= record["snapshot"].keys()


def test_rerun_into_one_directory_keeps_only_the_last_runs_cell_files(tmp_path):
    raw = base_config(tmp_path)
    raw["seeds"] = [0]
    raw["solver"]["modes"] = ["erm"]
    run_dir = tmp_path / "out" / "runs" / "erm_seed0"
    cell_files = lambda: sorted(p.name for p in run_dir.iterdir())
    written = ["checkpoint_best.json", "checkpoint_final.json", "history.csv"]
    for eta_theta, want in ((1e308, ["divergence.json"]), (0.5, written), (1e308, ["divergence.json"])):
        raw["solver"]["eta_theta"] = eta_theta
        cfg = write_config(tmp_path, raw)
        cli.main(["generate", "--config", cfg])
        with np.errstate(all="ignore"):
            assert cli.main(["run", "--config", cfg]) == 0
        assert cell_files() == want


def test_one_diverged_cell_leaves_the_other_cells_as_their_solo_runs(tmp_path, monkeypatch):
    """Force one row of the lockstep run to diverge; every other cell's
    artifacts equal those of a run of that cell alone."""
    raw = base_config(tmp_path)
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    train_lockstep = cli.solver.train_lockstep

    def one_row_diverges(ds_train, ds_val, inits, configs):
        configs = list(configs)
        k = next(i for i, c in enumerate(configs) if c.mode == "group_dro" and c.seed == 1)
        configs[k] = dataclasses.replace(configs[k], eta_theta=1e308)
        return train_lockstep(ds_train, ds_val, inits, configs)

    monkeypatch.setattr(cli.solver, "train_lockstep", one_row_diverges)
    with np.errstate(all="ignore"):
        assert cli.main(["run", "--config", cfg]) == 0
    monkeypatch.undo()
    out = tmp_path / "out"
    failed = out / "runs" / "group_dro_seed1"
    assert (failed / "divergence.json").exists()
    assert not (failed / "checkpoint_best.json").exists()
    rows = [l.split(",") for l in (out / "results.csv").read_text().splitlines()[2:]]
    assert [r[:2] for r in rows if "failed" in r] == [["GroupDRO", "1"]]

    for mode in raw["solver"]["modes"]:
        for seed in raw["seeds"]:
            if (mode, seed) == ("group_dro", 1):
                continue
            solo_raw = base_config(tmp_path, seeds=[seed], output_dir=str(tmp_path / "solo"))
            solo_raw["solver"]["modes"] = [mode]
            solo_cfg = write_config(tmp_path, solo_raw, "solo.json")
            cli.main(["generate", "--config", solo_cfg])
            assert cli.main(["run", "--config", solo_cfg]) == 0
            cell = f"runs/{mode}_seed{seed}"
            for name in ("checkpoint_best.json", "checkpoint_final.json"):
                assert (out / cell / name).read_bytes() == (tmp_path / "solo" / cell / name).read_bytes()
            history = lambda path: path.read_text().splitlines()[1:]   # line 0 names the config hash
            assert history(out / cell / "history.csv") == history(tmp_path / "solo" / cell / "history.csv")
            solo_rows = [l.split(",") for l in (tmp_path / "solo" / "results.csv").read_text().splitlines()[2:]]
            assert solo_rows[0] in rows


@pytest.mark.parametrize("key,raw_value", [
    ("modes", ["erm", "hierarchical", "erm"]),
    ("seeds", [0, 1, 0]),
])
def test_repeated_run_cells_are_refused(tmp_path, capsys, key, raw_value):
    raw = base_config(tmp_path)
    if key == "modes":
        raw["solver"]["modes"] = raw_value
    else:
        raw["seeds"] = raw_value
    assert_refused(tmp_path, capsys, raw, "solver.modes" if key == "modes" else "seeds")


@pytest.mark.parametrize("grid_scale", [[], [-0.1], [0.1, float("inf")], [float("nan")]])
def test_bad_grid_scale_is_refused_at_load(tmp_path, capsys, grid_scale):
    raw = base_config(tmp_path)
    raw["tuning"]["grid_scale"] = grid_scale
    assert_refused(tmp_path, capsys, raw, "tuning.grid_scale")


def test_run_group_dro_matches_hierarchical_zero_eps(tmp_path):
    raw = base_config(tmp_path)
    raw["solver"]["epsilon"] = 0.0
    raw["solver"]["modes"] = ["group_dro", "hierarchical"]
    raw["seeds"] = [3]
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    cli.main(["run", "--config", cfg])
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    cells = [l.split(",") for l in lines[2:] if l.split(",")[1] == "3"]
    dro = next(c for c in cells if c[0] == "GroupDRO")
    hier = next(c for c in cells if c[0] == "Hierarchical")
    assert dro[3:] == hier[3:]


def test_run_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    cli.main(["generate", "--config", cfg])
    cli.main(["run", "--config", cfg])
    first = (tmp_path / "out" / "results.csv").read_bytes()
    cli.main(["run", "--config", cfg])
    assert (tmp_path / "out" / "results.csv").read_bytes() == first


def test_tune_writes_table_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    cli.main(["generate", "--config", cfg])
    assert cli.main(["tune", "--config", cfg]) == 0
    payload = json.loads((tmp_path / "out" / "tune_result.json").read_text())
    assert len(payload["table"]) == 2 and len(payload["table"][0]) == 2
    assert payload["chosen_epsilon"] in payload["grid"]
    assert payload["n_min"] == 15
    first = (tmp_path / "out" / "tune_result.json").read_bytes()
    cli.main(["tune", "--config", cfg])
    assert (tmp_path / "out" / "tune_result.json").read_bytes() == first


def test_tune_single_candidate_passthrough(tmp_path):
    raw = base_config(tmp_path)
    raw["tuning"]["grid_scale"] = [0.15]
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    cli.main(["tune", "--config", cfg])
    payload = json.loads((tmp_path / "out" / "tune_result.json").read_text())
    assert payload["chosen_scale"] == 0.15
    assert payload["chosen_epsilon"] == pytest.approx(0.15 * math.sqrt(15))


def test_run_accepts_tuned_epsilon(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    cli.main(["generate", "--config", cfg])
    cli.main(["tune", "--config", cfg])
    tune_path = str(tmp_path / "out" / "tune_result.json")
    assert cli.main(["run", "--config", cfg, "--tuned-epsilon-from", tune_path]) == 0
    chosen = json.loads(open(tune_path).read())["chosen_epsilon"]
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    hier_rows = [l.split(",") for l in lines[2:] if l.startswith("Hierarchical")]
    assert all(float(r[2]) == pytest.approx(chosen) for r in hier_rows)


def test_default_tuning_grid_in_config(tmp_path):
    raw = base_config(tmp_path)
    del raw["tuning"]["grid_scale"]
    cfg_obj = cli.validate_config(raw)
    assert cfg_obj.grid_scale == tuple(
        k / 255 for k in (12, 24, 36, 48, 60, 72, 84, 96))


def test_bad_config_exit_code(tmp_path):
    raw = base_config(tmp_path)
    del raw["solver"]["eta_beta"]
    cfg = write_config(tmp_path, raw)
    assert cli.main(["run", "--config", cfg]) == 1
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        cli.validate_config({"seeds": [], "output_dir": "x"})
    with pytest.raises(ConfigError):
        cli.validate_config({"seeds": [1], "output_dir": "x", "dataset": {},
                             "solver": {}})


@pytest.mark.parametrize("block", [None, "dataset", "solver", "ambiguity", "tuning",
                                   "evaluation", "shift"])
def test_unknown_config_key_is_an_error(tmp_path, block):
    raw = base_config(tmp_path, ambiguity={}, evaluation={})
    if block is None:
        target = raw
    elif block == "shift":
        target = raw["dataset"]["shifts"][0]
    else:
        target = raw[block]
    target["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        cli.validate_config(raw)
    assert cli.main(["generate", "--config", write_config(tmp_path, raw)]) == 1


# Every key the config reader accepts, as (block, key, JSON type).  "" is the
# top level, "shift" an entry of dataset.shifts and "csv" the dataset.csv block.
CONFIG_KEYS = [
    ("", "output_dir", "string"), ("", "seeds", "int list"), ("", "dataset", "object"),
    ("", "solver", "object"), ("", "ambiguity", "object"), ("", "tuning", "object"),
    ("", "evaluation", "object"),
    ("dataset", "n_per_group_train", "int list"), ("dataset", "n_per_group_val", "int list"),
    ("dataset", "n_per_group_test", "int list"), ("dataset", "spurious_strength", "number"),
    ("dataset", "noise_sd", "number"), ("dataset", "label_flip_p", "number"),
    ("dataset", "seed", "int"), ("dataset", "shifts", "object list"),
    ("dataset", "csv", "object"),
    ("shift", "target_group", "int"), ("shift", "kind", "string"),
    ("shift", "magnitude", "number"), ("shift", "applies_to", "string"),
    ("csv", "train", "string"), ("csv", "val", "string"), ("csv", "test", "string"),
    ("csv", "test_shifted", "string"),
    ("solver", "modes", "string list"), ("solver", "eta_beta", "number"),
    ("solver", "eta_theta", "number"), ("solver", "epsilon", "number"),
    ("solver", "adjustment", "number"), ("solver", "iterations", "int"),
    ("solver", "batch_size", "int"), ("solver", "sampling", "string"),
    ("solver", "checkpoint_every", "int"), ("solver", "decay_steps", "bool"),
    ("solver", "backprop_through_feature", "bool"), ("solver", "architecture", "string"),
    ("solver", "hidden_width", "int"),
    ("ambiguity", "inner_steps", "int"), ("ambiguity", "eta_z", "number"),
    ("tuning", "grid_scale", "number list"), ("tuning", "aggregation", "string"),
    ("tuning", "order_on", "string"), ("tuning", "warmup_iterations", "int"),
    ("tuning", "iterations", "int"),
]
WRONG_TYPE = {"string": 5, "int": "7", "number": "x", "bool": "no", "object": [],
              "int list": ["a"], "number list": ["ab"], "string list": [1],
              "object list": ["x"]}


def config_with(tmp_path, block, key, value):
    """The base config, with an ``ambiguity``, ``evaluation`` and ``csv`` block,
    and ``block.key`` set to ``value``; also its error name for the key."""
    raw = base_config(tmp_path, ambiguity={}, evaluation={})
    raw["dataset"]["csv"] = {}
    for split in ("train", "val", "test", "test_shifted"):
        (tmp_path / f"{split}.csv").write_text("")
        raw["dataset"]["csv"][split] = str(tmp_path / f"{split}.csv")
    target, name = {
        "": (raw, key),
        "shift": (raw["dataset"]["shifts"][0], f"dataset.shifts[0].{key}"),
        "csv": (raw["dataset"]["csv"], f"dataset.csv.{key}"),
    }.get(block, (raw.get(block), f"{block}.{key}"))
    target[key] = value
    return raw, name


def assert_refused(tmp_path, capsys, raw, name):
    """``raw`` is a ConfigError naming ``name``, and generate exits 1 with one
    ``error:`` line and no traceback."""
    with pytest.raises(ConfigError, match=re.escape(name)):
        cli.validate_config(raw)
    capsys.readouterr()
    assert cli.main(["generate", "--config", write_config(tmp_path, raw, "bad.json")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and name in err
    assert "Traceback" not in err


def test_config_keys_are_the_keys_the_reader_accepts():
    fields = lambda cls: [f.name for f in dataclasses.fields(cls)]
    accepted = {("", key) for key in cli.CONFIG_KEYS}
    for block, keys in (("dataset", fields(cli.DatasetBlock)), ("shift", fields(ShiftSpec)),
                        ("csv", fields(cli.CsvFiles)), ("solver", cli.SOLVER_KEYS),
                        ("ambiguity", cli.AMBIGUITY_KEYS), ("tuning", cli.TUNING_KEYS)):
        accepted |= {(block, key) for key in keys}
    assert {(block, key) for block, key, _ in CONFIG_KEYS} == accepted
    assert sum(block != "" or key in ("output_dir", "seeds") for block, key, _ in CONFIG_KEYS) == 39


@pytest.mark.parametrize("block,key,kind", CONFIG_KEYS,
                         ids=[f"{b or 'config'}.{k}" for b, k, _ in CONFIG_KEYS])
def test_every_config_key_refuses_a_wrong_type(tmp_path, capsys, block, key, kind):
    assert_refused(tmp_path, capsys, *config_with(tmp_path, block, key, WRONG_TYPE[kind]))
    if kind in ("int", "int list"):
        for value in (True, 1.5):
            raw, name = config_with(tmp_path, block, key, [value] if kind == "int list" else value)
            assert_refused(tmp_path, capsys, raw, name)


@pytest.mark.parametrize("block,key,value", [
    ("solver", "epsilon", "x"),
    ("solver", "decay_steps", "no"),
    ("solver", "checkpoint_every", 1.5),
    ("solver", "hidden_width", "8"),
    ("solver", "iterations", True),
    ("tuning", "iterations", "20"),
    ("tuning", "grid_scale", "ab"),
    ("dataset", "n_per_group_train", ["a", 20, 15, 60]),
    ("tuning", "aggregation", "median"),
])
def test_config_values_that_used_to_pass_or_crash(tmp_path, capsys, block, key, value):
    raw = base_config(tmp_path)
    raw[block][key] = value
    name = "tuning: aggregation" if value == "median" else f"{block}.{key}"
    assert_refused(tmp_path, capsys, raw, name)


def test_integer_for_a_float_key_writes_the_same_data(tmp_path):
    bodies = []
    for noise_sd in (1, 1.0):
        raw = base_config(tmp_path, output_dir=str(tmp_path / f"out{noise_sd!r}"))
        raw["dataset"]["noise_sd"] = noise_sd
        assert cli.main(["generate", "--config", write_config(tmp_path, raw)]) == 0
        out = tmp_path / f"out{noise_sd!r}"
        manifest = json.loads((out / "manifest.json").read_text())
        # config_hash hashes the JSON as written, where 1 and 1.0 differ.
        del manifest["config_hash"]
        bodies.append((manifest, (out / "train.csv").read_bytes()))
    assert bodies[0] == bodies[1]
    assert bodies[0][0]["generator"]["noise_sd"] == 1.0


def test_run_refuses_two_radius_flags_and_a_bad_tune_result(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path))
    tune_path = tmp_path / "tune_result.json"
    tune_path.write_text(json.dumps({"chosen_epsilon": 0.5}))
    capsys.readouterr()
    assert cli.main(["run", "--config", cfg, "--epsilon", "0.5",
                     "--tuned-epsilon-from", str(tune_path)]) == 1
    err = capsys.readouterr().err
    assert "--epsilon" in err and "--tuned-epsilon-from" in err
    for body in ([0.5], "0.5", None, {"chosen_epsilon": None}):
        tune_path.write_text(json.dumps(body))
        assert cli.main(["run", "--config", cfg, "--tuned-epsilon-from", str(tune_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read tuned epsilon") and "Traceback" not in err


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_radius_or_step_is_refused_at_load(tmp_path, capsys, value):
    # Each of these used to train the hierarchical rows bitwise as group DRO.
    raw = base_config(tmp_path)
    raw["solver"]["epsilon"] = value
    assert_refused(tmp_path, capsys, raw, "solver: epsilon must be finite")
    for key in ("eta_beta", "eta_theta", "adjustment"):
        raw = base_config(tmp_path)
        raw["solver"][key] = value
        assert_refused(tmp_path, capsys, raw, f"solver: {key} must be finite")
    raw = base_config(tmp_path, ambiguity={"eta_z": value})
    assert_refused(tmp_path, capsys, raw, "ambiguity: eta_z must be finite")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_refuses_a_non_finite_epsilon_before_training(tmp_path, capsys, value):
    cfg = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["generate", "--config", cfg]) == 0
    tune_path = tmp_path / "tune_result.json"
    tune_path.write_text(json.dumps({"chosen_epsilon": float(value)}))
    capsys.readouterr()
    for flags in (["--epsilon", value], ["--tuned-epsilon-from", str(tune_path)]):
        assert cli.main(["run", "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flags[0]}: epsilon")
        assert not (tmp_path / "out" / "runs").exists()
        assert not (tmp_path / "out" / "results.csv").exists()


def test_ambiguity_block_sets_the_latent_ascent(tmp_path):
    raw = base_config(tmp_path, ambiguity={"inner_steps": 5, "eta_z": 123})
    config = cli.validate_config(raw)
    for run_cfg in (config.solver, config.tune.solver):
        assert (run_cfg.inner_steps, run_cfg.eta_z) == (5, 123)
    for bad in ({"inner_steps": 0}, {"inner_steps": "x"}, {"eta_z": 0}, {"eta_z": "fast"}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            cli.validate_config(base_config(tmp_path, ambiguity=bad))
    raw = base_config(tmp_path)
    raw["solver"]["inner_steps"] = 5
    with pytest.raises(ConfigError, match="inner_steps"):
        cli.validate_config(raw)


def test_shipped_benchmark_config_validates():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = cli.load_config(os.path.join(root, "configs", "benchmark.json"))
    assert config.solver.inner_steps == 1 and config.solver.eta_z is None


def test_stale_data_in_output_dir_is_an_error(tmp_path):
    raw = base_config(tmp_path)
    raw["dataset"]["seed"] = 100
    cfg = write_config(tmp_path, raw)
    assert cli.main(["generate", "--config", cfg]) == 0
    other = base_config(tmp_path)
    other["dataset"]["seed"] = 101
    assert cli.main(["tune", "--config", write_config(tmp_path, other, "other.json")]) == 1
    with pytest.raises(ConfigError, match="generator.seed"):
        cli._load_datasets(cli.validate_config(other), str(tmp_path / "out"))
    assert cli.main(["tune", "--config", cfg]) == 0
    (tmp_path / "out" / "manifest.json").unlink()
    assert cli.main(["run", "--config", cfg]) == 1


def test_invalid_shift_in_config(tmp_path):
    raw = base_config(tmp_path)
    raw["dataset"]["shifts"] = [{"target_group": 0, "kind": "rotation", "magnitude": 9.0}]
    cfg = write_config(tmp_path, raw)
    assert cli.main(["generate", "--config", cfg]) == 1


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    raw = base_config(tmp_path)
    raw["output_dir"] = "nested/exp"
    cfg = write_config(tmp_path, raw)
    assert cli.main(["generate", "--config", cfg]) == 0
    assert (tmp_path / "root" / "nested" / "exp" / "train.csv").exists()


def test_report_prints_table(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path))
    cli.main(["generate", "--config", cfg])
    cli.main(["run", "--config", cfg])
    assert cli.main(["report", "--results", str(tmp_path / "out" / "results.csv")]) == 0
    captured = capsys.readouterr().out
    assert "method" in captured and "Hierarchical" in captured
    assert cli.main(["report", "--results", str(tmp_path / "missing.csv")]) == 1


@pytest.mark.parametrize("body", ["", "# config_hash=x\n#\n"])
def test_report_refuses_a_file_without_a_header(tmp_path, capsys, body):
    path = tmp_path / "results.csv"
    path.write_text(body)
    with pytest.raises(ConfigError, match="no header line"):
        cli.cmd_report(str(path))
    capsys.readouterr()
    assert cli.main(["report", "--results", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "Traceback" not in err


def test_verify_fast_passes(tmp_path, capsys):
    out = str(tmp_path / "verify.json")
    assert cli.main(["verify", "--level", "fast", "--output", out]) == 0
    report = json.loads(open(out).read())
    assert report["all_passed"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "gradient_finite_differences", "inner_maximization_exact",
        "wasserstein_metric_axioms"}
    printed = capsys.readouterr().out
    assert printed.count("PASS") == len(report["checks"])


def test_verify_detects_sign_flip_mutation(monkeypatch):
    # Deliberate fault injection: a sign-flipped latent gradient must fail
    # the finite-difference check.
    original = model.grad_wrt_latent
    monkeypatch.setattr(model, "grad_wrt_latent", lambda *a, **k: -original(*a, **k))
    result = verification.check_gradients(n_cases=10)
    assert not result.passed


def test_verify_exit_code_on_failure(monkeypatch):
    original = model.grad_wrt_latent
    monkeypatch.setattr(model, "grad_wrt_latent", lambda *a, **k: -original(*a, **k))
    monkeypatch.setattr(verification, "FAST_CHECKS",
                        (lambda: verification.check_gradients(n_cases=5),))
    assert cli.main(["verify", "--level", "fast"]) == 2


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hierdro", "verify", "--level", "fast"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
