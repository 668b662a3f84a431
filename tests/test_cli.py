import dataclasses
import filecmp
import glob
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hierdro import ambiguity as amb
from hierdro import cli, datagen, model, verification
from hierdro.datagen import ShiftSpec, load_csv, save_csv
from hierdro.errors import ConfigError
from hierdro.evaluation import evaluate


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


def csv_config(tmp_path, files, **overrides):
    """The base config reading its splits from ``files``, split name -> path,
    through a ``dataset.csv`` block, and without the ``shifts`` that no
    command applies to files."""
    raw = base_config(tmp_path, **overrides)
    del raw["dataset"]["shifts"]
    raw["dataset"]["csv"] = {split: str(path) for split, path in files.items()}
    return raw


def empty_files(tmp_path, splits=("train", "val", "test")):
    """An empty file for each split, by name: enough for a ``dataset.csv``
    block to load."""
    files = {split: tmp_path / f"{split}.csv" for split in splits}
    for path in files.values():
        path.write_text("")
    return files


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


def test_generate_that_fails_part_way_leaves_no_manifest(tmp_path, monkeypatch):
    """A ``generate`` whose second file fails to write removes the earlier
    run's manifest, whose digests no longer match the files beside it."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["generate", "--config", cfg]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    calls = []
    real_save_csv = datagen.save_csv

    def failing_save_csv(ds, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        real_save_csv(ds, path)

    monkeypatch.setattr(datagen, "save_csv", failing_save_csv)
    assert cli.main(["generate", "--config", cfg]) == 1
    assert len(calls) == 2
    assert not (tmp_path / "out" / "manifest.json").exists()


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

    # A train-side shift moves the training split that every command reads,
    # and leaves test_shifted equal to test.
    spec = {"target_group": 1, "kind": "offset", "magnitude": 1.5, "applies_to": "train"}
    cfg_raw["dataset"]["shifts"] = [spec]
    cfg = write_config(tmp_path, cfg_raw)
    config = cli.load_config(cfg)
    block = config.dataset
    plain = datagen.make_spurious(block.n_per_group_train, block.spurious_strength,
                                  block.noise_sd, block.label_flip_p, seed=block.seed)
    splits = cli._load_datasets(config)
    assert splits["train"] == datagen.apply_shift(plain, ShiftSpec(**spec)) != plain
    assert splits["test_shifted"] == splits["test"]
    cli.main(["generate", "--config", cfg])
    shifted = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert shifted["shifts"] == [spec]
    np.testing.assert_allclose(shifted["splits"]["train"]["group_means_01"]["1"],
                               np.add(manifest["splits"]["train"]["group_means_01"]["1"],
                                      [0.0, 1.5]), atol=1e-12)
    assert shifted["splits"]["test_shifted"] == {**shifted["splits"]["test"],
                                                 "file": "test_shifted.csv"}


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
    """Force one row of the lockstep run to diverge through its initial
    model, infinite output weights; every other cell's artifacts equal
    those of a run of that cell alone."""
    raw = base_config(tmp_path)
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    train_lockstep = cli.solver.train_lockstep

    def one_row_diverges(ds_train, ds_val, inits, configs):
        inits = list(inits)
        k = next(i for i, c in enumerate(configs) if c.mode == "group_dro" and c.seed == 1)
        inits[k] = dataclasses.replace(inits[k], w_out=np.full_like(inits[k].w_out, np.inf))
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


@pytest.mark.parametrize("grid_scale", [[], [-0.1], [0.1, float("inf")], [float("nan")],
                                        [1e308], [-0.0], [0.1, 0.1]])
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


def test_tune_explains_its_choice_on_stderr_only(tmp_path, capsys):
    """``tune`` gives the minority holdout sizes on stderr, says when the chosen
    scale is the grid's largest or ties it and when a setup's column is
    constant, and writes ``tune_result.json`` with the same keys as before it
    said anything."""
    raw = base_config(tmp_path)
    raw["tuning"]["grid_scale"] = [0.1, 0.2, 0.3]
    cfg = write_config(tmp_path, raw)
    cli.main(["generate", "--config", cfg])
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg]) == 0
    err = capsys.readouterr().err
    payload = json.loads((tmp_path / "out" / "tune_result.json").read_text())
    lines = [line for line in err.splitlines() if line.startswith("tune: ")]
    assert lines[0] == ("tune: minority group 2 (15 training rows) holds out 3 rows in setup A "
                        "and 3 in setup B, so its holdout accuracies move in steps of 1/3 and 1/3")
    rows = payload["table"]
    top = payload["chosen_scale"] == 0.3 or rows[2] == rows[[0.1, 0.2, 0.3].index(
        payload["chosen_scale"])]
    assert any("a wider grid may choose" in line for line in lines) == top
    for j, name in enumerate("AB"):
        column = {row[j] for row in payload["table"]}
        assert any(line.startswith(f"tune: setup {name} gives every candidate")
                   for line in lines) == (len(column) == 1)
    assert len(lines) == 1 + top + sum(len({row[j] for row in payload["table"]}) == 1
                                        for j in range(2))
    assert sorted(payload) == ["aggregation", "chosen_epsilon", "chosen_scale", "config_hash",
                               "grid", "grid_scale", "minority_group", "n_min", "seeds", "table"]


def test_tune_reads_only_the_training_split(tmp_path, capsys):
    """A csv dataset: tune never parses the other splits, run does."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    cli.main(["generate", "--config", cfg])
    for split in ("val", "test"):
        (tmp_path / f"{split}.csv").write_text("not,a,dataset\n")
    raw = csv_config(tmp_path, {"train": out / "train.csv", "val": tmp_path / "val.csv",
                                "test": tmp_path / "test.csv"},
                     output_dir=str(tmp_path / "csv_out"))
    cfg = write_config(tmp_path, raw, "csv.json")
    assert cli.main(["tune", "--config", cfg]) == 0
    assert cli.main(["run", "--config", cfg]) == 1
    assert "bad header" in capsys.readouterr().err


def test_tune_generates_only_the_training_split(tmp_path, monkeypatch):
    """Without ``dataset.csv`` files, ``tune`` draws one split, the training
    one, with its train-side shift; every split is bitwise the same whichever
    others are generated beside it."""
    raw = base_config(tmp_path)
    raw["dataset"]["shifts"].append(
        {"target_group": 1, "kind": "offset", "magnitude": 1.5, "applies_to": "train"})
    cfg = write_config(tmp_path, raw)
    config = cli.load_config(cfg)
    every = cli._generate_datasets(config)
    assert every["test_shifted"] != every["test"]
    for splits in (("train",), ("val",), ("test_shifted",), ("test", "train")):
        assert cli._generate_datasets(config, splits) == {name: every[name] for name in splits}
    seeds = []
    make_spurious = datagen.make_spurious

    def spy(*args, seed, **kwargs):
        seeds.append(seed)
        return make_spurious(*args, seed=seed, **kwargs)

    monkeypatch.setattr(datagen, "make_spurious", spy)
    assert cli.main(["tune", "--config", cfg]) == 0
    assert seeds == [config.dataset.seed]


def test_csv_splits_take_the_training_splits_groups(tmp_path, capsys):
    """A val.csv with no y = 1 row still has the training split's four groups;
    the two absent ones are left out of the validation accuracy."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    cli.main(["generate", "--config", cfg])
    val = load_csv(out / "val.csv")
    save_csv(val.subset(np.flatnonzero(val.labels == 0)), tmp_path / "val_y0.csv")
    assert load_csv(tmp_path / "val_y0.csv").num_groups == 2
    raw = csv_config(tmp_path, {"train": out / "train.csv", "val": tmp_path / "val_y0.csv",
                                "test": out / "test.csv"}, output_dir=str(tmp_path / "csv_out"))
    cfg = write_config(tmp_path, raw, "csv.json")
    assert cli.main(["run", "--config", cfg]) == 0, capsys.readouterr().err
    data = cli._load_datasets(cli.load_config(cfg))
    assert [ds.num_groups for ds in data.values()] == [4, 4, 4, 4]
    np.testing.assert_array_equal(data["val"].n_g, [20, 20, 0, 0])
    theta = model.init_params(model.ModelSpec(), data["train"].d, 2, seed=0)
    acc = evaluate(theta, data["val"], data["train"].alpha).per_group_acc
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(acc)), [2, 3])


def test_tune_refuses_a_scale_that_overflows_on_the_csv_training_groups(tmp_path, capsys,
                                                                       monkeypatch):
    """The load-time overflow check reads ``n_per_group_train``, which a
    ``dataset.csv`` block overrides; tune refuses the scale on the file's
    smallest group (15 rows) before any training, naming ``grid_scale``."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    cli.main(["generate", "--config", cfg])
    raw = csv_config(tmp_path, {split: out / f"{split}.csv" for split in ("train", "val", "test")},
                     output_dir=str(tmp_path / "csv_out"))
    raw["dataset"]["n_per_group_train"] = [1, 1, 1, 1]
    raw["tuning"]["grid_scale"] = [1e308]
    cfg = write_config(tmp_path, raw, "csv.json")
    for name in ("train", "train_lockstep"):
        monkeypatch.setattr(cli.tuning.solver, name, lambda *a, **k: pytest.fail("trained"))
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid_scale: scale 1e+308 times sqrt(15)"), err


@pytest.mark.parametrize("architecture,scale", [
    pytest.param("linear", 0.0, id="linear"), pytest.param("mlp1", 0.0, id="mlp1"),
    pytest.param("linear", 1e160, id="linear-overflow")])
def test_tune_refuses_constant_training_features(tmp_path, capsys, architecture, scale):
    """A ``dataset.csv`` training file whose features are all 0.1 gives no
    ordering to split on: tune exits 1 with one ``error:`` line, which for
    ``mlp1``, ordering on its warm-up latents, names ``order_on: "raw"``.
    Features scaled by 1e160, whose scatter matrix overflows, give none
    either, and the line says that they overflow."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    cli.main(["generate", "--config", cfg])
    train = load_csv(out / "train.csv")
    features = train.features * scale if scale else np.full_like(train.features, 0.1)
    save_csv(dataclasses.replace(train, features=features), tmp_path / "constant.csv")
    raw = csv_config(tmp_path, {"train": tmp_path / "constant.csv", "val": out / "val.csv",
                                "test": out / "test.csv"}, output_dir=str(tmp_path / "csv_out"))
    raw["solver"]["architecture"] = architecture
    cfg = write_config(tmp_path, raw, "csv.json")
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert ("overflow" if scale else "constant") in lines[0], lines
    assert ('tuning.order_on: "raw"' in lines[0]) == (architecture == "mlp1")


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


def test_seeds_are_exact_integers_beyond_int64(tmp_path):
    """``tune`` and ``run --tuned-epsilon-from`` train seed ``2**64`` as that
    integer: the result rows and the run directories print it in full, and
    its runs are not those of seed 0, where an int64 or uint64 wraps it."""
    raw = base_config(tmp_path, seeds=[2**64, 3])
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert cli.main(["generate", "--config", cfg]) == 0
    assert cli.main(["tune", "--config", cfg]) == 0
    assert json.loads((out / "tune_result.json").read_text())["seeds"] == [2**64, 3]
    assert cli.main(["run", "--config", cfg,
                     "--tuned-epsilon-from", str(out / "tune_result.json")]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0].endswith(f"seeds=[{2**64}, 3]")
    rows = [line.split(",") for line in lines[2:] if ",summary," not in line]
    assert [row[1] for row in rows] == [str(2**64), "3"] * 3

    zero = base_config(tmp_path, seeds=[0], output_dir=str(tmp_path / "zero"))
    zero_cfg = write_config(tmp_path, zero, "zero.json")
    assert cli.main(["generate", "--config", zero_cfg]) == 0
    assert cli.main(["run", "--config", zero_cfg]) == 0
    for mode in ("erm", "group_dro"):
        big = (out / "runs" / f"{mode}_seed{2**64}" / "history.csv").read_text()
        wrapped = (tmp_path / "zero" / "runs" / f"{mode}_seed0" / "history.csv").read_text()
        assert big.splitlines()[1:] != wrapped.splitlines()[1:]


def test_default_tuning_grid_in_config(tmp_path):
    raw = base_config(tmp_path)
    del raw["tuning"]["grid_scale"]
    cfg_obj = cli.validate_config(raw)
    assert cfg_obj.tune.grid_scale == tuple(
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


@pytest.mark.parametrize("block,key", [
    *(pytest.param(block, "bogus", id=str(block)) for block in
      (None, "dataset", "solver", "ambiguity", "tuning", "evaluation", "shift")),
    # A removed key is refused, not silently ignored.
    pytest.param("solver", "backprop_through_feature", id="solver-removed"),
    pytest.param("ambiguity", "inner_steps", id="ambiguity-removed-inner_steps"),
    pytest.param("ambiguity", "eta_z", id="ambiguity-removed-eta_z"),
    # A key in the wrong block is refused too.
    pytest.param("solver", "inner_steps", id="solver-misplaced"),
])
def test_unknown_config_key_is_an_error(tmp_path, block, key):
    raw = base_config(tmp_path, ambiguity={}, evaluation={})
    if block is None:
        target = raw
    elif block == "shift":
        target = raw["dataset"]["shifts"][0]
    else:
        target = raw[block]
    target[key] = 1
    with pytest.raises(ConfigError, match=key):
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
    ("solver", "architecture", "string"),
    ("solver", "hidden_width", "int"),
    ("tuning", "grid_scale", "number list"), ("tuning", "aggregation", "string"),
    ("tuning", "order_on", "string"), ("tuning", "warmup_iterations", "int"),
    ("tuning", "iterations", "int"),
]
WRONG_TYPE = {"string": 5, "int": "7", "number": "x", "bool": "no", "object": [],
              "int list": ["a"], "number list": ["ab"], "string list": [1],
              "object list": ["x"]}


def config_with(tmp_path, block, key, value):
    """The base config, with an ``ambiguity`` and ``evaluation`` block and,
    unless ``block`` is a shift, a ``csv`` block in place of the shifts, and
    ``block.key`` set to ``value``; also its error name for the key."""
    if block == "shift":
        raw = base_config(tmp_path, ambiguity={}, evaluation={})
        target, name = raw["dataset"]["shifts"][0], f"dataset.shifts[0].{key}"
    else:
        files = empty_files(tmp_path, ("train", "val", "test", "test_shifted"))
        raw = csv_config(tmp_path, files, ambiguity={}, evaluation={})
        target, name = {
            "": (raw, key),
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
                        ("tuning", cli.TUNING_KEYS)):
        accepted |= {(block, key) for key in keys}
    assert {(block, key) for block, key, _ in CONFIG_KEYS} == accepted
    assert sum(block != "" or key in ("output_dir", "seeds") for block, key, _ in CONFIG_KEYS) == 36


@pytest.mark.parametrize("block,key,kind", CONFIG_KEYS,
                         ids=[f"{b or 'config'}.{k}" for b, k, _ in CONFIG_KEYS])
def test_every_config_key_refuses_a_wrong_type(tmp_path, capsys, block, key, kind):
    assert_refused(tmp_path, capsys, *config_with(tmp_path, block, key, WRONG_TYPE[kind]))
    listed = kind.endswith(" list")
    # A float key takes an integer, but not one beyond the float range.
    values = {"int": (True, 1.5), "int list": (True, 1.5),
              "number": (10 ** 400,), "number list": (10 ** 400,)}
    for value in values.get(kind, ()):
        raw, name = config_with(tmp_path, block, key, [value] if listed else value)
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
    # Read only for mlp1, so a linear config would accept it silently.
    ("tuning", "warmup_iterations", -5),
])
def test_config_values_that_used_to_pass_or_crash(tmp_path, capsys, block, key, value):
    raw = base_config(tmp_path)
    raw[block][key] = value
    name = f"tuning: {key}" if key in ("aggregation", "warmup_iterations") else f"{block}.{key}"
    assert_refused(tmp_path, capsys, raw, name)


@pytest.mark.parametrize("value,iterations", [(0, 0), (None, 150), ("absent", 150)])
def test_tuning_iterations_fall_back_only_when_unset(tmp_path, value, iterations):
    """``tuning.iterations: 0`` trains 0 steps; only null or an absent key
    takes the solver's 150."""
    raw = base_config(tmp_path)
    if value == "absent":
        del raw["tuning"]["iterations"]
    else:
        raw["tuning"]["iterations"] = value
    assert cli.validate_config(raw).tune.solver.iterations == iterations


def test_a_missing_shifted_test_file_is_refused_at_load(tmp_path, capsys):
    cfg = write_config(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    cli.main(["generate", "--config", cfg])
    files = {split: out / f"{split}.csv" for split in ("train", "val", "test")}
    raw = csv_config(tmp_path, {**files, "test_shifted": tmp_path / "missing.csv"},
                     output_dir=str(tmp_path / "csv_out"))
    assert_refused(tmp_path, capsys, raw, "dataset.csv: file not found")
    assert cli.main(["tune", "--config", write_config(tmp_path, raw, "csv.json")]) == 1


@pytest.mark.parametrize("key,value", [
    ("noise_sd", math.nan), ("noise_sd", -3.0), ("spurious_strength", 7.0),
    ("label_flip_p", 1.0), ("n_per_group_val", [1, 2]), ("n_per_group_test", [5, 0, 5, 5]),
])
@pytest.mark.parametrize("files", [False, True], ids=["generated", "csv"])
def test_generator_keys_are_checked_at_load(tmp_path, capsys, key, value, files):
    """``make_spurious``'s rules hold for the ``dataset`` block when the
    config loads, also beside a ``dataset.csv`` block, where no command
    generates a split: generate and tune each print one ``error:`` line
    that names ``dataset.<key>``."""
    raw = csv_config(tmp_path, empty_files(tmp_path)) if files else base_config(tmp_path)
    raw["dataset"][key] = value
    assert_refused(tmp_path, capsys, raw, f"dataset.{key}: ")
    assert cli.main(["tune", "--config", write_config(tmp_path, raw)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: dataset.{key}: "), err


@pytest.mark.parametrize("applies_to", ["test", "train"])
def test_shifts_beside_csv_files_are_refused_at_load(tmp_path, capsys, applies_to):
    """No command shifts a split it reads from a file, so a shift beside a
    ``dataset.csv`` block, which would be ignored, is refused."""
    raw = csv_config(tmp_path, empty_files(tmp_path))
    raw["dataset"]["shifts"] = [{"target_group": 1, "kind": "offset", "magnitude": 1.5,
                                 "applies_to": applies_to}]
    assert_refused(tmp_path, capsys, raw, "dataset.shifts: ")


def _bad_val_columns(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


def _val_label_two(lines):
    features = lines[1].split(",")[3:]
    return [lines[0], ",".join(["2", "0", "4", *features]), *lines[2:]]


@pytest.mark.parametrize("split,edit,message", [
    ("val", _bad_val_columns, "9 feature columns, but the training file has 10"),
    ("val", _val_label_two, "line 2: label 2 out of range [0, 2)"),
    ("val", lambda lines: lines[:1], "no rows"),
    ("test", lambda lines: lines[:1], "no rows"),
    ("test_shifted", lambda lines: lines[:1], "no rows"),
], ids=["val-columns", "val-label", "val-empty", "test-empty", "test_shifted-empty"])
def test_run_refuses_a_split_file_that_does_not_fit_before_training(tmp_path, capsys,
                                                                  monkeypatch, split, edit,
                                                                  message):
    """A ``val``, ``test`` or ``test_shifted`` file with another number of
    feature columns than the training file, a label past the training
    file's, or no rows stops ``run`` before it trains, with one ``error:``
    line that starts with the file's path."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    out = tmp_path / "out"
    cli.main(["generate", "--config", cfg])
    bad = tmp_path / f"bad_{split}.csv"
    bad.write_text("\n".join(edit((out / f"{split}.csv").read_text().splitlines())) + "\n")
    paths = {name: out / f"{name}.csv" for name in ("train", "val", "test", "test_shifted")}
    raw = csv_config(tmp_path, {**paths, split: bad}, output_dir=str(tmp_path / "csv_out"))
    monkeypatch.setattr(cli.solver, "train_lockstep", lambda *a, **k: pytest.fail("trained"))
    capsys.readouterr()
    assert cli.main(["run", "--config", write_config(tmp_path, raw, "csv.json")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: "), lines
    assert message in lines[0], lines


def test_tune_names_a_training_file_that_is_not_utf8(tmp_path, capsys):
    """A training file that does not decode is one ``error:`` line that
    starts with its path, not a traceback."""
    paths = {split: tmp_path / f"{split}.csv" for split in ("train", "val", "test")}
    for path in paths.values():
        path.write_bytes(b"y,a,g,x0\n\xff,0,0,0.5\n")
    capsys.readouterr()
    assert cli.main(["tune", "--config", write_config(tmp_path, csv_config(tmp_path, paths))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {paths['train']}: "), lines


@pytest.mark.parametrize("block,key,value", [
    pytest.param("", "seeds", [0, -1], id="seeds"),
    pytest.param("dataset", "seed", -5, id="dataset.seed"),
])
def test_negative_seeds_are_refused_at_load(tmp_path, capsys, block, key, value):
    # Each used to die in numpy's seeding with a traceback, in generate or in tune and run.
    raw = base_config(tmp_path)
    (raw[block] if block else raw)[key] = value
    name = f"{block}.{key}" if block else key
    assert_refused(tmp_path, capsys, raw, name)
    for command in ("tune", "run"):
        assert cli.main([command, "--config", write_config(tmp_path, raw, "bad.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}:") and "Traceback" not in err


@pytest.mark.parametrize("block,key,index,value", [
    pytest.param("solver", "batch_size", None, None, id="solver-batch_size-None"),
    pytest.param("solver", "hidden_width", None, None, id="solver-hidden_width-None"),
    pytest.param("dataset", "n_per_group_train", 1, None, id="dataset-n_per_group_train-1"),
    pytest.param("dataset", "n_per_group_val", 0, None, id="dataset-n_per_group_val-0"),
    pytest.param("dataset", "n_per_group_test", 3, None, id="dataset-n_per_group_test-3"),
    # Within numpy's largest dimension but not its byte limit: batch_size 2**62
    # passed generate and died in tune, and a 2**60-row group died in generate,
    # each with an "array is too big" traceback.
    pytest.param("solver", "batch_size", None, 2**62, id="solver-batch_size-2**62"),
    pytest.param("dataset", "n_per_group_train", 0, 2**60, id="dataset-n_per_group_train-2**60"),
])
def test_array_size_past_numpys_limit_is_refused_at_load(tmp_path, capsys, block, key, index,
                                                         value):
    """A key past the byte bound is refused; without a given ``value`` the
    entry is set one past the bound and then at it, which loads."""
    raw = base_config(tmp_path)
    entries = raw[block][key] if index is not None else None
    # A split's entries share the bound: the largest entry is what the others leave.
    largest = cli.MAX_FEATURE_ROWS - (sum(entries) - entries[index] if entries else 0)

    def put(size):
        if index is None:
            raw[block][key] = size
        else:
            entries[index] = size

    put(largest + 1 if value is None else value)
    assert_refused(tmp_path, capsys, raw, f"{block}.{key}")
    if value is None:
        put(largest)
        cli.validate_config(raw)


def test_a_batch_larger_than_memory_is_one_error_line(tmp_path, capsys):
    # 2**50 draws of 8 bytes are 8 PiB: more than any address space, so the
    # allocation fails at once.
    raw = base_config(tmp_path)
    raw["solver"]["batch_size"] = 2**50
    cfg = write_config(tmp_path, raw)
    assert cli.main(["generate", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["tune", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: out of memory")


def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(base_config(tmp_path)).replace('"seed": 5', '"seed": ' + "9" * 5000))
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.load_config(str(path))
    assert cli.main(["generate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: config is not valid JSON")


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
    for body in ([0.5], "0.5", None, -1, [], {"epsilon": 0.5}, {"chosen_epsilon": None}):
        tune_path.write_text(json.dumps(body))
        assert cli.main(["run", "--config", cfg, "--tuned-epsilon-from", str(tune_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read tuned epsilon") and "Traceback" not in err
        assert ("must hold a JSON object with a numeric chosen_epsilon" in err) == \
            (body != {"chosen_epsilon": None})


@pytest.mark.parametrize("chosen", [True, "0.5"])
def test_run_refuses_a_tuned_epsilon_that_is_not_a_json_number(tmp_path, capsys, chosen):
    # ``float()`` accepted both: ``true`` trained the hierarchical cells at 1.0.
    cfg = write_config(tmp_path, base_config(tmp_path))
    tune_path = tmp_path / "tune_result.json"
    tune_path.write_text(json.dumps({"chosen_epsilon": chosen}))
    capsys.readouterr()
    assert cli.main(["run", "--config", cfg, "--tuned-epsilon-from", str(tune_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read tuned epsilon: chosen_epsilon: expected float")
    assert not (tmp_path / "out" / "results.csv").exists()


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


def test_a_negative_zero_epsilon_is_refused(tmp_path, capsys):
    """``-0.0`` is a negative radius: it would be printed as ``-0.000000``.
    (``tuning.grid_scale: [-0.0]`` is a case of the grid-scale test.)"""
    raw = base_config(tmp_path)
    raw["solver"]["epsilon"] = -0.0
    assert_refused(tmp_path, capsys, raw, "solver: epsilon and adjustment must be nonnegative")
    cfg = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["generate", "--config", cfg]) == 0
    tune_path = tmp_path / "tune_result.json"
    tune_path.write_text(json.dumps({"chosen_epsilon": -0.0}))
    capsys.readouterr()
    for flags in (["--epsilon", "-0.0"], ["--tuned-epsilon-from", str(tune_path)]):
        assert cli.main(["run", "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flags[0]}: epsilon")
        assert not (tmp_path / "out" / "results.csv").exists()


def test_shipped_benchmark_config_validates():
    """Every shipped config loads, ``configs/benchmark.json`` among them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "configs", "*.json")))
    assert "benchmark.json" in map(os.path.basename, paths)
    for path in paths:
        cli.load_config(path)


def test_tune_and_run_never_read_the_csvs_in_the_output_dir(tmp_path):
    """tune and run build their data from the config alone: in a directory
    holding another dataset seed's generate output, or a truncated train.csv,
    they write the same bytes as in a fresh directory."""
    cfg = write_config(tmp_path, base_config(tmp_path))
    other = base_config(tmp_path)
    other["dataset"]["seed"] = 101
    stale, truncated, fresh = (tmp_path / name for name in ("stale", "truncated", "fresh"))
    cli.main(["generate", "--config", write_config(tmp_path, other, "other.json"),
              "--output-dir", str(stale)])
    cli.main(["generate", "--config", cfg, "--output-dir", str(truncated)])
    lines = (truncated / "train.csv").read_text().splitlines(keepends=True)
    (truncated / "train.csv").write_text("".join(lines[:31]))
    for out in (fresh, stale, truncated):
        assert cli.main(["tune", "--config", cfg, "--output-dir", str(out)]) == 0
        assert cli.main(["run", "--config", cfg, "--output-dir", str(out)]) == 0
    written = [p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file()]
    assert {"tune_result.json", "results.csv"} <= {str(name) for name in written}
    for out in (stale, truncated):
        for name in written:
            assert filecmp.cmp(fresh / name, out / name, shallow=False), (out, name)


def test_invalid_shift_in_config(tmp_path, capsys):
    """A bad shift, one whose target group does not exist among them, or a
    non-finite generator value, which ``json.load`` reads from ``NaN`` and
    ``Infinity``, stops generate and tune with one ``error:`` line naming
    the key."""
    rotation = {"target_group": 0, "kind": "rotation", "magnitude": 9.0}
    past_the_groups = {"target_group": 4, "kind": "offset", "magnitude": 1.0}
    cases = [("shifts", [rotation], "dataset.shifts[0]"),
             ("shifts", [past_the_groups], "dataset.shifts[0]")]
    for value in (math.nan, math.inf):
        cases += [("shifts", [{"target_group": 0, "kind": "offset", "magnitude": value}],
                   "dataset.shifts[0]"), ("noise_sd", value, "noise_sd")]
    for key, value, name in cases:
        raw = base_config(tmp_path)
        raw["dataset"][key] = value
        cfg = write_config(tmp_path, raw)
        for command in ("generate", "tune"):
            capsys.readouterr()
            assert cli.main([command, "--config", cfg]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines


def test_output_root_env(tmp_path, monkeypatch):
    """A relative ``output_dir`` resolves under the root, and generate -> tune
    -> run there writes the same bytes as at an absolute ``--output-dir``."""
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    raw = base_config(tmp_path)
    raw["output_dir"] = "nested/exp"
    cfg = write_config(tmp_path, raw)
    under_root, absolute = tmp_path / "root" / "nested" / "exp", tmp_path / "absolute"
    for out, override in ((under_root, []), (absolute, ["--output-dir", str(absolute)])):
        assert cli.main(["generate", "--config", cfg, *override]) == 0
        assert cli.main(["tune", "--config", cfg, *override]) == 0
        assert cli.main(["run", "--config", cfg, *override,
                         "--tuned-epsilon-from", str(out / "tune_result.json")]) == 0
    assert (under_root / "train.csv").exists()
    files = sorted(p.relative_to(under_root) for p in under_root.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(absolute) for p in absolute.rglob("*") if p.is_file())
    assert {"tune_result.json", "results.csv"} <= {str(name) for name in files}
    for name in files:
        assert filecmp.cmp(under_root / name, absolute / name, shallow=False), name


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


def test_verify_prints_fail_and_exits_2_when_the_transport_oracle_doubles(monkeypatch, capsys):
    """A certificate that doubles each distance certifies none of the
    displaced distributions: criterion 3 fails with a FAIL line and exit
    code 2, not an exception out of ``main``."""
    w_infty = amb.w_infty_exact
    monkeypatch.setattr(amb, "w_infty_exact", lambda p, q: 2 * w_infty(p, q))
    monkeypatch.setattr(verification, "FAST_CHECKS",
                        (lambda: verification.check_lemma_oracle(n_cases=3),))
    capsys.readouterr()
    assert cli.main(["verify", "--level", "fast"]) == 2
    assert capsys.readouterr().out.startswith("FAIL pointwise_vs_distributional_risk ")


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hierdro", "verify", "--level", "fast"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout
