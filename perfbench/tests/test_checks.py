"""Each output check passes on the program's outputs and fails on a corrupted copy."""

import json
import math
import os
import shutil

import numpy as np
import pytest

from hierdro import cli, datagen, solver
from hierdro.model import ModelSpec, init_params

import checks

CONFIG = {
    "output_dir": "unused",
    "seeds": [0, 1],
    "dataset": {
        "n_per_group_train": [40, 12, 10, 38], "n_per_group_val": [10, 10, 10, 10],
        "n_per_group_test": [20, 20, 20, 20], "spurious_strength": 0.4, "noise_sd": 0.8,
        "label_flip_p": 0.1, "seed": 3,
        "shifts": [{"target_group": 2, "kind": "rotation", "magnitude": -math.pi / 2,
                    "applies_to": "test"}],
    },
    "solver": {
        "modes": ["erm", "group_dro", "hierarchical"], "eta_beta": 0.6, "eta_theta": 0.6,
        "epsilon": 0.0, "adjustment": 0.0, "iterations": 40, "batch_size": 8,
        "checkpoint_every": 4, "decay_steps": True, "architecture": "linear",
    },
    "ambiguity": {},
    "tuning": {"grid_scale": [0.1, 0.2, 0.3], "warmup_iterations": 20, "iterations": 40},
    "evaluation": {},
}


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pipeline"))
    path = os.path.join(out, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    common = ["--config", path, "--output-dir", out]
    assert cli.main(["generate", *common]) == 0
    assert cli.main(["tune", *common]) == 0
    assert cli.main(["run", *common, "--tuned-epsilon-from",
                     os.path.join(out, "tune_result.json")]) == 0
    return out


@pytest.fixture
def corrupt(pipeline_out, tmp_path):
    copy = str(tmp_path / "copy")
    shutil.copytree(pipeline_out, copy)
    return copy


def edit(path, change):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(change(text))


def test_pristine_pipeline_outputs_pass(pipeline_out):
    checks.check_pipeline(pipeline_out, CONFIG)


def test_one_accuracy_digit_changed_fails(corrupt):
    def change(text):
        lines = text.splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("ERM,0,"))
        cells = lines[row].rstrip("\n").split(",")
        value = cells[3]
        cells[3] = value[:-1] + ("1" if value[-1] != "1" else "2")
        lines[row] = ",".join(cells) + "\n"
        return "".join(lines)

    edit(os.path.join(corrupt, "results.csv"), change)
    with pytest.raises(checks.CheckFailure, match="accuracies"):
        checks.check_pipeline(corrupt, CONFIG)


def test_beta_row_off_the_simplex_fails(corrupt):
    def change(text):
        lines = text.splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if line.startswith("iteration"))
        col = lines[header].split(",").index("beta_g0")
        cells = lines[header + 1].rstrip("\n").split(",")
        cells[col] = "%.10g" % (float(cells[col]) + 0.01)
        lines[header + 1] = ",".join(cells) + "\n"
        return "".join(lines)

    edit(os.path.join(corrupt, "runs", "group_dro_seed0", "history.csv"), change)
    with pytest.raises(checks.CheckFailure, match="simplex"):
        checks.check_pipeline(corrupt, CONFIG)


def test_wrong_tuned_choice_fails(corrupt):
    path = os.path.join(corrupt, "tune_result.json")
    with open(path, encoding="utf-8") as fh:
        tune = json.load(fh)
    tune["chosen_epsilon"] = next(e for e in tune["grid"] if e != tune["chosen_epsilon"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tune, fh)
    with pytest.raises(checks.CheckFailure, match="chosen_epsilon"):
        checks.check_pipeline(corrupt, CONFIG)


def test_shifted_row_not_rotated_fails(corrupt):
    shutil.copy(os.path.join(corrupt, "test.csv"), os.path.join(corrupt, "test_shifted.csv"))
    with pytest.raises(checks.CheckFailure, match="recomputed shift"):
        checks.check_shift(corrupt, CONFIG["dataset"]["shifts"])


@pytest.fixture(scope="module")
def trajectory():
    ds = CONFIG["dataset"]
    make = lambda counts, seed: datagen.make_spurious(
        counts, ds["spurious_strength"], ds["noise_sd"], ds["label_flip_p"], seed=seed)
    ds_train, ds_val = make(ds["n_per_group_train"], 5), make(ds["n_per_group_val"], 6)
    init = init_params(ModelSpec("mlp1", 8), ds_train.d, 2, seed=1)
    results = {}
    for mode in solver.MODES:
        config = solver.SolverConfig(mode=mode, eta_beta=0.6, eta_theta=0.6,
                                     epsilon=1.0 if mode == solver.HIERARCHICAL else 0.0,
                                     iterations=40, batch_size=8, checkpoint_every=4, seed=2)
        results[mode] = solver.train(ds_train, ds_val, init, config)
    return ds_train, ds_val, results


@pytest.mark.parametrize("mode", solver.MODES)
def test_pristine_trajectory_passes(trajectory, mode):
    ds_train, ds_val, results = trajectory
    checks.check_trajectory(results[mode], ds_train, ds_val, mode, 40, 4)


def test_group_loss_off_by_1e6_fails(trajectory):
    ds_train, ds_val, results = trajectory
    cp = results["group_dro"].history[3]
    saved = cp.group_losses.copy()
    cp.group_losses = saved + np.array([0.0, 1e-6, 0.0, 0.0])
    try:
        with pytest.raises(checks.CheckFailure, match="group_losses"):
            checks.check_trajectory(results["group_dro"], ds_train, ds_val, "group_dro", 40, 4)
    finally:
        cp.group_losses = saved


def test_ascent_endpoint_outside_the_ball_is_counted():
    w_out, b_out = np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2)
    z = np.zeros((3, 2))
    y = np.array([0, 0, 0])
    z_prime = np.array([[-0.5, 0.0], [-0.2, 0.0], [-0.7, 0.0]])
    assert checks.ascent_endpoints(w_out, b_out, z, y, 0.5, z_prime) == (3, 2, 1)
