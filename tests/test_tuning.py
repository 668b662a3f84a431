import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from hierdro import solver, tuning
from hierdro.datagen import GroupedDataset, make_spurious
from hierdro.errors import ParameterError, TuningInfeasibleError
from hierdro.model import ModelSpec
from hierdro.solver import HIERARCHICAL, SolverConfig
from hierdro.tuning import (
    DEFAULT_GRID_SCALE,
    TuneConfig,
    _quantile_bounds,
    minority_group,
    order_1d,
    quantile_splits,
    tune_epsilon,
)


def test_default_grid_values():
    assert DEFAULT_GRID_SCALE == tuple(k / 255 for k in (12, 24, 36, 48, 60, 72, 84, 96))


# ---------------------------------------------------------------- order_1d


def test_order_1d_recovers_single_coordinate():
    values = np.array([3.0, -1.0, 2.0, 0.0])
    np.testing.assert_array_equal(order_1d(values[:, None]), [3, 0, 2, 1])


def test_order_1d_two_blobs_contiguous():
    rng = np.random.default_rng(0)
    low = rng.normal(loc=[-5, 0, 0], scale=0.1, size=(20, 3))
    high = rng.normal(loc=[5, 0, 0], scale=0.1, size=(20, 3))
    ranks = order_1d(np.concatenate([low, high]))
    assert set(ranks[:20]) == set(range(20))
    assert set(ranks[20:]) == set(range(20, 40))


def test_order_1d_permutation_equivariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 4))
    base = order_1d(x)
    perm = rng.permutation(30)
    permuted = order_1d(x[perm])
    np.testing.assert_array_equal(permuted, base[perm])


def test_order_1d_sign_convention():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    x[:, 0] = np.linspace(-2, 2, 50)  # dominant variance along coordinate 0
    ranks = order_1d(x)
    assert ranks @ (x[:, 0] - x[:, 0].mean()) > 0


@pytest.mark.parametrize("value", [1.0, 0.1])
def test_order_1d_refuses_constant_features(value):
    """Constant features rank nothing, whatever their value: at 0.1 the
    rounded column mean differs from the entries, at 1.0 it does not."""
    with pytest.raises(TuningInfeasibleError, match="constant"):
        order_1d(np.full((6, 3), value))


def test_order_1d_refuses_features_whose_scatter_matrix_overflows():
    """Past about 1e154 / sqrt(n) the centred scatter matrix is not finite,
    and no principal component of it ranks the rows."""
    x = np.random.default_rng(3).normal(size=(20, 3)) * 1e160
    with pytest.raises(TuningInfeasibleError, match="overflow"):
        order_1d(x)


def test_order_1d_needs_two_rows():
    with pytest.raises(ParameterError):
        order_1d(np.ones((1, 3)))


# ---------------------------------------------------------- quantile splits


def test_quantile_bounds_of_seven():
    sizes = [hi - lo for lo, hi in _quantile_bounds(7)]
    assert sizes == [2, 1, 2, 1, 1]


def test_quantile_bounds_of_five():
    sizes = [hi - lo for lo, hi in _quantile_bounds(5)]
    assert sizes == [1, 1, 1, 1, 1]


def test_quantile_splits_partition_each_group():
    ds = make_spurious((15, 10, 7, 12), 0.5, 0.5, 0.2, seed=3)
    ranks = order_1d(ds.features)
    setup_a, setup_b = quantile_splits(ds, ranks)
    # Setup A holds out the top quantile of each group, setup B the bottom one.
    for split, held in ((setup_a, 4), (setup_b, 0)):
        assert split.train.n + split.holdout.n == ds.n
        for g in range(4):
            train_rows = split.train.n_g[g]
            hold_rows = split.holdout.n_g[g]
            assert train_rows + hold_rows == ds.n_g[g]
            bounds = _quantile_bounds(int(ds.n_g[g]))
            assert hold_rows == bounds[held][1] - bounds[held][0]


def test_quantile_splits_share_middle():
    ds = make_spurious((20, 10, 10, 20), 0.5, 0.5, 0.2, seed=4)
    ranks = order_1d(ds.features)
    setup_a, setup_b = quantile_splits(ds, ranks)
    # Rows held by neither setup (the middle 60%) appear in both training sets.
    def row_keys(d):
        return {tuple(row) for row in d.features}
    middle = row_keys(setup_a.train) & row_keys(setup_b.train)
    assert len(middle) == ds.n - setup_a.holdout.n - setup_b.holdout.n


def test_quantile_splits_train_on_the_sorted_complement_of_the_holdout():
    """Each setup trains on the rows it does not hold out, in dataset order:
    ``np.setdiff1d`` of all rows and the held-out ones.  The first feature
    column is the row number, so each split names its rows."""
    ds = make_spurious((15, 10, 7, 12), 0.5, 0.5, 0.2, seed=3)
    ranks = order_1d(ds.features)
    numbered = GroupedDataset(np.column_stack([np.arange(ds.n), ds.features]), ds.labels,
                              ds.attributes, ds.num_labels, ds.num_attributes)
    for split in quantile_splits(numbered, ranks):
        held = split.holdout.features[:, 0].astype(np.int64)
        train_rows = split.train.features[:, 0].astype(np.int64)
        assert train_rows.tolist() == np.setdiff1d(np.arange(ds.n), held).tolist()


def test_quantile_splits_reject_tiny_groups():
    ds = make_spurious((10, 10, 4, 10), 0.5, 0.5, 0.2, seed=5)
    with pytest.raises(TuningInfeasibleError, match="group 2"):
        quantile_splits(ds, order_1d(ds.features))


def test_minority_group_tie_break():
    ds = make_spurious((10, 5, 5, 10), 0.5, 0.5, 0.2, seed=6)
    assert minority_group(ds) == 1


# ------------------------------------------------------------ tune_epsilon


def tune_config(grid_scale, seed=0, iterations=150):
    return TuneConfig(
        solver=SolverConfig(
            mode=HIERARCHICAL, eta_beta=0.2, eta_theta=0.3, epsilon=0.0,
            iterations=iterations, batch_size=8, seed=seed, checkpoint_every=50,
        ),
        model=ModelSpec("linear"),
        warmup_iterations=50,
        grid_scale=grid_scale,
    )


def test_tune_single_candidate_passthrough():
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=7)
    result = tune_epsilon(ds, tune_config((0.1,)))
    assert result.chosen_scale == 0.1
    assert result.chosen_epsilon == pytest.approx(0.1 * math.sqrt(15))
    assert result.table.shape == (1, 2)
    assert result.minority_group == 2 and result.n_min == 15


def test_tune_scales_by_sqrt_n_min():
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=8)
    result = tune_epsilon(ds, tune_config((0.2, 0.4)))
    np.testing.assert_allclose(result.grid,
                               [0.2 * math.sqrt(15), 0.4 * math.sqrt(15)])


def test_tune_tie_breaks_to_smaller_epsilon():
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=9)
    cfg = tune_config((0.4, 0.1, 0.2))
    # Zero-length training runs make every candidate score identically.
    degenerate = TuneConfig(
        solver=SolverConfig(
            mode=HIERARCHICAL, eta_beta=0.2, eta_theta=0.3, epsilon=0.0,
            iterations=0, batch_size=8, seed=0, checkpoint_every=50,
        ),
        model=cfg.model,
        warmup_iterations=10,
        grid_scale=cfg.grid_scale,
    )
    result = tune_epsilon(ds, degenerate)
    assert np.all(result.table == result.table[0])  # identical aggregate per candidate
    assert result.chosen_scale == 0.1


def test_tune_deterministic():
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=10)
    a = tune_epsilon(ds, tune_config((0.1, 0.3), seed=1))
    b = tune_epsilon(ds, tune_config((0.1, 0.3), seed=1))
    assert a.chosen_epsilon == b.chosen_epsilon
    np.testing.assert_array_equal(a.table, b.table)


def test_tune_empty_grid_rejected():
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.1, seed=11)
    with pytest.raises(ParameterError, match="^grid_scale: expected a nonempty list"):
        tune_epsilon(ds, tune_config(()))


@pytest.mark.parametrize("grid_scale", [(-0.1,), (0.1, math.inf), (math.nan,), (-0.0,),
                                        (0.1, 0.1), (0.3, 0.1, 0.3)],
                         ids=["negative", "inf", "nan", "negative-zero", "repeated",
                              "repeated-apart"])
def test_tune_config_refuses_a_grid_the_cli_refuses(grid_scale):
    """``TuneConfig`` holds the grid's rules, so no grid that a config file
    may not give reaches ``tune_epsilon``, whether the config is built or
    replaced; the message starts with ``grid_scale``.  A repeated scale
    would train one candidate twice, and ``-0.0`` is a negative scale."""
    with pytest.raises(ParameterError, match="^grid_scale: "):
        tune_config(grid_scale)
    with pytest.raises(ParameterError, match="^grid_scale: "):
        replace(tune_config((0.1,)), grid_scale=grid_scale)


def test_tune_refuses_an_overflowing_candidate_before_training(monkeypatch):
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.1, seed=11)

    def no_training(*args, **kwargs):
        raise AssertionError("tuning trained before it checked its candidates")

    monkeypatch.setattr(solver, "train_lockstep", no_training)
    with pytest.raises(ParameterError, match="epsilon must be finite"):
        tune_epsilon(ds, tune_config((0.1, 1e308)))


def test_tune_raw_ordering_flag():
    """A linear model's latents are its raw features: both orderings tune
    bitwise alike."""
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=12)
    cfg = tune_config((0.1, 0.3))
    latents = tune_epsilon(ds, cfg)
    raw = tune_epsilon(ds, replace(cfg, order_on="raw"))
    assert cfg.order_on == "latents"
    np.testing.assert_array_equal(latents.table, raw.table)
    assert latents.chosen_epsilon == raw.chosen_epsilon


@pytest.mark.parametrize("architecture,warmups", [("linear", 0), ("mlp1", 1)])
def test_only_an_mlp1_ordering_trains_a_warmup(monkeypatch, architecture, warmups):
    """A linear model's latents are its raw features, so ordering on them
    trains nothing; an ``mlp1`` ordering trains one ERM warm-up."""
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=13)
    cfg = tune_config((0.2,))
    calls = []
    train = solver.train
    monkeypatch.setattr(solver, "train", lambda *a, **k: calls.append(a) or train(*a, **k))
    tune_epsilon(ds, replace(cfg, model=ModelSpec(architecture, hidden_width=4)))
    assert len(calls) == warmups


def test_tuning_computes_no_training_losses(monkeypatch):
    """Tuning selects on holdout accuracy alone, so no checkpoint of its
    runs computes its training losses."""
    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=14)
    calls = []
    monkeypatch.setattr(solver, "group_mean_losses", lambda *a: calls.append(a))
    tune_epsilon(ds, tune_config((0.1, 0.3)))
    assert calls == []


def test_diagnostics_name_the_grid_edge_and_constant_setups():
    """The benchmark's tuning table at the default grid: setup A scores 1.0
    everywhere, and setup B rises to the grid's top, whose tie the smaller
    scale 84/255 wins.  A win at the top is said as such, a top that scores
    below the winner not at all; one candidate gives only the sizes."""
    cfg = tune_config(DEFAULT_GRID_SCALE)
    grid_scale = cfg.grid_scale
    table = np.array([[1.0, b] for b in (0, 0, 0, 1, 2, 2, 4, 4)]) / [1.0, 38.0]
    result = tuning.TuneResult(grid=tuple(s * math.sqrt(190) for s in grid_scale), table=table,
                               chosen_epsilon=84 / 255 * math.sqrt(190), chosen_scale=84 / 255,
                               minority_group=3, n_min=190)
    lines = tuning.diagnostics(result, cfg)
    assert lines == [
        "minority group 3 (190 training rows) holds out 38 rows in setup A and 38 in setup B, "
        "so its holdout accuracies move in steps of 1/38 and 1/38",
        "the largest scale in grid_scale, 0.376471, scores as the chosen 0.329412 does in both "
        "setups and loses only the tie-break to the smaller scale; a wider grid may choose a "
        "larger radius",
        "setup A gives every candidate accuracy 1, so it ranks none of them"]
    at_top = replace(result, chosen_scale=96 / 255)
    assert tuning.diagnostics(at_top, cfg)[1] == (
        "the chosen scale 0.376471 is the largest in grid_scale; a wider grid may choose a "
        "larger radius")
    below_top = replace(result, table=table[[0, 1, 2, 3, 4, 5, 6, 5]])
    assert tuning.diagnostics(below_top, cfg) == [lines[0], lines[2]]
    one = replace(result, grid=result.grid[:1], table=np.ones((1, 2)), chosen_scale=grid_scale[0])
    assert tuning.diagnostics(one, replace(cfg, grid_scale=grid_scale[:1])) == lines[:1]


def test_readme_tuning_snippet_prints_the_numbers_it_quotes():
    """README's tuning paragraph quotes the numbers that its python block
    prints, also in the block's comments; the block runs here, so neither
    can drift from the code it explains."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    prose, block = re.search(r"(.*?)```python\n(.*?)```",
                             text[text.index("## The benchmark"):], re.S).groups()
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(root, "src")})
    assert proc.returncode == 0, proc.stderr
    number = r"-?\d+\.\d+"
    printed = re.findall(number, proc.stdout)
    assert len(printed) == 5, proc.stdout
    assert printed == re.findall(number, " ".join(re.findall(r"#(.*)", block)))
    for value in printed:
        assert value in prose, value
