import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierdro.datagen import GroupedDataset, make_spurious
from hierdro.errors import InvalidDatasetError, ParameterError
from hierdro.evaluation import evaluate
from hierdro.model import ModelParams, ModelSpec, init_params


def perfect_model():
    # Predicts the label from the sign of coordinate 0.
    return ModelParams(w_out=np.array([[-5.0] + [0.0] * 9, [5.0] + [0.0] * 9]),
                       b_out=np.zeros(2))


def two_group_dataset(acc_targets, n=200):
    """m=2 dataset (K=2, A=1) whose per-group accuracies under the sign
    classifier equal the requested fractions exactly."""
    rng = np.random.default_rng(0)
    feats, labels = [], []
    for y, acc in enumerate(acc_targets):
        correct = int(round(acc * n))
        signs = np.concatenate([np.full(correct, 2 * y - 1), np.full(n - correct, 1 - 2 * y)])
        x = np.zeros((n, 10))
        x[:, 0] = signs * (1.0 + rng.random(n))
        feats.append(x)
        labels.append(np.full(n, y))
    return GroupedDataset(np.concatenate(feats), np.concatenate(labels),
                          np.zeros(2 * n, dtype=np.int64), 2, 1)


def test_worst_group_is_minimum():
    ds = two_group_dataset([0.9, 0.8])
    report = evaluate(perfect_model(), ds, np.array([0.5, 0.5]))
    np.testing.assert_allclose(report.per_group_acc, [0.9, 0.8])
    assert report.worst_group_acc == pytest.approx(0.8)


def test_weighted_average():
    ds = two_group_dataset([1.0, 0.5])
    report = evaluate(perfect_model(), ds, np.array([0.25, 0.75]))
    assert report.avg_acc_weighted == pytest.approx(0.625)


def test_all_correct_predictor():
    ds = make_spurious((20, 20, 20, 20), 0.0, 1e-6, 0.0, seed=1)
    report = evaluate(perfect_model(), ds, ds.alpha)
    assert report.worst_group_acc == 1.0
    assert report.avg_acc_weighted == 1.0


def test_missing_group_excluded_and_flagged():
    ds = make_spurious((20, 20, 20, 20), 0.0, 1e-6, 0.0, seed=2)
    reduced = ds.subset(np.flatnonzero(ds.group_of != 3))
    report = evaluate(perfect_model(), reduced, ds.alpha)
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(report.per_group_acc)), [3])
    assert report.worst_group_acc == 1.0
    # Group 3's weight is renormalized away: without that the average would be 0.75.
    assert report.avg_acc_weighted == pytest.approx(1.0)


def test_weight_validation():
    ds = make_spurious((5, 5, 5, 5), 0.5, 0.5, 0.1, seed=3)
    theta = init_params(ModelSpec("linear"), ds.d, 2, seed=0)
    with pytest.raises(ParameterError):
        evaluate(theta, ds, np.array([0.5, 0.5]))
    with pytest.raises(ParameterError):
        evaluate(theta, ds, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidDatasetError):
        evaluate(theta, ds.subset([]), ds.alpha)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), model_seed=st.integers(0, 10_000))
def test_worst_le_weighted_le_best(seed, model_seed):
    ds = make_spurious((15, 10, 8, 12), 0.6, 0.6, 0.2, seed=seed)
    theta = init_params(ModelSpec("linear"), ds.d, 2, seed=model_seed)
    report = evaluate(theta, ds, ds.alpha)
    assert report.worst_group_acc <= report.avg_acc_weighted + 1e-12
    assert report.avg_acc_weighted <= np.nanmax(report.per_group_acc) + 1e-12
