"""Per-group accuracy metrics.

Worst-group accuracy is the minimum over groups present in the evaluation
set; the weighted average uses caller-supplied weights, conventionally the
training-set group proportions.  Groups absent from the evaluation set are
dropped from both statistics (their weight is renormalized away); their
entries of ``per_group_acc`` are nan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .datagen import GroupedDataset
from .errors import InvalidDatasetError, ParameterError
from .model import ModelParams


@dataclass(frozen=True)
class EvalReport:
    per_group_acc: np.ndarray          # nan for groups absent from the eval set
    worst_group_acc: float
    avg_acc_weighted: float


def predictions(theta: ModelParams, ds: GroupedDataset) -> np.ndarray:
    logits = model.logits_from_latent(theta, model.latent(theta, ds.features))
    return np.argmax(logits, axis=1)


def evaluate(theta: ModelParams, ds: GroupedDataset, training_weights) -> EvalReport:
    """Per-group, worst-group and weighted-average accuracy of argmax predictions."""
    if ds.n == 0:
        raise InvalidDatasetError("cannot evaluate on an empty dataset")
    weights = np.asarray(training_weights, dtype=np.float64)
    if weights.shape != (ds.num_groups,):
        raise ParameterError(
            f"expected {ds.num_groups} group weights, got shape {weights.shape}"
        )
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
        raise ParameterError("group weights must be nonnegative and sum to one")

    acc = ds.group_means(predictions(theta, ds) == ds.labels)

    present = ~np.isnan(acc)
    used = np.where(present, weights, 0.0)
    total = used.sum()
    if total <= 0:
        raise ParameterError("all weighted groups are absent from the evaluation set")
    used = used / total
    return EvalReport(
        per_group_acc=acc,
        worst_group_acc=float(np.nanmin(acc)),
        avg_acc_weighted=float(np.nansum(used * np.where(present, acc, 0.0))),
    )
