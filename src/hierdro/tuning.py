"""Data-driven selection of the perturbation scale.

The procedure simulates within-group shifts from training data alone: rank
each group's members along a one-dimensional projection of their latents,
cut the ranking into five quantiles, and alternately hold out the top and
bottom quantile of every group as validation sets.  The candidate scale that
maximizes the smallest group's holdout accuracy (aggregated over the two
setups) wins; ties go to the smaller scale.

The projection is the leading principal component, by power iteration, of
what ``TuneConfig.order_on`` names: the latents of a short ERM warm-up model
(``"latents"``, the default) or the raw features (``"raw"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation, solver
from .datagen import GroupedDataset
from .errors import DivergenceError, InvalidDatasetError, ParameterError, TuningInfeasibleError
from .model import ModelSpec, init_params, latent
from .solver import ERM, HIERARCHICAL, SolverConfig

# Candidate scales; each is multiplied by sqrt(min group size) to obtain the
# global radius parameter so the smallest group's own radius equals the scale.
DEFAULT_GRID_SCALE = (
    12 / 255, 24 / 255, 36 / 255, 48 / 255, 60 / 255, 72 / 255, 84 / 255, 96 / 255,
)

NUM_QUANTILES = 5
POWER_ITERATIONS = 200


@dataclass(frozen=True)
class Ordering:
    ranks: np.ndarray
    projection: np.ndarray
    degenerate: bool = False


def order_1d(features: np.ndarray, seed: int = 0, iterations: int = POWER_ITERATIONS) -> Ordering:
    """Ranks along the leading principal component.

    Power iteration with a seeded start vector; the sign is fixed so the
    projection correlates nonnegatively with coordinate 0.  Ties are broken
    by original row index.  Constant features raise the ``degenerate`` flag
    and fall back to index order.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError("order_1d needs at least two rows")
    n = x.shape[0]
    centered = x - x.mean(axis=0)
    if not np.any(centered):
        return Ordering(np.arange(n), np.zeros(n), degenerate=True)

    rng = np.random.default_rng(seed)
    v = rng.normal(size=x.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v_new = centered.T @ (centered @ v)
        norm = np.linalg.norm(v_new)
        if norm == 0.0:
            break
        v = v_new / norm
    projection = centered @ v
    if projection @ centered[:, 0] < 0:
        projection = -projection
    order = np.argsort(projection, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return Ordering(ranks=ranks, projection=projection, degenerate=False)


@dataclass(frozen=True)
class SplitPair:
    train: GroupedDataset
    holdout: GroupedDataset
    held_quantile: int


def _quantile_bounds(n: int) -> list[tuple[int, int]]:
    """Balanced-remainder rule: quantile q covers [ceil(q*n/5), ceil((q+1)*n/5))."""
    cuts = [math.ceil(q * n / NUM_QUANTILES) for q in range(NUM_QUANTILES + 1)]
    return [(cuts[q], cuts[q + 1]) for q in range(NUM_QUANTILES)]


def quantile_splits(ds: GroupedDataset, ranks: np.ndarray) -> tuple[SplitPair, SplitPair]:
    """Hold out the top (setup A) or bottom (setup B) rank quantile of every group."""
    ranks = np.asarray(ranks)
    if ranks.shape != (ds.n,):
        raise ParameterError("ranks must have one entry per dataset row")
    top_hold, bottom_hold = [], []
    for g in range(ds.num_groups):
        rows = ds.group_rows(g)
        if rows.size < NUM_QUANTILES:
            raise TuningInfeasibleError(
                f"group {g} has {rows.size} members; quantile tuning needs at least {NUM_QUANTILES}"
            )
        ordered = rows[np.argsort(ranks[rows], kind="stable")]
        bounds = _quantile_bounds(rows.size)
        bottom_hold.append(ordered[bounds[0][0]:bounds[0][1]])
        top_hold.append(ordered[bounds[-1][0]:bounds[-1][1]])
    all_rows = np.arange(ds.n)
    top = np.sort(np.concatenate(top_hold))
    bottom = np.sort(np.concatenate(bottom_hold))
    setup_a = SplitPair(ds.subset(np.setdiff1d(all_rows, top)), ds.subset(top),
                        held_quantile=NUM_QUANTILES - 1)
    setup_b = SplitPair(ds.subset(np.setdiff1d(all_rows, bottom)), ds.subset(bottom),
                        held_quantile=0)
    return setup_a, setup_b


@dataclass(frozen=True)
class TuneConfig:
    solver: SolverConfig
    model: ModelSpec = field(default_factory=ModelSpec)
    aggregation: str = "mean"
    order_on: str = "latents"          # "latents" (warm-up model) or "raw"
    warmup_iterations: int = 500
    ordering_seed: int = 0

    def __post_init__(self):
        if self.aggregation not in ("mean", "min"):
            raise ParameterError("aggregation must be 'mean' or 'min'")
        if self.order_on not in ("latents", "raw"):
            raise ParameterError("order_on must be 'latents' or 'raw'")


@dataclass(frozen=True)
class TuneResult:
    grid: tuple[float, ...]            # candidate radius parameters (scaled)
    grid_scale: tuple[float, ...]      # the raw per-minority-group scales
    table: np.ndarray                  # (len(grid), 2) minority holdout accuracy
    chosen_epsilon: float
    chosen_scale: float
    aggregation: str
    minority_group: int
    n_min: int


def minority_group(ds: GroupedDataset) -> int:
    """Index of the smallest group; ties go to the smallest index."""
    return int(np.argmin(ds.n_g))


def _ordering_features(ds: GroupedDataset, cfg: TuneConfig) -> np.ndarray:
    if cfg.order_on == "raw":
        return ds.features
    warm_cfg = replace(
        cfg.solver, mode=ERM, epsilon=0.0, iterations=cfg.warmup_iterations,
        checkpoint_every=max(1, cfg.warmup_iterations),
    )
    init = init_params(cfg.model, ds.d, ds.num_labels, seed=warm_cfg.seed)
    warm = solver.train(ds, ds, init, warm_cfg)
    return latent(warm.final.theta, ds.features)


def tune_epsilon(ds_train: GroupedDataset, grid_scale, config: TuneConfig) -> TuneResult:
    """Pick the radius parameter maximizing minority-group holdout accuracy.

    Candidates are ``scale * sqrt(n_min)`` for each entry of ``grid_scale``.
    Every candidate trains the hierarchical solver on both quantile splits,
    all candidates of a split in one lockstep run; selection within each run
    follows the usual worst-group-validation rule with the holdout acting as
    the validation set.  A diverging candidate raises its ``DivergenceError``
    (the first in candidate-then-split order).
    """
    grid_scale = tuple(float(s) for s in grid_scale)
    if not grid_scale:
        raise ParameterError("grid_scale must be nonempty")
    if np.any(ds_train.n_g == 0):
        raise InvalidDatasetError("tuning requires every group to be nonempty")

    minority = minority_group(ds_train)
    n_min = int(ds_train.n_g[minority])
    candidates = tuple(s * math.sqrt(n_min) for s in grid_scale)

    ordering = order_1d(_ordering_features(ds_train, config), seed=config.ordering_seed)
    splits = quantile_splits(ds_train, ordering.ranks)

    # One lockstep run per split, one row per candidate; all rows share the
    # seed, so they share the initial model and the minibatch stream.
    run_cfgs = [replace(config.solver, mode=HIERARCHICAL, epsilon=eps) for eps in candidates]
    init = init_params(config.model, ds_train.d, ds_train.num_labels, seed=config.solver.seed)
    runs = [solver.train_lockstep(split.train, split.holdout, [init] * len(run_cfgs), run_cfgs)
            for split in splits]
    table = np.zeros((len(candidates), len(splits)))
    for i in range(len(candidates)):
        for j, split in enumerate(splits):
            result = runs[j][i]
            if isinstance(result, DivergenceError):
                raise result
            report = evaluation.evaluate(result.best, split.holdout, split.train.alpha)
            table[i, j] = report.per_group_acc[minority]

    aggregate = table.mean(axis=1) if config.aggregation == "mean" else table.min(axis=1)
    best = min(range(len(candidates)), key=lambda i: (-aggregate[i], candidates[i]))
    return TuneResult(
        grid=candidates,
        grid_scale=grid_scale,
        table=table,
        chosen_epsilon=float(candidates[best]),
        chosen_scale=float(grid_scale[best]),
        aggregation=config.aggregation,
        minority_group=minority,
        n_min=n_min,
    )
