"""Data-driven selection of the perturbation scale.

The procedure simulates within-group shifts from training data alone: rank
each group's members along a one-dimensional projection of their latents,
cut the ranking into five quantiles, and alternately hold out the top and
bottom quantile of every group as validation sets.  The candidate scale that
maximizes the smallest group's holdout accuracy (aggregated over the two
setups) wins; ties go to the smaller scale.  The candidate scales are
``TuneConfig.grid_scale``: nonempty, distinct, finite and nonnegative.

The projection is the exact leading principal component of what
``TuneConfig.order_on`` names: the latents of a short ERM warm-up model
(``"latents"``, the default) or the raw features (``"raw"``).  A linear
model's latents are its raw features, so for ``linear`` the two agree and no
warm-up trains: ``warmup_iterations`` matters only for ``mlp1``.  Ordering
features that are constant, such as an ``mlp1`` warm-up whose every ReLU is
dead, or so large that their scatter matrix overflows, rank nothing, and
tuning stops with a ``TuningInfeasibleError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import evaluation, solver
from .datagen import GroupedDataset
from .errors import DivergenceError, InvalidDatasetError, ParameterError, TuningInfeasibleError
from .model import LINEAR, ModelSpec, init_params, latent
from .solver import ERM, HIERARCHICAL, SolverConfig

# Candidate scales; each is multiplied by sqrt(min group size) to obtain the
# global radius parameter so the smallest group's own radius equals the scale.
DEFAULT_GRID_SCALE = (
    12 / 255, 24 / 255, 36 / 255, 48 / 255, 60 / 255, 72 / 255, 84 / 255, 96 / 255,
)

NUM_QUANTILES = 5


def order_1d(features: np.ndarray) -> np.ndarray:
    """Each row's rank along the leading principal component: the top
    eigenvector of the centred scatter matrix, signed so the projection
    correlates nonnegatively with coordinate 0.  Ties are broken by original
    row index.  Features that are constant, every column's maximum equal to
    its minimum, and features whose scatter matrix overflows order nothing:
    a ``TuningInfeasibleError``.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ParameterError("order_1d needs at least two rows")
    if np.array_equal(x.max(axis=0), x.min(axis=0)):
        raise TuningInfeasibleError(
            f"the ordering features are constant: each of the {x.shape[1]} columns has one "
            f"value in all {x.shape[0]} rows, so no direction ranks them")
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):     # refused just below
        centered = x - x.mean(axis=0)
        scatter = centered.T @ centered
    if not np.isfinite(scatter).all():
        raise TuningInfeasibleError(
            f"the ordering features overflow: the scatter matrix of the {n} centred rows "
            f"is not finite, so no principal component ranks them")
    v = np.linalg.eigh(scatter)[1][:, -1]
    projection = centered @ v
    if projection @ centered[:, 0] < 0:
        projection = -projection
    order = np.argsort(projection, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return ranks


@dataclass(frozen=True)
class SplitPair:
    train: GroupedDataset
    holdout: GroupedDataset


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
    top = np.sort(np.concatenate(top_hold))
    bottom = np.sort(np.concatenate(bottom_hold))
    return (SplitPair(ds.subset(_complement(top, ds.n)), ds.subset(top)),
            SplitPair(ds.subset(_complement(bottom, ds.n)), ds.subset(bottom)))


def _complement(rows: np.ndarray, n: int) -> np.ndarray:
    """The sorted rows of ``range(n)`` not in ``rows``, as ``np.setdiff1d``
    gives them, without the ``numpy.ma`` import that its ``np.unique`` makes."""
    keep = np.ones(n, dtype=bool)
    keep[rows] = False
    return np.flatnonzero(keep)


@dataclass(frozen=True)
class TuneConfig:
    solver: SolverConfig
    model: ModelSpec = field(default_factory=ModelSpec)
    aggregation: str = "mean"
    order_on: str = "latents"          # "latents" (warm-up model) or "raw"
    warmup_iterations: int = 500
    grid_scale: tuple[float, ...] = DEFAULT_GRID_SCALE

    def __post_init__(self):
        if self.aggregation not in ("mean", "min"):
            raise ParameterError("aggregation must be 'mean' or 'min'")
        if self.order_on not in ("latents", "raw"):
            raise ParameterError("order_on must be 'latents' or 'raw'")
        if self.warmup_iterations < 0:
            raise ParameterError(
                f"warmup_iterations must be nonnegative, got {self.warmup_iterations}")
        if not self.grid_scale:
            raise ParameterError("grid_scale: expected a nonempty list")
        for scale in self.grid_scale:
            if not math.isfinite(scale) or math.copysign(1.0, scale) < 0:     # -0.0 too
                raise ParameterError(
                    f"grid_scale: expected finite nonnegative scales, got {scale!r}")
        repeated = sorted({s for s in self.grid_scale if self.grid_scale.count(s) > 1})
        if repeated:
            raise ParameterError(f"grid_scale: repeated entries {repeated}; each must be unique")


@dataclass(frozen=True)
class TuneResult:
    grid: tuple[float, ...]            # candidate radius parameters (scaled)
    table: np.ndarray                  # (len(grid), 2) minority holdout accuracy
    chosen_epsilon: float
    chosen_scale: float
    minority_group: int
    n_min: int


def diagnostics(result: TuneResult, config: TuneConfig) -> list[str]:
    """What a tuning result says about its own choice, one sentence each.

    The minority group's holdout sizes, which set the resolution of every
    accuracy in the table; whether the chosen scale is the grid's largest,
    or scores as the largest does in both setups and wins only the tie-break
    to the smaller scale, in which case the grid's edge may have chosen
    rather than the data; and each setup whose column is constant, which
    therefore ranks no candidate.  With one candidate there is no choice, so
    only the sizes are given.
    """
    (bottom_lo, bottom_hi), *_, (top_lo, top_hi) = _quantile_bounds(result.n_min)
    held_a, held_b = top_hi - top_lo, bottom_hi - bottom_lo
    lines = [f"minority group {result.minority_group} ({result.n_min} training rows) holds out "
             f"{held_a} rows in setup A and {held_b} in setup B, so its holdout accuracies "
             f"move in steps of 1/{held_a} and 1/{held_b}"]
    if len(result.grid) < 2:
        return lines
    scales = config.grid_scale
    top, best = scales.index(max(scales)), scales.index(result.chosen_scale)
    if top == best:
        lines.append(f"the chosen scale {scales[best]:.6g} is the largest in grid_scale; "
                     f"a wider grid may choose a larger radius")
    elif (result.table[top] == result.table[best]).all():
        lines.append(f"the largest scale in grid_scale, {scales[top]:.6g}, scores as the chosen "
                     f"{scales[best]:.6g} does in both setups and loses only the tie-break to "
                     f"the smaller scale; a wider grid may choose a larger radius")
    for name, column in zip("AB", result.table.T):
        if (column == column[0]).all():
            lines.append(f"setup {name} gives every candidate accuracy {column[0]:.6g}, so it "
                         f"ranks none of them")
    return lines


def minority_group(ds: GroupedDataset) -> int:
    """Index of the smallest group; ties go to the smallest index."""
    return int(np.argmin(ds.n_g))


def _ordering_ranks(ds: GroupedDataset, cfg: TuneConfig) -> np.ndarray:
    """:func:`order_1d` of the features ``cfg.order_on`` names."""
    if cfg.order_on == "raw" or cfg.model.architecture == LINEAR:
        return order_1d(ds.features)
    warm_cfg = replace(
        cfg.solver, mode=ERM, epsilon=0.0, iterations=cfg.warmup_iterations,
        checkpoint_every=max(1, cfg.warmup_iterations),
    )
    init = init_params(cfg.model, ds.d, ds.num_labels, seed=warm_cfg.seed)
    warm = solver.train(ds, ds, init, warm_cfg)
    try:
        return order_1d(latent(warm.final.theta, ds.features))
    except TuningInfeasibleError as exc:
        raise TuningInfeasibleError(
            f"{exc}; these are the latents of the {cfg.warmup_iterations}-step ERM warm-up "
            f"model, and tuning.order_on: \"raw\" orders on the raw features") from None


def tune_epsilon(ds_train: GroupedDataset, config: TuneConfig) -> TuneResult:
    """Pick the radius parameter maximizing minority-group holdout accuracy.

    Candidates are ``scale * sqrt(n_min)`` for each of ``config.grid_scale``.
    Every candidate trains the hierarchical solver on both quantile splits,
    all candidates of a split in one lockstep run; selection within each run
    follows the usual worst-group-validation rule with the holdout acting as
    the validation set.  A diverging candidate raises its ``DivergenceError``
    (the first in candidate-then-split order).
    """
    if np.any(ds_train.n_g == 0):
        raise InvalidDatasetError("tuning requires every group to be nonempty")

    minority = minority_group(ds_train)
    n_min = int(ds_train.n_g[minority])
    candidates = tuple(s * math.sqrt(n_min) for s in config.grid_scale)
    for scale, eps in zip(config.grid_scale, candidates):
        if not math.isfinite(eps):
            raise ParameterError(f"grid_scale: scale {scale!r} times sqrt({n_min}), the smallest "
                                 f"training group: epsilon must be finite, got {eps}")
    # Built first, so that a candidate the solver refuses fails before any training.
    run_cfgs = [replace(config.solver, mode=HIERARCHICAL, epsilon=eps) for eps in candidates]

    splits = quantile_splits(ds_train, _ordering_ranks(ds_train, config))

    # One lockstep run per split, one row per candidate; all rows share the
    # seed, so they share the initial model and the minibatch stream.
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
        table=table,
        chosen_epsilon=float(candidates[best]),
        chosen_scale=float(config.grid_scale[best]),
        minority_group=minority,
        n_min=n_min,
    )
