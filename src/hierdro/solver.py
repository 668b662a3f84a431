"""Three-coordinate stochastic minimax training.

Each iteration samples one group, draws a with-replacement minibatch from it,
and then performs in order:

1. latent ascent: every example's latent is pushed to (approximately) the
   loss maximizer inside its group's perturbation ball (skipped when the
   ball radius is zero);
2. mixture ascent: the sampled group's simplex weight is scaled by
   ``exp(eta_beta * (batch loss + C / sqrt(n_g)))`` and the weights are
   renormalized (exponentiated-gradient / mirror ascent on the simplex);
3. descent: ``theta <- theta - eta_theta * beta_g * mean gradient`` evaluated
   at the perturbed latents, with the updated ``beta_g``.

Modes are nested degenerate cases sharing one code path and one random
stream: ``hierarchical`` runs everything; ``group_dro`` forces the radii to
zero; ``erm`` additionally freezes ``beta`` at the empirical proportions
``alpha`` (every mode initializes ``beta = alpha``), which makes the ERM step
plain stochastic descent on the batch loss scaled by the constant ``alpha_g``.

The returned model is chosen among checkpoints of the last iterate; the
running average of the iterates is kept beside it for the convergence
diagnostics.  A step with a zero radius backpropagates through the hidden
layer of an ``mlp1`` model; a step at perturbed latents trains only the
output layer unless ``backprop_through_feature`` is set (see :mod:`model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ambiguity as amb
from . import evaluation, model
from .ambiguity import AmbiguityConfig
from .datagen import GroupedDataset
from .errors import DivergenceError, InvalidDatasetError, ParameterError
from .model import ModelParams

ERM = "erm"
GROUP_DRO = "group_dro"
HIERARCHICAL = "hierarchical"
MODES = (ERM, GROUP_DRO, HIERARCHICAL)

GROUP_UNIFORM = "group-uniform"
EMPIRICAL = "empirical"
SAMPLING = (GROUP_UNIFORM, EMPIRICAL)

MODE_LABELS = {ERM: "ERM", GROUP_DRO: "GroupDRO", HIERARCHICAL: "Hierarchical"}


@dataclass(frozen=True)
class SolverConfig:
    """One training run.

    ``inner_steps`` and ``eta_z`` set the latent ascent; ``eta_z=None``
    selects the step ``10 * eps_g``, which reaches the ball boundary whenever
    the latent gradient has norm at least 0.1.
    """

    mode: str
    eta_beta: float
    eta_theta: float
    epsilon: float = 0.0
    adjustment: float = 0.0
    iterations: int = 0
    batch_size: int = 1
    eta_z: float | None = None
    inner_steps: int = 1
    sampling: str = GROUP_UNIFORM
    seed: int = 0
    checkpoint_every: int = 100
    decay_steps: bool = False
    backprop_through_feature: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sampling not in SAMPLING:
            raise ParameterError(f"sampling must be one of {SAMPLING}")
        if self.eta_beta <= 0 or self.eta_theta <= 0:
            raise ParameterError("step sizes must be positive")
        if self.epsilon < 0 or self.adjustment < 0:
            raise ParameterError("epsilon and adjustment must be nonnegative")
        if self.iterations < 0 or self.batch_size < 1 or self.checkpoint_every < 1:
            raise ParameterError("iterations/batch_size/checkpoint_every out of range")
        if self.inner_steps < 1:
            raise ParameterError("inner_steps must be at least 1")
        if self.eta_z is not None and self.eta_z <= 0:
            raise ParameterError("eta_z must be positive")

    @property
    def effective_epsilon(self) -> float:
        """Radius scale actually used: only the hierarchical mode perturbs."""
        return self.epsilon if self.mode == HIERARCHICAL else 0.0

    def ambiguity(self) -> AmbiguityConfig:
        return AmbiguityConfig(epsilon=self.effective_epsilon)


@dataclass
class Batch:
    group: int
    x: np.ndarray
    y: np.ndarray


@dataclass
class Checkpoint:
    iteration: int
    group_losses: np.ndarray
    beta: np.ndarray
    worst_val_acc: float
    avg_val_acc: float
    theta: ModelParams
    theta_bar: ModelParams


@dataclass
class TrainState:
    theta: ModelParams
    beta: np.ndarray
    theta_bar: ModelParams
    t: int = 0
    history: list[Checkpoint] = field(default_factory=list)


@dataclass
class TrainResult:
    best: ModelParams
    best_iteration: int
    best_worst_val_acc: float
    final: TrainState
    history: list[Checkpoint]


class GroupSampler:
    """Draws (group, minibatch row indices) per the configured sampling mode."""

    def __init__(self, ds: GroupedDataset, config: SolverConfig):
        self.ds = ds
        self.config = config
        self.group_rows = [ds.group_rows(g) for g in range(ds.num_groups)]

    def draw(self, rng: np.random.Generator) -> Batch:
        if self.config.sampling == GROUP_UNIFORM:
            g = int(rng.integers(self.ds.num_groups))
        else:
            g = int(rng.choice(self.ds.num_groups, p=self.ds.alpha))
        rows = self.group_rows[g]
        idx = rows[rng.integers(0, rows.size, size=self.config.batch_size)]
        return Batch(group=g, x=self.ds.features[idx], y=self.ds.labels[idx])


def update_beta(
    beta: np.ndarray,
    g: int,
    loss_value: float,
    eta_beta: float,
    adjustment: float,
    n_g: int,
) -> np.ndarray:
    """Exponentiated-gradient step on coordinate ``g``, then renormalize.

    Computed in log space so large losses cannot overflow.
    """
    if not math.isfinite(loss_value):
        raise DivergenceError(
            "non-finite loss in simplex update",
            snapshot={"group": g, "loss": loss_value, "beta": np.asarray(beta).tolist()},
        )
    beta = np.asarray(beta, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    log_beta[g] += eta_beta * (loss_value + adjustment / math.sqrt(n_g))
    log_beta -= log_beta.max()
    out = np.exp(log_beta)
    return out / out.sum()


def train_step(
    state: TrainState,
    batch: Batch,
    config: SolverConfig,
    n_per_group: np.ndarray,
) -> TrainState:
    """One iteration of the three-coordinate update; mutates and returns ``state``."""
    g = batch.group
    n_g = int(n_per_group[g])
    t_next = state.t + 1
    scale = 1.0 / math.sqrt(t_next) if config.decay_steps else 1.0

    z = model.latent(state.theta, batch.x)
    eps_g = amb.radius(config.effective_epsilon, n_g)
    if eps_g > 0:
        z_prime = amb.inner_maximize(
            state.theta, z, batch.y, eps_g, steps=config.inner_steps, eta_z=config.eta_z,
        )
    else:
        z_prime = z

    losses = model.cross_entropy(model.logits_from_latent(state.theta, z_prime), batch.y)
    mean_loss = float(np.mean(losses))
    if not math.isfinite(mean_loss):
        raise DivergenceError(
            "non-finite batch loss",
            snapshot={"iteration": t_next, "group": g, "loss": mean_loss,
                      "theta_norm": model.params_norm(state.theta)},
        )

    if config.mode != ERM:
        state.beta = update_beta(
            state.beta, g, mean_loss, config.eta_beta * scale, config.adjustment, n_g
        )

    grads = model.grad_wrt_params(
        state.theta, z_prime, batch.x, batch.y,
        backprop_through_feature=config.backprop_through_feature or eps_g == 0,
    )
    if not model.grads_finite(grads):
        raise DivergenceError(
            "non-finite parameter gradient",
            snapshot={"iteration": t_next, "group": g,
                      "theta_norm": model.params_norm(state.theta)},
        )
    state.theta = model.sgd_step(
        state.theta, grads, config.eta_theta * scale * float(state.beta[g])
    )
    state.t = t_next
    state.theta_bar = model.average_params(state.theta_bar, state.theta, t_next)
    return state


def group_mean_losses(theta: ModelParams, ds: GroupedDataset) -> np.ndarray:
    """Unperturbed mean cross-entropy per group (nan for absent groups)."""
    z = model.latent(theta, ds.features)
    losses = model.cross_entropy(model.logits_from_latent(theta, z), ds.labels)
    out = np.full(ds.num_groups, np.nan)
    for g in range(ds.num_groups):
        rows = ds.group_rows(g)
        if rows.size:
            out[g] = float(losses[rows].mean())
    return out


def _record_checkpoint(
    state: TrainState,
    ds_train: GroupedDataset,
    ds_val: GroupedDataset,
    weights: np.ndarray,
) -> Checkpoint:
    report = evaluation.evaluate(state.theta, ds_val, weights)
    cp = Checkpoint(
        iteration=state.t,
        group_losses=group_mean_losses(state.theta, ds_train),
        beta=state.beta.copy(),
        worst_val_acc=report.worst_group_acc,
        avg_val_acc=report.avg_acc_weighted,
        theta=state.theta,
        theta_bar=state.theta_bar,
    )
    state.history.append(cp)
    return cp


def init_state(model_init: ModelParams, ds_train: GroupedDataset) -> TrainState:
    return TrainState(theta=model_init, beta=ds_train.alpha.copy(), theta_bar=model_init)


def train(
    ds_train: GroupedDataset,
    ds_val: GroupedDataset,
    model_init: ModelParams,
    config: SolverConfig,
) -> TrainResult:
    """Run ``config.iterations`` steps and select by worst-group validation accuracy.

    Checkpoints are taken every ``config.checkpoint_every`` iterations and at
    the final iteration; the earliest checkpoint attaining the maximum
    worst-group validation accuracy is returned as ``best``.  The whole run
    is a pure function of (datasets, initial model, config).
    """
    if np.any(ds_train.n_g == 0):
        empty = np.flatnonzero(ds_train.n_g == 0).tolist()
        raise InvalidDatasetError(f"training groups {empty} are empty")

    rng = np.random.default_rng(config.seed)
    sampler = GroupSampler(ds_train, config)
    state = init_state(model_init, ds_train)
    weights = ds_train.alpha.copy()

    for _ in range(config.iterations):
        state = train_step(state, sampler.draw(rng), config, ds_train.n_g)
        if state.t % config.checkpoint_every == 0 or state.t == config.iterations:
            _record_checkpoint(state, ds_train, ds_val, weights)

    if not state.history:
        _record_checkpoint(state, ds_train, ds_val, weights)
    best = max(state.history, key=lambda cp: (cp.worst_val_acc, -cp.iteration))
    return TrainResult(
        best=best.theta,
        best_iteration=best.iteration,
        best_worst_val_acc=best.worst_val_acc,
        final=state,
        history=state.history,
    )


def objective_value(
    theta: ModelParams,
    ds: GroupedDataset,
    ambiguity: AmbiguityConfig,
):
    """Per-group ball-supremum risks and their maximum over the simplex.

    For two classes the supremum has a closed form
    (:func:`ambiguity.binary_robust_loss`).  Other class counts fall back to
    multi-start latent ascent (approximate).

    Returns ``(f_g, worst)`` where absent groups have ``f_g = nan``.
    """
    f_g = np.full(ds.num_groups, np.nan)
    z = model.latent(theta, ds.features)
    if theta.num_classes == 2:
        v = theta.w_out[1] - theta.w_out[0]
        c = theta.b_out[1] - theta.b_out[0]
        v_norm = np.linalg.norm(v)
        sign = 2.0 * ds.labels.astype(np.float64) - 1.0
    for g in range(ds.num_groups):
        rows = ds.group_rows(g)
        if rows.size == 0:
            continue
        eps_g = amb.radius(ambiguity.epsilon, rows.size)
        if theta.num_classes == 2:
            losses, _ = amb.binary_robust_loss(z[rows], sign[rows], v, c, eps_g, v_norm)
            f_g[g] = float(np.mean(losses))
        else:
            total = 0.0
            for i in rows:
                total += amb.ball_supremum(theta, z[i], int(ds.labels[i]), eps_g)
            f_g[g] = total / rows.size
    worst = float(np.nanmax(f_g))
    return f_g, worst


def write_history_csv(history: list[Checkpoint], num_groups: int, path, header_comment: str = "") -> None:
    """Training trace: iteration, per-group loss, beta, validation metrics."""
    cols = (["iteration"]
            + [f"loss_g{g}" for g in range(num_groups)]
            + [f"beta_g{g}" for g in range(num_groups)]
            + ["worst_val_acc", "avg_val_acc"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        fh.write(",".join(cols) + "\n")
        for cp in history:
            cells = [str(cp.iteration)]
            cells.extend("%.10g" % v for v in cp.group_losses)
            cells.extend("%.10g" % v for v in cp.beta)
            cells.append("%.10g" % cp.worst_val_acc)
            cells.append("%.10g" % cp.avg_val_acc)
            fh.write(",".join(cells) + "\n")
