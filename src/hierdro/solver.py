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
diagnostics, which measure it against the robust objective in
:mod:`convergence`.  A step with a zero radius backpropagates through the hidden
layer of an ``mlp1`` model; a step at perturbed latents trains only the
output layer unless ``backprop_through_feature`` is set (see :mod:`model`).

Trajectories of one shape run in lockstep (:func:`train_lockstep`): their
parameters are stacked as ``(R, K, d)``, ``beta`` as ``(R, m)``, and one
:func:`train_step` advances all R rows with one set of numpy calls, apart
from the latent ascent, which calls :func:`ambiguity.inner_maximize` once
per row with a positive radius, as a lone run does.  Rows share the fields
in ``SHARED`` and the architecture; mode, seed, radius, step sizes and
initial model are set per row, and mode degeneracy becomes a per-row mask
(a radius-0 row keeps ``z' = z``, an ERM row keeps ``beta``).
Each row draws from its own ``Generator`` in the order a lone run does, and
rows with equal seeds share one stream and one gather.  A row that diverges
is retired with its ``DivergenceError`` while the others go on.  Every row's
result is bitwise the result of training it alone; :func:`train` is the
one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ambiguity as amb
from . import evaluation, model
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
        for name in ("epsilon", "eta_beta", "eta_theta", "adjustment", "eta_z"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
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


@dataclass
class Batch:
    """One minibatch per row: ``group`` holds a group per row; ``x`` and
    ``y`` are ``(R, B, d)`` and ``(R, B)``, or ``(1, B, d)`` and ``(1, B)``
    when every row shares them.  :meth:`GroupSampler.draw` returns the
    unstacked form of one row: an int group, ``(B, d)`` and ``(B,)``."""

    group: int | np.ndarray
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
    """Where one trajectory ended: the last iterate, its ``beta``, the running average."""

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


# The fields that set the shape of the loop: rows trained in lockstep share
# them.  Every other field, and the initial model, may differ between rows.
SHARED = ("iterations", "checkpoint_every", "batch_size", "decay_steps", "sampling", "inner_steps")


@dataclass
class Rows:
    """The per-row settings of trajectories that advance in lockstep, as arrays.

    ``radii[r, g]`` is row ``r``'s ball radius for group ``g`` (zero unless
    hierarchical); ERM rows have ``learns_beta`` false.  ``backprop_flag``
    is ``backprop`` as one bool when the rows agree.  The ``some_``/``all_`` flags say whether any or every row ascends
    or learns ``beta``, so that a step skips a phase no row needs.
    """

    configs: tuple[SolverConfig, ...]
    n_per_group: np.ndarray
    radii: np.ndarray
    eta_beta: np.ndarray
    eta_theta: np.ndarray
    adjustment: np.ndarray
    learns_beta: np.ndarray
    backprop: np.ndarray
    backprop_flag: bool | np.ndarray
    index: np.ndarray
    some_ascent: bool
    all_ascent: bool
    some_learn: bool
    all_learn: bool

    @classmethod
    def of(cls, configs, n_per_group: np.ndarray) -> Rows:
        """Raises ``ParameterError`` unless the rows share the fields in ``SHARED``."""
        configs = tuple(configs)
        for name in SHARED:
            values = {getattr(c, name) for c in configs}
            if len(values) > 1:
                raise ParameterError(
                    f"rows trained in lockstep must share {name}, got {sorted(values, key=str)}")

        def column(value, dtype=np.float64):
            return np.array([value(c) for c in configs], dtype=dtype)

        epsilon = column(lambda c: c.effective_epsilon)
        radii = amb.radius(epsilon[:, None], np.asarray(n_per_group)[None, :])
        learns_beta = column(lambda c: c.mode != ERM, bool)
        backprop = column(lambda c: c.backprop_through_feature, bool)
        return cls(
            configs=configs, n_per_group=n_per_group, radii=radii,
            eta_beta=column(lambda c: c.eta_beta),
            eta_theta=column(lambda c: c.eta_theta),
            adjustment=column(lambda c: c.adjustment),
            learns_beta=learns_beta,
            backprop=backprop,
            backprop_flag=bool(backprop.all()) if backprop.all() == backprop.any() else backprop,
            index=np.arange(len(configs)),
            some_ascent=bool((radii > 0).any()), all_ascent=bool((radii > 0).all()),
            some_learn=bool(learns_beta.any()), all_learn=bool(learns_beta.all()),
        )

    @property
    def shared(self) -> SolverConfig:
        return self.configs[0]

    def take(self, keep: np.ndarray) -> Rows:
        return Rows.of((self.configs[i] for i in keep), self.n_per_group)


@dataclass
class Lockstep:
    """R trajectories of one shape advancing together, one row each.

    Row ``i`` of ``theta``, ``beta`` and ``theta_bar`` (each with a leading
    row axis) is trajectory ``ids[i]``, trained under ``rows.configs[i]``.
    A row that diverges leaves every array, and its error goes to ``failed``
    under its id.
    """

    theta: ModelParams
    beta: np.ndarray
    theta_bar: ModelParams
    rows: Rows
    ids: np.ndarray
    t: int = 0
    failed: dict[int, DivergenceError] = field(default_factory=dict)

    @classmethod
    def start(cls, inits, configs, ds_train: GroupedDataset) -> Lockstep:
        """Row ``r`` starts from ``inits[r]`` with ``beta = alpha`` under ``configs[r]``.

        Raises ``ParameterError`` unless the rows share the fields in ``SHARED``
        and the models share one shape.
        """
        rows = Rows.of(configs, ds_train.n_g)
        if not rows.configs:
            raise ParameterError("lockstep training needs at least one row")
        theta = model.stack_params(inits)
        if theta.w_out.shape[0] != len(rows.configs):
            raise ParameterError("lockstep training needs one initial model per row")
        return cls(theta=theta, beta=np.tile(ds_train.alpha, (len(rows.configs), 1)),
                   theta_bar=theta, rows=rows, ids=rows.index.copy())

    def retire(self, keep: np.ndarray) -> None:
        """Keep only the rows at positions ``keep``."""
        self.theta = model.row_params(self.theta, keep)
        self.theta_bar = model.row_params(self.theta_bar, keep)
        self.beta = self.beta[keep]
        self.ids = self.ids[keep]
        self.rows = self.rows.take(keep)


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


def stack_batches(batches: list[Batch], pos: np.ndarray | None, num_rows: int) -> Batch:
    """Row ``i`` takes ``batches[pos[i]]``; ``pos=None`` means every row
    shares ``batches[0]``, which then keeps a leading axis of 1."""
    if pos is None:
        b = batches[0]
        return Batch(group=np.array([b.group] * num_rows), x=b.x[None], y=b.y[None])
    return Batch(group=np.array([b.group for b in batches])[pos],
                 x=np.stack([b.x for b in batches])[pos],
                 y=np.stack([b.y for b in batches])[pos])


def update_beta(
    beta: np.ndarray,
    g,
    loss_value,
    eta_beta,
    adjustment,
    n_g,
) -> np.ndarray:
    """Exponentiated-gradient step on coordinate ``g``, then renormalize.

    Computed in log space so large losses cannot overflow.  For row-stacked
    ``beta`` of shape ``(R, m)`` every other argument holds one value per row.
    """
    if not np.isfinite(loss_value).all():
        raise DivergenceError(
            "non-finite loss in simplex update",
            snapshot={"group": np.asarray(g).tolist(), "loss": np.asarray(loss_value).tolist(),
                      "beta": np.asarray(beta).tolist()},
        )
    beta = np.asarray(beta, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    at = g if beta.ndim == 1 else (np.arange(beta.shape[0]), g)
    log_beta[at] += eta_beta * (loss_value + adjustment / np.sqrt(n_g))
    log_beta -= log_beta.max(axis=-1, keepdims=True)
    out = np.exp(log_beta)
    return out / out.sum(axis=-1, keepdims=True)


def train_step(state: Lockstep, batch: Batch) -> Lockstep:
    """One iteration of the three-coordinate update for every row; mutates and returns ``state``.

    A row whose batch loss or parameter gradient is not finite is retired
    with the ``DivergenceError`` a one-row run raises; the other rows' results
    do not depend on it.
    """
    rows = state.rows
    g = batch.group
    t_next = state.t + 1
    scale = 1.0 / math.sqrt(t_next) if rows.shared.decay_steps else 1.0
    theta = state.theta

    z = model.latent(theta, batch.x)
    z_prime = z
    hidden = rows.backprop_flag if rows.all_ascent else True
    if rows.some_ascent:
        # Row by row, as a lone run ascends; a row with radius zero keeps z' = z.
        # Row i of ``z`` and ``y`` is ``[i % len]``: they have R rows or one shared row.
        eps_g = rows.radii[rows.index, g]
        ascended = []
        for i, eps in enumerate(eps_g.tolist()):
            z_i, y_i = z[i % len(z)], batch.y[i % len(batch.y)]
            ascended.append(z_i if eps == 0 else amb.inner_maximize(
                model.row_params(theta, i), z_i, y_i, eps, steps=rows.shared.inner_steps,
                eta_z=rows.configs[i].eta_z))
        z_prime = np.stack(ascended)
        if not rows.all_ascent:
            hidden = rows.backprop | (eps_g == 0)

    losses, grads = model.loss_and_param_grads(theta, z_prime, batch.x, batch.y,
                                               backprop_through_feature=hidden)
    mean_loss = losses.mean(axis=-1)
    finite = np.isfinite(mean_loss)
    all_finite = finite.all()
    if rows.some_learn:
        loss = mean_loss if all_finite else np.where(finite, mean_loss, 0.0)
        beta = update_beta(state.beta, g, loss, rows.eta_beta * scale, rows.adjustment,
                           rows.n_per_group[g])
        state.beta = beta if rows.all_learn else np.where(
            rows.learns_beta[:, None], beta, state.beta)

    grads_finite = model.grads_finite(grads)
    state.theta = model.sgd_step(theta, grads, rows.eta_theta * scale * state.beta[rows.index, g])
    state.t = t_next
    state.theta_bar = model.average_params(state.theta_bar, state.theta, t_next)
    if not (all_finite and grads_finite.all()):
        finite &= grads_finite
        for i in np.flatnonzero(~finite):
            snapshot = {"iteration": t_next, "group": int(g[i])}
            if np.isfinite(mean_loss[i]):
                message = "non-finite parameter gradient"
            else:
                message = "non-finite batch loss"
                snapshot["loss"] = float(mean_loss[i])
            snapshot["theta_norm"] = model.params_norm(model.row_params(theta, i))
            state.failed[int(state.ids[i])] = DivergenceError(message, snapshot=snapshot)
        state.retire(np.flatnonzero(finite))
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
    state: Lockstep,
    i: int,
    ds_train: GroupedDataset,
    ds_val: GroupedDataset,
    weights: np.ndarray,
) -> Checkpoint:
    """The checkpoint of the row at position ``i``."""
    theta = model.row_params(state.theta, i)
    report = evaluation.evaluate(theta, ds_val, weights)
    return Checkpoint(
        iteration=state.t,
        group_losses=group_mean_losses(theta, ds_train),
        beta=state.beta[i].copy(),
        worst_val_acc=report.worst_group_acc,
        avg_val_acc=report.avg_acc_weighted,
        theta=theta,
        theta_bar=model.row_params(state.theta_bar, i),
    )


def _streams(rngs: dict, seeds: list[int], ids: np.ndarray):
    """The random streams the live rows ``ids`` draw from, each once, and
    each live row's position among them (``None`` when they all share one)."""
    live = [seeds[i] for i in ids]
    order = list(dict.fromkeys(live))
    pos = None if len(order) == 1 else np.array([order.index(s) for s in live])
    return [rngs[seed] for seed in order], pos


def train_lockstep(
    ds_train: GroupedDataset,
    ds_val: GroupedDataset,
    inits,
    configs,
) -> list[TrainResult | DivergenceError]:
    """Train R trajectories of one shape in lockstep, row ``r`` from
    ``inits[r]`` under ``configs[r]``.

    Each step advances every row with one set of numpy calls (the latent
    ascent apart, which runs row by row).  Rows must share
    the fields in ``SHARED`` and the model shape (``ParameterError``
    otherwise); rows with equal seeds share one random stream and one
    minibatch gather.  Returns, in row order, each row's ``TrainResult``,
    bitwise what :func:`train` returns for that row alone, or the
    ``DivergenceError`` it would raise.
    """
    if np.any(ds_train.n_g == 0):
        empty = np.flatnonzero(ds_train.n_g == 0).tolist()
        raise InvalidDatasetError(f"training groups {empty} are empty")

    state = Lockstep.start(inits, configs, ds_train)
    shared = state.rows.shared
    sampler = GroupSampler(ds_train, shared)
    seeds = [c.seed for c in state.rows.configs]
    rngs = {seed: np.random.default_rng(seed) for seed in seeds}
    weights = ds_train.alpha.copy()
    histories = [[] for _ in seeds]

    streams, pos = _streams(rngs, seeds, state.ids)
    for _ in range(shared.iterations):
        live = state.ids.size
        batch = stack_batches([sampler.draw(rng) for rng in streams], pos, live)
        state = train_step(state, batch)
        if state.ids.size != live:
            if not state.ids.size:
                break
            streams, pos = _streams(rngs, seeds, state.ids)
        if state.t % shared.checkpoint_every == 0 or state.t == shared.iterations:
            for i, k in enumerate(state.ids):
                histories[k].append(_record_checkpoint(state, i, ds_train, ds_val, weights))

    results = [state.failed.get(k) for k in range(len(seeds))]
    for i, k in enumerate(state.ids):
        history = histories[k]
        if not history:
            history.append(_record_checkpoint(state, i, ds_train, ds_val, weights))
        best = max(history, key=lambda cp: (cp.worst_val_acc, -cp.iteration))
        final = TrainState(theta=model.row_params(state.theta, i), beta=state.beta[i],
                           theta_bar=model.row_params(state.theta_bar, i), t=state.t,
                           history=history)
        results[k] = TrainResult(best=best.theta, best_iteration=best.iteration,
                                 best_worst_val_acc=best.worst_val_acc, final=final,
                                 history=history)
    return results


def train(
    ds_train: GroupedDataset,
    ds_val: GroupedDataset,
    model_init: ModelParams,
    config: SolverConfig,
) -> TrainResult:
    """Run ``config.iterations`` steps and select by worst-group validation accuracy.

    The one-row case of :func:`train_lockstep`.  Checkpoints are taken every
    ``config.checkpoint_every`` iterations and at the final iteration; the
    earliest checkpoint attaining the maximum worst-group validation accuracy
    is returned as ``best``.  The whole run is a pure function of (datasets,
    initial model, config).  Raises ``DivergenceError`` if the run diverges.
    """
    (result,) = train_lockstep(ds_train, ds_val, [model_init], [config])
    if isinstance(result, DivergenceError):
        raise result
    return result


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
