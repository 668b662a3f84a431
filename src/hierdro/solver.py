"""Three-coordinate stochastic minimax training.

Each iteration samples one group, draws a with-replacement minibatch from it,
and then performs in order:

1. latent ascent: every example's latent is moved to the loss maximizer
   inside its group's perturbation ball, exactly for a binary head (in
   closed form) and to first order, by one normalized gradient step to the
   sphere, for more classes (skipped when the ball radius is zero);
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

The returned model is chosen among checkpoints of the last iterate.  A step
carries only what training reads: no running average of the iterates is
kept, and the rate study in :mod:`convergence`, which measures the averaged
iterate, averages the iterates it steps itself.  Every step backpropagates
the gradient at the perturbed latents through the hidden layer of an
``mlp1`` model, which is the gradient of the robust objective (see
:mod:`model`); a step with a zero radius is ordinary backpropagation.

Trajectories of one shape run in lockstep.  One :class:`Lockstep` holds
their state and what they draw from: the parameters stacked as
``(R, K, d)``, ``beta`` as ``(R, m)``, each row's radii, mode and seed as
arrays, and the training split.  One :func:`train_step` advances all R
rows with one set of numpy calls, the latent ascent among them: one call
ascends every row with a positive radius at once, and each row's
endpoints are bitwise those of :func:`ambiguity.inner_maximize` on that
row's own model, latents, labels and radius.  Rows differ only in the fields in
``PER_ROW`` (mode, radius and seed) and in their initial model; every
other config field, the step sizes and the adjustment among them, and the
architecture are shared.  Mode degeneracy becomes a per-row mask (a
radius-0 row keeps ``z' = z``, an ERM row keeps ``beta``).
:func:`advance`, given only the ``Lockstep``, is the one loop that draws
the batches, a block of steps per random stream at a time
(:meth:`GroupSampler.draws`), and calls :func:`train_step`;
:func:`train_lockstep` takes checkpoints and selects around it, and the
oracle checks and the rate study drive it too.  :meth:`Lockstep.start`
checks the rows' models against the training split once, and a step calls
the model's and the simplex update's unchecked kernels, with the constants
it would otherwise rebuild (the labels' flat positions, each group's
adjustment) read from the ``Lockstep``; the public functions are checked
wrappers over the same kernels, so each formula is written once.  The step writes its parameter
gradients and its rows' batch losses into one buffer that the
``Lockstep`` owns, and one dot product of that buffer with itself screens
them: the sum of squares is finite only if every entry is, so only a step
whose sum is not finite, or whose ascent failed, tests each row.  A row
that diverges is retired with its ``DivergenceError`` while the others go
on.  Every row's result is bitwise the result of training it alone;
:func:`train` is the one-row case.  A result's ``final``, where its
trajectory ended, is its last checkpoint.  A checkpoint computes its
per-group training losses when they are first read
(:attr:`Checkpoint.group_losses`): ``run`` writes them to ``history.csv``,
and tuning, which selects on holdout accuracy, never reads them.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

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

    The latent ascent has no settings: :func:`ambiguity.inner_maximize`
    fixes it by the number of classes.
    """

    mode: str
    eta_beta: float
    eta_theta: float
    epsilon: float = 0.0
    adjustment: float = 0.0
    iterations: int = 0
    batch_size: int = 1
    sampling: str = GROUP_UNIFORM
    seed: int = 0
    checkpoint_every: int = 100
    decay_steps: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.sampling not in SAMPLING:
            raise ParameterError(f"sampling must be one of {SAMPLING}")
        for name in ("epsilon", "eta_beta", "eta_theta", "adjustment"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.eta_beta <= 0 or self.eta_theta <= 0:
            raise ParameterError("step sizes must be positive")
        # A negative zero counts as negative: a -0.0 radius would be printed as one.
        if math.copysign(1.0, self.epsilon) < 0 or self.adjustment < 0:
            raise ParameterError("epsilon and adjustment must be nonnegative")
        if self.iterations < 0 or self.batch_size < 1 or self.checkpoint_every < 1:
            raise ParameterError("iterations/batch_size/checkpoint_every out of range")

    @property
    def effective_epsilon(self) -> float:
        """Radius scale actually used: only the hierarchical mode perturbs."""
        return self.epsilon if self.mode == HIERARCHICAL else 0.0


@dataclass
class Batch:
    """One step's minibatch for R rows: ``group`` holds a group per row; ``x``
    and ``y`` are ``(R, B, d)`` and ``(R, B)``, or ``(1, B, d)`` and
    ``(1, B)`` when every row shares them."""

    group: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass
class Checkpoint:
    """One row's state at one iteration, with its validation accuracies.

    ``group_losses``, the per-group mean losses on ``train``, the training
    split the checkpoint was taken on, are computed when first read.
    """

    iteration: int
    beta: np.ndarray
    worst_val_acc: float
    avg_val_acc: float
    theta: ModelParams
    train: GroupedDataset = field(repr=False, compare=False)

    @functools.cached_property
    def group_losses(self) -> np.ndarray:
        return group_mean_losses(self.theta, self.train)


@dataclass
class TrainResult:
    """One trajectory's checkpoints and the one chosen among them.

    ``final``, the last checkpoint, is where the trajectory ended: one is
    always taken at the last iteration, or at ``t = 0`` when there are none.
    """

    best: ModelParams
    best_iteration: int
    best_worst_val_acc: float
    history: list[Checkpoint]

    @property
    def final(self) -> Checkpoint:
        return self.history[-1]


# The config fields in which rows trained in lockstep may differ, besides
# their initial model; they must agree on every other field.
PER_ROW = ("mode", "epsilon", "seed")


@dataclass
class Lockstep:
    """R trajectories of one shape advancing together, one row each, with their settings.

    Row ``i`` of ``theta`` and ``beta`` (each with a leading row axis) and of
    every per-row setting in ``ROWS`` is trajectory ``ids[i]``.  No running
    average of the iterates is kept, and :func:`advance` is the one loop that
    steps a ``Lockstep``, drawing from ``train``, the training split, with
    ``seeds[i]``, row ``i``'s seed as the exact int of its config (an object
    array: a seed may exceed int64).  ``shared`` is the first row's config at
    the start; only its fields outside ``PER_ROW``, which every row has, are
    read, the step sizes and the adjustment among them.  ``radii[i, g]`` is row
    ``i``'s ball radius for group ``g`` (zero unless hierarchical); ERM rows
    have ``learns_beta`` false.  ``ascending`` indexes the rows with a
    positive radius, the rows that ascend: ``None`` when there are none, a
    slice when they are consecutive, as in every layout the package trains,
    so that the ascent reads and writes views of them, else an index array.
    ``some_``/``all_learn`` say whether any or every row learns ``beta``, so
    that a step skips a phase no row needs.  ``label_base`` holds the flat
    position of class 0 of every example of a step's ``(R, B, K)`` scores,
    so that the labels' entries are ``label_base + y``, and ``penalty[g]``
    group ``g``'s adjustment ``C / sqrt(n_g)``: what every step would
    otherwise rebuild.  ``screen`` is one float buffer that a step writes
    and then checks with one dot product: ``grads``, views of it shaped as
    the arrays of ``theta``, one contiguous block each, then ``mean_loss``,
    the rows' batch losses.  A row that diverges leaves every array, and its
    error goes to ``failed`` under its id; :meth:`retire` then recomputes
    these fields.
    """

    theta: ModelParams
    beta: np.ndarray
    ids: np.ndarray
    seeds: np.ndarray
    shared: SolverConfig
    train: GroupedDataset
    radii: np.ndarray
    learns_beta: np.ndarray
    t: int = 0
    failed: dict[int, DivergenceError] = field(default_factory=dict)
    index: np.ndarray = field(init=False)
    ascending: slice | np.ndarray | None = field(init=False)
    some_learn: bool = field(init=False)
    all_learn: bool = field(init=False)
    label_base: np.ndarray = field(init=False, repr=False)
    penalty: np.ndarray = field(init=False, repr=False)
    screen: np.ndarray = field(init=False, repr=False)
    grads: tuple = field(init=False, repr=False)
    mean_loss: np.ndarray = field(init=False, repr=False)

    # The arrays with one entry per row along their first axis, besides the models.
    ROWS = ("beta", "ids", "seeds", "radii", "learns_beta")

    def __post_init__(self):
        self.index = np.arange(self.ids.size)
        ascending = np.flatnonzero((self.radii > 0).any(axis=1))
        self.ascending = ascending
        if not ascending.size:
            self.ascending = None
        elif ascending[-1] - ascending[0] == ascending.size - 1:
            self.ascending = slice(int(ascending[0]), int(ascending[-1]) + 1)
        self.some_learn = bool(self.learns_beta.any())
        self.all_learn = bool(self.learns_beta.all())
        self.label_base = model._label_base((self.ids.size, self.shared.batch_size),
                                            self.theta.num_classes)
        self.penalty = _group_penalty(self.shared.adjustment, self.train.n_g)
        arrays = [a for a in self.theta.arrays() if a is not None]
        ends = np.cumsum([a.size for a in arrays]).tolist()
        self.screen = np.empty(ends[-1] + self.ids.size)
        self.grads = tuple(self.screen[end - a.size:end].reshape(a.shape)
                           for a, end in zip(arrays, ends))
        self.mean_loss = self.screen[ends[-1]:]

    @classmethod
    def start(cls, inits, configs, ds_train: GroupedDataset) -> Lockstep:
        """Row ``r`` starts from ``inits[r]`` with ``beta = alpha`` under ``configs[r]``.

        Raises ``InvalidDatasetError`` if a training group is empty, and
        ``ParameterError`` unless the rows agree on every field outside
        ``PER_ROW``, the models share one shape, and that shape fits
        ``ds_train``: its input dimension, a hidden layer as wide as the
        output layer reads, and at least as many classes as labels.  These
        are the checks that the model's public functions make, made here
        once, since a step calls their kernels.
        """
        if np.any(ds_train.n_g == 0):
            empty = np.flatnonzero(ds_train.n_g == 0).tolist()
            raise InvalidDatasetError(f"training groups {empty} are empty")
        configs = tuple(configs)
        for name in (f.name for f in fields(SolverConfig) if f.name not in PER_ROW):
            values = {getattr(c, name) for c in configs}
            if len(values) > 1:
                raise ParameterError(
                    f"rows trained in lockstep must share {name}, got {sorted(values, key=str)}")
        if not configs:
            raise ParameterError("lockstep training needs at least one row")
        theta = model.stack_params(inits)
        if theta.w_out.shape[0] != len(configs):
            raise ParameterError("lockstep training needs one initial model per row")
        # What a step's model kernels no longer check, checked once.
        if theta.input_dim != ds_train.d:
            raise ParameterError(f"expected input dim {theta.input_dim}, got {ds_train.d}")
        if theta.w_hidden is not None and theta.w_hidden.shape[-2] != theta.latent_dim:
            raise ParameterError(f"expected latent dim {theta.latent_dim}, "
                                 f"got {theta.w_hidden.shape[-2]}")
        if theta.num_classes < ds_train.num_labels:
            raise ParameterError(f"a model with {theta.num_classes} classes cannot train on "
                                 f"{ds_train.num_labels} labels")
        epsilon = np.array([c.effective_epsilon for c in configs], float)
        return cls(theta=theta, beta=np.tile(ds_train.alpha, (len(configs), 1)),
                   ids=np.arange(len(configs)), shared=configs[0], train=ds_train,
                   seeds=np.array([c.seed for c in configs], dtype=object),
                   radii=amb.radius(epsilon[:, None], ds_train.n_g[None, :]),
                   learns_beta=np.array([c.mode != ERM for c in configs]))

    def retire(self, keep: np.ndarray) -> None:
        """Keep only the rows at positions ``keep``, in place."""
        for name in self.ROWS:
            setattr(self, name, getattr(self, name)[keep])
        self.theta = model.row_params(self.theta, keep)
        self.__post_init__()


# The 32-bit halves of raw words that one block of draws reads at most, whatever the batch size.
_BLOCK_HALVES = 4096
_NO_WORDS = np.empty(0, np.uint64)


class WordStream:
    """The raw 64-bit words of ``default_rng(seed)``, handed out as its
    ``Generator`` hands them to numpy's draws.

    ``Generator.integers`` takes 32-bit halves (numpy's ``next_uint32``):
    the low half of a fresh word, whose high half is ``held`` for the next
    half.  ``Generator.random``, and so ``choice`` with probabilities, takes
    a whole fresh word and leaves a held half in place.  ``words`` are words
    taken from the generator and not yet handed out.
    """

    def __init__(self, seed):
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self.words = _NO_WORDS
        self.held = None

    def take(self, count: int) -> np.ndarray:
        """At least ``count`` words, the ones already taken first; ``words`` is left empty."""
        words = self.words
        if words.size < count:
            fresh = self._raw(count - words.size)
            words = np.concatenate((words, fresh)) if words.size else fresh
        self.words = _NO_WORDS
        return words

    def word(self) -> int:
        words = self.take(1)
        self.words = words[1:]
        return int(words[0])

    def half(self) -> int:
        if self.held is not None:
            half, self.held = self.held, None
            return half
        word = self.word()
        self.held = word >> 32
        return word & 0xFFFFFFFF


def _bounded(halves: np.ndarray, bound, threshold):
    """numpy's draw below ``bound`` (Lemire's multiply-shift) from each of the
    32-bit ``halves``: the values, and which halves it rejects, since
    ``(u * bound) mod 2**32`` falls below ``threshold = (2**32 - bound) % bound``."""
    product = halves * bound
    return (product >> 32).view(np.int64), product.astype(np.uint32) < threshold


def _bounded_one(stream: WordStream, bound: int) -> int:
    """``Generator.integers(bound)`` on ``stream``, drawing again after a
    rejection; a bound of 1 takes no bits."""
    if bound == 1:
        return 0
    threshold = (2**32 - bound) % bound
    while True:
        product = stream.half() * bound
        if product & 0xFFFFFFFF >= threshold:
            return product >> 32


class GroupSampler:
    """Draws (group, minibatch row indices) per the configured sampling mode.

    The sampling mode, the group count, the batch size and each group's
    rows are read once, here.  :meth:`draw` draws one step from a
    ``Generator``, as the loop once did, and is the oracle of
    :meth:`draws`, which draws a block of steps from a :class:`WordStream`
    of the same seed in a few numpy calls per block, each step bitwise what
    :meth:`draw` gives.  A group it draws must not be empty.
    """

    def __init__(self, ds: GroupedDataset, config: SolverConfig):
        self.uniform = config.sampling == GROUP_UNIFORM
        self.num_groups = ds.num_groups
        self.alpha = ds.alpha
        self.batch_size = config.batch_size
        self.group_rows = [ds.group_rows(g) for g in range(ds.num_groups)]
        n_g = np.array([rows.size for rows in self.group_rows])
        # Group g's rows are ``rows[start[g]:start[g] + n_g[g]]``.
        self.rows = np.concatenate(self.group_rows)
        self.start = np.cumsum(n_g) - n_g
        self.bound = n_g.astype(np.uint64)
        self.threshold = (2**32 - n_g) % np.maximum(n_g, 1)
        # A group of one row draws its rows without bits, so its step takes
        # fewer than a block's layout assumes.
        self.irregular = n_g < 2
        if not self.uniform:
            self.cdf = np.cumsum(self.alpha)     # as ``Generator.choice`` builds it
            self.cdf /= self.cdf[-1]
        self.block_steps = max(1, _BLOCK_HALVES // (self.batch_size + 2))
        self._layouts = {}

    def draw(self, rng: np.random.Generator) -> tuple[int, np.ndarray]:
        """The next group ``g`` of ``rng``'s stream and its minibatch's ``(B,)`` rows in ``g``."""
        if self.uniform:
            g = int(rng.integers(self.num_groups))
        else:
            g = int(rng.choice(self.num_groups, p=self.alpha))
        rows = self.group_rows[g]
        return g, rows[rng.integers(0, rows.size, size=self.batch_size)]

    def draws(self, stream: WordStream, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The groups ``(n,)`` and minibatch rows ``(n, B)`` of the next ``n``
        steps of ``stream``: bitwise what ``n`` calls of :meth:`draw` give on
        a ``Generator`` of the stream's seed.

        A block takes its words at once, and numpy's bounded draw runs on
        all of its halves at once (:func:`_bounded`); an ``empirical``
        group is ``Generator.choice``'s search of a whole word's double in
        ``cdf``.  The steps up to the first one that rejects a half, or
        draws a group of fewer than two rows, are kept as drawn; that step
        is drawn again one value at a time (:meth:`_replay`), and the block
        resumes after it.
        """
        groups, rows = [], []
        while n:
            steps = min(n, self.block_steps)
            whole, halves, used, held = self._layout(stream.held is not None)
            words = stream.take(used[steps])
            hh = np.empty(1 + 2 * words.size, np.uint32)
            hh[0] = stream.held or 0
            hh[1:] = words.astype("<u8", copy=False).view("<u4")    # low half first
            group_rejected = False
            if not self.uniform:
                g = self.cdf.searchsorted((words[whole[:steps]] >> 11) * 2.0**-53, side="right")
            elif self.num_groups > 1:
                g, group_rejected = _bounded(hh[whole[:steps]], np.uint64(self.num_groups),
                                             (2**32 - self.num_groups) % self.num_groups)
            else:
                g = np.zeros(steps, np.int64)
            at, rejected = _bounded(hh[halves[:steps]], self.bound[g, None],
                                    self.threshold[g, None])
            bad = self.irregular[g] | rejected.any(1) | group_rejected
            k = int(bad.argmax())
            if not bad[k]:
                k = steps
            groups.append(g[:k])
            rows.append(self.rows[self.start[g[:k], None] + at[:k]])
            stream.words = words[used[k]:]
            stream.held = int(hh[2 * used[k]]) if held[k] else None
            n -= k
            if k < steps:
                g, at = self._replay(stream)
                groups.append(np.array([g]))
                rows.append(at[None])
                n -= 1
        if len(groups) == 1:
            return groups[0], rows[0]
        return np.concatenate(groups), np.concatenate(rows)

    def _layout(self, held: bool) -> tuple:
        """Where the draws of ``block_steps`` steps fall when none rejects a
        half or draws a group of fewer than two rows, from a stream that
        starts with or without a ``held`` half.

        A position indexes the held half (0) and then the halves of the
        block's words, low first (``1 + 2j`` and ``2 + 2j`` for word ``j``).
        Per step: the group's position (a half's, or a word's when
        ``empirical``) and the ``(B,)`` positions of its rows; after each
        number of steps: the words used, and whether the half at ``2 *
        used`` is held.
        """
        layout = self._layouts.get(held)
        if layout is None:
            b = self.batch_size
            t = np.arange(self.block_steps + 1)
            if self.uniform:
                per_step = (self.num_groups > 1) + b
                first = t * per_step + 1 - held             # each step's first half
                used, held_at = first // 2, first % 2 == 0
                whole = first[:-1]
                halves = (whole + per_step - b)[:, None] + np.arange(b)
            else:
                cut = t * b - held                          # halves cut from words before step t
                used, held_at = t + (cut + 1) // 2, cut % 2 == 1
                whole, held_by = used[:-1], held_at[:-1]
                # The step's halves follow its group's word; a held one goes first.
                halves = (2 * whole + 3 - held_by)[:, None] + np.arange(b)
                halves[held_by, 0] = 2 * whole[held_by]
            layout = self._layouts[held] = (whole, halves, used.tolist(), held_at.tolist())
        return layout

    def _replay(self, stream: WordStream) -> tuple[int, np.ndarray]:
        """One step drawn one value at a time, as :meth:`draw` draws it from a ``Generator``."""
        if self.uniform:
            g = _bounded_one(stream, self.num_groups)
        else:
            g = int(self.cdf.searchsorted((stream.word() >> 11) * 2.0**-53, side="right"))
        rows = self.group_rows[g]
        return g, rows[[_bounded_one(stream, rows.size) for _ in range(self.batch_size)]]


def update_beta(
    beta: np.ndarray,
    g,
    loss_value,
    eta_beta,
    adjustment,
    n_g,
) -> np.ndarray:
    """Exponentiated-gradient step on coordinate ``g``, then renormalize.

    Computed in log space so large losses cannot overflow, in a new array:
    ``beta`` itself is left as it is.  For row-stacked ``beta`` of shape
    ``(R, m)`` every other argument holds one value per row, or one for
    every row.
    """
    if not np.isfinite(loss_value).all():
        raise DivergenceError(
            "non-finite loss in simplex update",
            snapshot={"group": np.asarray(g).tolist(), "loss": np.asarray(loss_value).tolist(),
                      "beta": np.asarray(beta).tolist()},
        )
    beta = np.asarray(beta, dtype=np.float64)
    at = g if beta.ndim == 1 else (np.arange(beta.shape[0]), g)
    return _update_beta(beta, at, loss_value, eta_beta, _group_penalty(adjustment, n_g))


def _group_penalty(adjustment, n_g):
    """The adjustment ``C / sqrt(n_g)`` that the simplex step adds to a
    group's loss; elementwise for arrays."""
    return adjustment / np.sqrt(n_g)


def _update_beta(beta: np.ndarray, at, loss_value, eta_beta, penalty) -> np.ndarray:
    """:func:`update_beta` at the index ``at`` of ``beta`` (``g``, or a
    tuple of a row index and ``g`` per row), with a finite ``loss_value``
    and the penalty ``_group_penalty(adjustment, n_g)`` of its groups."""
    with np.errstate(divide="ignore"):
        log_beta = np.log(beta)
    # One entry per row: ``add.at`` adds as ``log_beta[at] +=`` does, at half its dispatch cost.
    np.add.at(log_beta, at, eta_beta * (loss_value + penalty))
    log_beta -= np.maximum.reduce(log_beta, -1, keepdims=True)
    out = np.exp(log_beta, out=log_beta)
    out /= np.add.reduce(out, -1, keepdims=True)
    return out


def train_step(state: Lockstep, batch: Batch) -> Lockstep:
    """One iteration of the three-coordinate update for every row; mutates and returns ``state``.

    A row whose latent ascent fails (a non-finite ``||w_1 - w_0||``) or whose
    batch loss or parameter gradient is not finite is retired from ``state``
    with the ``DivergenceError`` a one-row run raises, in ``state.failed``;
    the other rows' results do not depend on it.

    The step checks nothing that :meth:`Lockstep.start` has checked: it
    calls the model's kernels, which take ``batch.x`` as rows of
    ``state.train`` and as fitting the model, and it reads the labels' flat
    positions and each group's penalty as :class:`Lockstep` holds them.  The
    gradients and batch losses it writes into ``state.screen`` stay there
    until the next step overwrites them.  A batch of another size than
    ``batch_size`` is a ``ParameterError``.
    """
    g = batch.group
    t_next = state.t + 1
    shared = state.shared
    if batch.y.shape[-1] != shared.batch_size:
        raise ParameterError(f"a batch must hold batch_size={shared.batch_size} examples, "
                             f"got {batch.y.shape[-1]}")
    scale = 1.0 / math.sqrt(t_next) if shared.decay_steps else 1.0
    theta = state.theta

    z = model._latent(theta, batch.x)
    z_prime = z
    ascent_failed = {}
    rows = state.ascending
    if rows is not None:
        # ``z`` and ``y`` have a row per row, or one row that every row
        # shares, and then every row has its group.
        y = batch.y
        eps = state.radii[rows, int(g[0])] if len(y) == 1 else state.radii[state.index, g][rows]
        if 0.0 in eps.tolist():      # a tiny epsilon's radius can underflow to 0 in a large group
            rows, eps = state.index[rows][eps > 0], eps[eps > 0]
        ends, failed = amb._ascend(theta.w_out[rows], theta.b_out[rows],
                                   z if len(z) == 1 else z[rows],
                                   y if len(y) == 1 else y[rows], eps)
        if len(ends) == len(state.ids):
            z_prime = ends
        else:
            # A row with radius zero keeps ``z``, byte for byte.
            z_prime = np.empty((len(state.ids),) + z.shape[1:])
            z_prime[...] = z
            z_prime[rows] = ends
        if failed:
            at = state.index[rows]
            ascent_failed = {int(at[i]): err for i, err in failed.items()}

    ls = model.log_softmax(model._logits(theta, z_prime))
    losses, dlogits = model._label_loss(ls, state.label_base + batch.y)
    grads = model._param_grads(theta, dlogits, z_prime, z, batch.x, state.grads)
    mean_loss = state.mean_loss
    np.add.reduce(losses, -1, out=mean_loss)
    mean_loss /= losses.shape[-1]       # losses.mean(-1), bitwise
    # A row whose loss or gradient is not finite retires: its beta is never
    # read.  The sum of squares of the gradients and losses is finite only if
    # every one of them is; when it is not, or the sum overflows, each row is
    # tested on its own.  ``vdot``, unlike ``ndarray.dot``, does not warn
    # when the sum overflows.
    all_finite = not ascent_failed and math.isfinite(np.vdot(state.screen, state.screen))
    if not all_finite:
        finite = np.isfinite(mean_loss) & model._rows_finite(grads, state.index.shape)
        finite[list(ascent_failed)] = False
        all_finite = finite.all()
    if state.some_learn:
        loss = mean_loss if all_finite else np.where(finite, mean_loss, 0.0)
        beta = _update_beta(state.beta, (state.index, g), loss, shared.eta_beta * scale,
                            state.penalty[g])
        state.beta = beta if state.all_learn else np.where(
            state.learns_beta[:, None], beta, state.beta)

    state.theta = model._sgd_step(theta, grads,
                                  shared.eta_theta * scale * state.beta[state.index, g])
    state.t = t_next
    if not all_finite:
        for i in np.flatnonzero(~finite).tolist():
            snapshot = {"iteration": t_next, "group": int(g[i])}
            if i in ascent_failed:
                message = str(ascent_failed[i])
                snapshot.update(ascent_failed[i].snapshot)
            elif np.isfinite(mean_loss[i]):
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
    return ds.group_means(model.cross_entropy(model.logits_from_latent(theta, z), ds.labels))


def _record_checkpoint(state: Lockstep, i: int, ds_val: GroupedDataset) -> Checkpoint:
    """The checkpoint of the row at position ``i``."""
    theta = model.row_params(state.theta, i)
    report = evaluation.evaluate(theta, ds_val, state.train.alpha)
    return Checkpoint(
        iteration=state.t,
        beta=state.beta[i].copy(),
        worst_val_acc=report.worst_group_acc,
        avg_val_acc=report.avg_acc_weighted,
        theta=theta,
        train=state.train,
    )


def _streams(seeds: np.ndarray, num_groups: int):
    """The live rows' distinct ``seeds`` in order of first appearance and each
    row's position among them; or, when they are one, ``None`` and per group
    the read-only ``group`` of a shared batch, one entry per row."""
    seeds = seeds.tolist()
    order = list(dict.fromkeys(seeds))
    if len(order) > 1:
        return order, np.array([order.index(s) for s in seeds]), None
    by_group = [np.full(len(seeds), g) for g in range(num_groups)]
    for group in by_group:
        group.flags.writeable = False
    return order, None, by_group


def advance(state: Lockstep):
    """Step ``state`` in place ``state.shared.iterations`` times, yielding each step's batch.

    Row ``i`` draws its minibatches from ``state.train`` with the stream of
    ``default_rng(state.seeds[i])``, in the order a lone run draws them;
    rows with equal seeds share one :class:`WordStream`.  Each stream draws
    a block of steps at a time with :meth:`GroupSampler.draws`, bitwise the
    steps :meth:`GroupSampler.draw` gives one at a time, and a step reads
    its groups and rows from the block: with one stream, one shared row and
    a ``group`` array built per group; with several, each row's stream's
    column.  A retirement, the only time the streams are regrouped, drops
    the columns of the streams no live row draws from.  A step gathers its
    rows once, into a :class:`Batch`.  The loop stops after the step at
    which every row has retired, with the errors in ``state.failed``.
    """
    train = state.train
    sampler = GroupSampler(train, state.shared)
    streams = {seed: WordStream(seed) for seed in state.seeds.tolist()}
    order, pos, by_group = _streams(state.seeds, sampler.num_groups)
    left = state.shared.iterations
    while left:
        n = min(left, sampler.block_steps)
        left -= n
        drawn = [sampler.draws(streams[seed], n) for seed in order]
        groups = np.stack([g for g, _ in drawn], 1)      # (n, streams)
        rows = np.stack([r for _, r in drawn], 1)        # (n, streams, B)
        first = groups[:, 0].tolist()
        for j in range(n):
            live = state.ids.size
            if pos is None:
                group, at = by_group[first[j]], rows[j]
            else:
                group, at = groups[j, pos], rows[j, pos]
            # ``take`` gathers the rows as ``features[rows]`` does, at a third of its cost.
            batch = Batch(group=group, x=train.features.take(at, 0), y=train.labels[at])
            train_step(state, batch)
            yield batch
            if state.ids.size != live:
                if not state.ids.size:
                    return
                kept = order
                order, pos, by_group = _streams(state.seeds, sampler.num_groups)
                columns = [kept.index(seed) for seed in order]
                groups, rows = groups[:, columns], rows[:, columns]
                first = groups[:, 0].tolist()


def train_lockstep(
    ds_train: GroupedDataset,
    ds_val: GroupedDataset,
    inits,
    configs,
) -> list[TrainResult | DivergenceError]:
    """Train R trajectories of one shape in lockstep, row ``r`` from
    ``inits[r]`` under ``configs[r]``, by :func:`advance`.

    Rows may differ only in the fields in ``PER_ROW`` and must share the
    model shape (``ParameterError`` otherwise); an empty training group is
    an ``InvalidDatasetError``.  Returns, in row order, each row's
    ``TrainResult``, bitwise what :func:`train` returns for that row alone,
    or the ``DivergenceError`` it would raise.
    """
    configs = tuple(configs)
    state = Lockstep.start(inits, configs, ds_train)
    shared = state.shared
    histories = [[] for _ in configs]
    for _ in advance(state):
        if state.t % shared.checkpoint_every == 0 or state.t == shared.iterations:
            for i, k in enumerate(state.ids):
                histories[k].append(_record_checkpoint(state, i, ds_val))

    results = [state.failed.get(k) for k in range(len(configs))]
    for i, k in enumerate(state.ids):
        history = histories[k] or [_record_checkpoint(state, i, ds_val)]
        best = max(history, key=lambda cp: (cp.worst_val_acc, -cp.iteration))
        results[k] = TrainResult(best=best.theta, best_iteration=best.iteration,
                                 best_worst_val_acc=best.worst_val_acc, history=history)
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
