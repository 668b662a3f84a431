"""Small differentiable classifiers with an explicit latent layer.

Two architectures:

* ``linear`` -- a single affine layer; the latent map is the identity,
  ``z(x) = x``.
* ``mlp1`` -- one rectified hidden layer; ``z(x) = relu(W1 x + b1)`` followed
  by an affine output layer.

The loss is softmax cross-entropy computed through log-sum-exp, so it stays
finite for logit magnitudes far beyond 1e3.  Its two gradients are
closed-form: :func:`grad_wrt_latent`, through the output layer, and
:func:`loss_and_param_grads`, the loss of a batch with its batch-mean
gradient in the parameters.  That gradient is a :class:`ModelParams`, the
type of the parameters themselves, so :func:`sgd_step`,
:func:`flatten_params` and :func:`grads_finite` take one of either.

Gradient semantics: :func:`loss_and_param_grads` evaluates the loss at a
latent ``z'`` supplied by the caller and routes the latent gradient at ``z'``
through the unperturbed forward pass at ``x``, holding the offset ``z' - z(x)``
constant.  For ``z' = z(x)`` that is ordinary backpropagation; for ``z'`` the
maximizer of the loss over a ball around ``z(x)`` it is, by Danskin's theorem,
the gradient of the ball supremum (Madry et al., arXiv:1706.06083, App. A).
Every training mode therefore trains the whole network.

Row-stacked parameters: every array of a :class:`ModelParams` may carry a
leading row axis, ``(R, K, d)`` for ``w_out``, so that one call evaluates R
models of one shape (:func:`stack_params`, :func:`row_params`).  The
forward pass, the loss, the gradients and the update then take inputs with
the same leading axis, or with a leading axis of 1 that every row shares, and
each row's result is bitwise the result of the unstacked call on that row.

Label indexing: the loss and ``softmax - onehot(y)`` find each example's
label entry through one integer array of flat positions into the scores
read with ``reshape(-1)``, ``K * (example number) + y`` for ``K`` classes,
for one example, a batch and a batch per row alike.  A label must lie in
``[0, K)``, as :class:`datagen.GroupedDataset` and a model of at least its
label count ensure; an index past ``K`` would read the next example's entry
instead of raising.

Checked wrappers and kernels: each public function converts and checks its
inputs, then calls a private kernel that does the arithmetic
(:func:`_latent`, :func:`_logits`, :func:`_label_loss`, :func:`_param_grads`,
:func:`_sgd_step`, :func:`_rows_finite`), where each formula is written
once.  A training step calls the kernels on arrays that
:meth:`solver.Lockstep.start` has checked once, with the label positions'
``K * (example number)`` part, :func:`_label_base`, computed once per
lockstep.  :func:`_param_grads` writes the gradient into arrays it is
given: the step's are views of one buffer that the ``Lockstep`` owns, and
:func:`loss_and_param_grads` passes new ones, so that no public result
shares memory with another.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

LINEAR = "linear"
MLP1 = "mlp1"
DEFAULT_HIDDEN_WIDTH = 32


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter bundle, or a gradient in them; ``w_hidden is None``
    marks the linear model."""

    w_out: np.ndarray
    b_out: np.ndarray
    w_hidden: np.ndarray | None = None
    b_hidden: np.ndarray | None = None

    @property
    def architecture(self) -> str:
        return LINEAR if self.w_hidden is None else MLP1

    @property
    def num_classes(self) -> int:
        return self.w_out.shape[-2]

    @property
    def latent_dim(self) -> int:
        return self.w_out.shape[-1]

    @property
    def input_dim(self) -> int:
        return self.latent_dim if self.w_hidden is None else self.w_hidden.shape[-1]

    def arrays(self) -> tuple:
        return self.w_out, self.b_out, self.w_hidden, self.b_hidden


@dataclass(frozen=True)
class ModelSpec:
    """How to build a fresh model; used by experiment configs."""

    architecture: str = LINEAR
    hidden_width: int = DEFAULT_HIDDEN_WIDTH

    def __post_init__(self):
        if self.architecture not in (LINEAR, MLP1):
            raise ParameterError(f"unknown architecture {self.architecture!r}")
        if self.hidden_width < 1:
            raise ParameterError("hidden_width must be positive")


def _uniform_fan_in(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(spec: ModelSpec, input_dim: int, num_classes: int, seed: int = 0) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) initialization."""
    rng = np.random.default_rng(seed)
    if spec.architecture == LINEAR:
        return ModelParams(
            w_out=_uniform_fan_in(rng, (num_classes, input_dim), input_dim),
            b_out=_uniform_fan_in(rng, (num_classes,), input_dim),
        )
    h = spec.hidden_width
    return ModelParams(
        w_out=_uniform_fan_in(rng, (num_classes, h), h),
        b_out=_uniform_fan_in(rng, (num_classes,), h),
        w_hidden=_uniform_fan_in(rng, (h, input_dim), input_dim),
        b_hidden=_uniform_fan_in(rng, (h,), input_dim),
    )


def stack_params(thetas) -> ModelParams:
    """R models of one shape as one row-stacked :class:`ModelParams`."""
    thetas = list(thetas)
    shapes = {tuple(None if a is None else a.shape for a in t.arrays()) for t in thetas}
    if len(shapes) != 1:
        raise ParameterError(f"models to stack differ in shape: {sorted(map(str, shapes))}")
    return ModelParams(*(None if parts[0] is None else np.stack(parts)
                         for parts in zip(*(t.arrays() for t in thetas))))


def row_params(theta: ModelParams, rows) -> ModelParams:
    """Row ``rows`` of a row-stacked model: one model for an int, a stack for an index array."""
    if theta.w_hidden is None:
        return ModelParams(theta.w_out[rows], theta.b_out[rows])
    return ModelParams(theta.w_out[rows], theta.b_out[rows], theta.w_hidden[rows],
                       theta.b_hidden[rows])


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (the plain transpose of a matrix)."""
    return a.swapaxes(-1, -2)


def _bias(b: np.ndarray) -> np.ndarray:
    """A bias ready to add to a batch: stacked ``(R, k)`` biases get a batch axis."""
    return b if b.ndim == 1 else b[:, None, :]


def _label_base(lead: tuple, k: int) -> np.ndarray:
    """``K * (example number)`` for every example of scores with leading
    shape ``lead`` and ``k`` classes: the flat position of its class 0."""
    return np.arange(0, math.prod(lead) * k, k).reshape(lead)


def _label_index(shape: tuple, y):
    """Position of each example's label entry in scores of ``shape`` read
    flat, through ``reshape(-1)``: one example, a batch, or a batch per row.

    One integer array indexes in a fraction of the time that a tuple of
    broadcast index arrays takes; see the module docstring.
    """
    if len(shape) == 1:
        return int(y)
    return _label_base(shape[:-1], shape[-1]) + np.asarray(y, dtype=np.int64)


def latent(theta: ModelParams, x: np.ndarray) -> np.ndarray:
    """The representation fed to the output layer; identity for linear models."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != theta.input_dim:
        raise ParameterError(f"expected input dim {theta.input_dim}, got {x.shape[-1]}")
    return _latent(theta, x)


def _latent(theta: ModelParams, x: np.ndarray) -> np.ndarray:
    """:func:`latent` of a float ``x`` already known to fit ``theta``."""
    if theta.w_hidden is None:
        return x
    # In place: one ``(R, B, h)`` array, not three.  At tuning's 8 x 64 x 32
    # each is 128 KiB, glibc's trim threshold, and with three of them a run
    # could trim and fault in the heap at every step.
    h = x @ _mT(theta.w_hidden)
    h += _bias(theta.b_hidden)
    return np.maximum(0.0, h, out=h)


def logits_from_latent(theta: ModelParams, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1] != theta.latent_dim:
        raise ParameterError(f"expected latent dim {theta.latent_dim}, got {z.shape[-1]}")
    return _logits(theta, z)


def _logits(theta: ModelParams, z: np.ndarray) -> np.ndarray:
    """:func:`logits_from_latent` of a float ``z`` already known to fit ``theta``."""
    return z @ _mT(theta.w_out) + _bias(theta.b_out)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """``s - log(exp(s).sum(-1))`` with ``s = logits - logits.max(-1)``, over the last axis.

    The maximum and the sum run one class at a time, each numpy call covering
    every example and row at once: a reduction along the short class axis
    runs one numpy inner loop per example, which on a ``(7990, 2)`` matrix
    costs 20 to 50 times the elementwise work.  The result is bitwise the
    reduction's for up to 7 classes, where numpy sums left to right as this
    loop does; from 8 classes on numpy sums pairwise and the two differ in
    the last bits.
    """
    top = logits[..., 0]
    for j in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., j])
    shifted = logits - top[..., None]
    e = np.exp(shifted)
    total = e[..., 0]
    for j in range(1, e.shape[-1]):
        total = total + e[..., j]
    del e    # peak memory: callers pass batches of thousands of rows
    shifted -= np.log(total)[..., None]
    return shifted


def cross_entropy(logits: np.ndarray, y) -> float | np.ndarray:
    """-log softmax(logits)[y]; scalar for a single example, vector for a batch."""
    ls = log_softmax(logits)
    loss = -ls.reshape(-1)[_label_index(ls.shape, y)]
    return float(loss) if ls.ndim == 1 else loss


def _loss_and_dlogits(theta: ModelParams, z: np.ndarray, y):
    """The loss at ``z`` and softmax(logits) - onehot(y), from one forward pass."""
    ls = log_softmax(logits_from_latent(theta, z))
    loss, dlogits = _label_loss(ls, _label_index(ls.shape, y))
    return (float(loss) if ls.ndim == 1 else loss), dlogits


def _label_loss(ls: np.ndarray, at):
    """The loss ``-ls[y]`` and ``softmax - onehot(y)`` from log-softmax
    scores ``ls`` and the flat positions ``at`` of the labels' entries."""
    flat = ls.reshape(-1)
    dlogits = np.exp(flat)
    dlogits[at] -= 1.0
    return -flat[at], dlogits.reshape(ls.shape)


def grad_wrt_latent(theta: ModelParams, z: np.ndarray, y) -> np.ndarray:
    """Exact gradient of the cross-entropy through the output layer at ``z``."""
    return _loss_and_dlogits(theta, np.asarray(z, dtype=np.float64), y)[1] @ theta.w_out


def loss_and_param_grads(theta: ModelParams, z_prime: np.ndarray, z: np.ndarray,
                         x: np.ndarray, y) -> tuple:
    """The loss at ``z_prime`` and the batch-mean gradient with respect to the
    parameters, as a :class:`ModelParams`, from one forward pass.

    ``z_prime``, ``z`` and ``x`` are batches, 2-D, or 3-D with a row-stacked
    ``theta``; one example is a batch of one.  ``z`` is the unperturbed
    latent ``latent(theta, x)``, which the caller already holds.  Hidden-layer
    parameters get the gradient through the forward pass at ``x``, whose
    rectifier passes where ``z > 0``; see the module docstring.
    """
    z_prime = np.asarray(z_prime, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    loss, dlogits = _loss_and_dlogits(theta, z_prime, y)
    lead = dlogits.shape[:-2]
    shapes = [lead + theta.w_out.shape[-2:], lead + theta.b_out.shape[-1:]]
    if theta.w_hidden is not None:
        shapes += [np.broadcast_shapes(lead, x.shape[:-2]) + theta.w_hidden.shape[-2:],
                   lead + theta.b_hidden.shape[-1:]]
    out = tuple(np.empty(shape) for shape in shapes)
    return loss, ModelParams(*_param_grads(theta, dlogits, z_prime, z, x, out))


def _param_grads(theta: ModelParams, dlogits: np.ndarray, z_prime: np.ndarray, z: np.ndarray,
                 x: np.ndarray, out: tuple) -> tuple:
    """The batch-mean parameter gradient of :func:`loss_and_param_grads`,
    given the ``dlogits`` of the loss at ``z_prime``, written into ``out``,
    the tuple of its arrays (two for a linear model, four for ``mlp1``), and
    returned.  Each array is a product or a sum divided in place by the
    batch size, bitwise ``a @ b / batch``."""
    batch = z_prime.shape[-2]
    np.matmul(_mT(dlogits), z_prime, out=out[0])
    # ``a.mean(axis)`` computes this sum and division behind a Python wrapper.
    np.add.reduce(dlogits, -2, out=out[1])
    if theta.w_hidden is not None:
        delta = dlogits @ theta.w_out
        delta *= z > 0      # in place, as in :func:`_latent`
        np.matmul(_mT(delta), x, out=out[2])
        np.add.reduce(delta, -2, out=out[3])
    for a in out:
        a /= batch
    return out


def sgd_step(theta: ModelParams, grads: ModelParams, step) -> ModelParams:
    """``theta - step * grads``; ``step`` is a scalar or, for stacked rows, one per row."""
    return _sgd_step(theta, grads.arrays(), step)


def _sgd_step(theta: ModelParams, grads: tuple, step) -> ModelParams:
    """:func:`sgd_step` with the gradient as the tuple of its arrays, in
    :meth:`ModelParams.arrays` order."""
    w_step = b_step = step
    if isinstance(step, np.ndarray):
        w_step, b_step = step[:, None, None], step[:, None]
    w_out, b_out = theta.w_out - w_step * grads[0], theta.b_out - b_step * grads[1]
    if theta.w_hidden is None:
        return ModelParams(w_out, b_out)
    return ModelParams(w_out, b_out, theta.w_hidden - w_step * grads[2],
                       theta.b_hidden - b_step * grads[3])


def average_params(avg: ModelParams, new: ModelParams, count: int) -> ModelParams:
    """Running uniform average after ``count`` contributions including ``new``."""
    w = 1.0 / count
    return ModelParams(
        w_out=avg.w_out + w * (new.w_out - avg.w_out),
        b_out=avg.b_out + w * (new.b_out - avg.b_out),
        w_hidden=None if avg.w_hidden is None else avg.w_hidden + w * (new.w_hidden - avg.w_hidden),
        b_hidden=None if avg.b_hidden is None else avg.b_hidden + w * (new.b_hidden - avg.b_hidden),
    )


def flatten_params(theta: ModelParams) -> np.ndarray:
    """The parameters, or a gradient, as one vector; one row per model for stacked rows."""
    return _flat([a for a in theta.arrays() if a is not None], theta.w_out.shape[:-2])


def _flat(arrays, lead: tuple) -> np.ndarray:
    """``arrays`` of models with leading shape ``lead``, each model's read
    into one vector, in order."""
    return np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)


def unflatten_params(vec: np.ndarray, template: ModelParams) -> ModelParams:
    """The inverse of :func:`flatten_params` into the shapes of one model of
    ``template``: a vector gives one model, a matrix one row-stacked model per row."""
    vec = np.asarray(vec, dtype=np.float64)
    lead, skip = vec.shape[:-1], template.w_out.ndim - 2
    pieces = []
    offset = 0
    for arr in template.arrays():
        if arr is None:
            pieces.append(None)
            continue
        size = math.prod(arr.shape[skip:])
        pieces.append(vec[..., offset:offset + size].reshape(lead + arr.shape[skip:]))
        offset += size
    return ModelParams(*pieces)


def params_norm(theta: ModelParams) -> float:
    return float(np.linalg.norm(flatten_params(theta)))


def grads_finite(grads: ModelParams):
    """Whether every gradient entry is finite; one bool per row for stacked rows."""
    finite = _rows_finite([a for a in grads.arrays() if a is not None], grads.w_out.shape[:-2])
    return finite if finite.ndim else bool(finite)


def _rows_finite(arrays, lead: tuple):
    """Whether every entry of each model's ``arrays`` is finite, per model
    of leading shape ``lead``."""
    return np.logical_and.reduce(np.isfinite(_flat(arrays, lead)), axis=-1)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return all((x is None) == (y is None) and (x is None or np.array_equal(x, y))
               for x, y in zip(a.arrays(), b.arrays()))


def save_params(theta: ModelParams, path) -> None:
    """JSON checkpoint: architecture tag plus row-major weight lists."""
    payload = {
        "architecture": theta.architecture,
        "w_out": theta.w_out.tolist(),
        "b_out": theta.b_out.tolist(),
    }
    if theta.w_hidden is not None:
        payload["w_hidden"] = theta.w_hidden.tolist()
        payload["b_hidden"] = theta.b_hidden.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_params(path) -> ModelParams:
    """A :func:`save_params` checkpoint.  An unknown architecture tag, a
    missing array or shapes that do not form one model are a
    ``ParameterError`` naming the file and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    tag = payload.get("architecture") if type(payload) is dict else None
    if tag not in (LINEAR, MLP1):
        raise ParameterError(f"{path}: architecture: expected {LINEAR!r} or {MLP1!r}, got {tag!r}")
    arrays = {}
    for name in ("w_out", "b_out", "w_hidden", "b_hidden")[:4 if tag == MLP1 else 2]:
        if name not in payload:
            raise ParameterError(f"{path}: {name}: missing from a {tag} checkpoint")
        try:
            arrays[name] = np.asarray(payload[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:     # ragged, or not numbers
            raise ParameterError(f"{path}: {name}: expected an array of numbers: {exc}") from exc
    k, h = (arrays["w_out"].shape + (-1, -1))[:2]      # -1 fits no shape
    d = arrays["w_hidden"].shape[-1:] if tag == MLP1 else ()
    fits = {"w_out": (k, h), "b_out": (k,), "w_hidden": (h, *d), "b_hidden": (h,)}
    for name, value in arrays.items():
        if value.shape != fits[name]:
            raise ParameterError(f"{path}: {name}: shape {value.shape} does not form one "
                                 f"{tag} model; expected {fits[name]}")
    return ModelParams(**arrays)
