"""Perturbation radii, ball projection, latent ascent, and exact small oracles.

The per-group radius schedule is ``eps_g = eps / sqrt(n_g)``: scarce groups
get wider balls.  Balls are Euclidean; the l2 norm is self-dual, which makes
the first-order expansion of the ball supremum ``loss + eps * ||grad_z||_2``.

Two exact oracles validate the optimization machinery at toy scale:

* :func:`w_infty_exact` computes the infinity-order transport distance
  between equal-mass empirical distributions as a bottleneck matching, with
  cost = latent l2 distance for equal labels and infinity otherwise.
* :func:`robust_risk_check` compares the per-point ball-supremum risk with
  the largest risk of a displaced empirical measure that :func:`w_infty_exact`
  certifies within the radius, which must coincide.

For a binary affine output layer the ball supremum has a closed form,
:func:`binary_robust_loss`; every exact robust loss in the package goes
through it, and :mod:`convergence` builds the robust objective from it.
:func:`inner_maximize` returns its maximizer, so training ascends to the
exact ball supremum for binary heads.  Training ascends all its rows in one
call, :func:`_ascend`, where the formula is written; :func:`inner_maximize`
is that call's one-model case, through which every other caller ascends.

Every grid supremum is one ring maximum, :func:`_grid_max_loss`: the largest
loss over a 2-D latent and equally spaced points of the circle around it.
Cross-entropy composed with an affine layer is convex in the latent, so ball
suprema are attained on the sphere and the circle covers the maximizer.  The
grid oracles (:func:`ball_supremum`, :func:`taylor_gap`,
:func:`robust_risk_check`) use arc step ``eps / SUP_GRID_FRACTION``
(documented in every report), are exact up to that step, and raise
``UnsupportedInstanceError`` for a latent dimension other than 2, which
:func:`_grid_max_loss` checks;
:func:`verification.check_inner_maximization` asks for 200,000 points.  The
circle is built and evaluated in fixed-size chunks of angles: memory stays
bounded by the chunk, never the grid, and the maximum and its first
maximizer are bitwise those of the whole grid.  :func:`_grid_max_losses`
searches several cases on each chunk, so that a check of many cases builds
each chunk's cos and sin once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DivergenceError, ParameterError, UnsupportedInstanceError
from .model import ModelParams

SUP_GRID_FRACTION = 100
ORACLE_MAX_SUPPORT = 8
CHECK_MAX_SUPPORT = 6
# Circle points per chunk.  A power of two, so every chunk boundary is a multiple
# of BLAS's row block and each point's logits are bitwise the whole circle's.
_GRID_CHUNK = 8192
# Points on the circle of a grid supremum: arc step at most eps / SUP_GRID_FRACTION.
_SPHERE_ANGLES = math.ceil(2.0 * math.pi * SUP_GRID_FRACTION)
# Row y holds the sign s = 2y - 1 of label y, as a column that scales a row vector.
_LABEL_SIGNS = np.array([[-1.0], [1.0]])


def _require_radius(eps, name: str) -> None:
    """The one check on a radius or radius scale, elementwise for arrays: a
    negative, nan or infinite ``eps`` is a ``ParameterError`` naming ``name``."""
    if not np.all(np.isfinite(eps)) or np.any(np.less(eps, 0)):
        raise ParameterError(f"{name} must be finite and nonnegative")


def radius(epsilon, n_g):
    """Per-group radius ``epsilon / sqrt(n_g)``; elementwise for arrays."""
    _require_radius(epsilon, "epsilon")
    if np.any(np.less_equal(n_g, 0)):
        raise ParameterError("group size must be positive")
    return epsilon / (np.sqrt(n_g) if np.ndim(n_g) else math.sqrt(n_g))


def project_ball(z_prime: np.ndarray, z_center: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean projection of ``z_prime`` onto the ball around ``z_center``.

    Batched over leading axes when the inputs are 2-D.
    """
    _require_radius(eps, "ball radius")
    z_prime = np.asarray(z_prime, dtype=np.float64)
    z_center = np.asarray(z_center, dtype=np.float64)
    if z_prime.shape != z_center.shape:
        raise ParameterError("z_prime and z_center must have identical shapes")
    diff = z_prime - z_center
    norm = np.linalg.norm(diff, axis=-1, keepdims=True)
    scale = np.ones_like(norm)
    outside = norm > eps
    np.divide(eps, norm, out=scale, where=outside)
    return np.where(outside, z_center + scale * diff, z_prime)


def inner_maximize(theta: ModelParams, z: np.ndarray, y, eps_g: float) -> np.ndarray:
    """The loss ascent inside the ``eps_g`` ball around each row of ``z``.

    ``z`` is one latent or a ``(B, k)`` batch of an unstacked ``theta`` and
    ``y`` its label or labels.  This is the one-model case of the ascent
    that training makes for all its ascending rows in one call, and each
    endpoint is bitwise that call's: for a binary head (two classes, linear
    or ``mlp1``) the exact maximizer in closed form, with ``||v||`` as
    :func:`_head_norm` takes it, so that a ``v = w_1 - w_0`` whose norm is
    not finite is a ``DivergenceError`` that names the ascent, not a silent
    step of length zero.  A head with more classes takes one normalized
    gradient step to the sphere, ``z + eps_g * g / ||g||``, the first-order
    maximizer (a row with a zero gradient keeps ``z``).  The loss is convex
    in the latent, so neither ever decreases it, and neither leaves the
    ball.
    """
    _require_radius(eps_g, "eps_g")
    z = np.asarray(z, dtype=np.float64)
    if eps_g == 0.0:
        return z
    ends, failed = _ascend(theta.w_out[None], theta.b_out[None], z.reshape(1, -1, z.shape[-1]),
                           np.broadcast_to(y, z.shape[:-1]).reshape(1, -1), np.array([eps_g]))
    if failed:
        raise failed[0]
    return ends.reshape(z.shape)


def _ascend(w_out: np.ndarray, b_out: np.ndarray, z: np.ndarray, y: np.ndarray,
            eps: np.ndarray) -> tuple:
    """The latent ascent of A row-stacked output layers in one call, row
    ``i`` inside the ball of radius ``eps[i] > 0``.

    For a binary head, with ``v = w_1 - w_0`` and label sign ``s = 2y - 1``,
    the loss grows fastest along ``-s v``, so the endpoint is the exact
    maximizer ``z - s eps v / ||v||``; a zero ``v`` takes no step.  A head
    with more classes takes one normalized gradient step to the sphere.

    ``w_out`` and ``b_out`` are ``(A, K, k)`` and ``(A, K)``; ``z`` is
    ``(A, B, k)``, or ``(1, B, k)`` when every row shares it, and ``y``
    ``(A, B)`` or ``(1, B)`` alike.  Returns the ``(A, B, k)`` endpoints,
    each row's bitwise what one model alone gets, and ``{i: error}`` for
    the rows whose ``||v||`` is not finite, with the ``DivergenceError``
    that :func:`_head_norm` raises; such a row's endpoints are ``z`` up to
    signed zeros and mean nothing.  A binary head's ``||v||`` is one scalar
    ``sqrt(v_i . v_i)`` per row, not a stacked reduction, whose sum may run
    in another order.
    """
    if w_out.shape[-2] == 2:
        v = w_out[:, 1] - w_out[:, 0]
        norms = [math.sqrt(row.dot(row)) for row in v]
        failed = {}
        if 0.0 in norms or not sum(norms) < math.inf:
            # A zero v takes no step; a norm that is not finite fails its
            # row, which then takes none either.
            for i, v_norm in enumerate(norms):
                if not v_norm < math.inf:
                    failed[i] = _norm_error(v_norm, "the latent ascent")
                if not 0.0 < v_norm < math.inf:
                    v[i], norms[i] = 0.0, 1.0
        v /= np.array(norms)[:, None]
        # The step s (eps v_hat): label y of row i picks row 2i + y of
        # (eps_i [[-1], [1]]) v_hat_i.  A product with +-1 is exact and
        # rounding is symmetric in sign, so this is bitwise s (eps v_hat),
        # signed zeros included; and a gather of whole rows costs less than a
        # product that broadcasts over a short last axis.
        table = (eps[:, None, None] * _LABEL_SIGNS * v[:, None, :]).reshape(-1, v.shape[-1])
        if len(v) != 1:
            y = y + np.arange(0, 2 * len(v), 2)[:, None]
        step = table.take(y, 0)
        return np.subtract(z, step, out=step), failed

    # Dividing by the largest entry first keeps the squared norm from
    # underflowing when the gradient is tiny.
    grad = model.grad_wrt_latent(ModelParams(w_out, b_out), z, y)
    step = np.zeros_like(grad)
    top = np.abs(grad).max(axis=-1, keepdims=True)
    np.divide(grad, top, out=step, where=top > 0)
    norm = np.linalg.norm(step, axis=-1, keepdims=True)
    np.divide(step, norm, out=step, where=norm > 0)
    return z + eps[:, None, None] * step, {}


def _head_norm(v: np.ndarray, where: str) -> float:
    """``||v||`` of a binary head's ``v = w_1 - w_0`` as ``sqrt(v . v)``,
    which is what ``np.linalg.norm`` computes for a vector.

    A norm that is not finite, because ``v`` is not or because ``v . v``
    overflows (``|v|`` past about 1.3e154), would turn every closed-form
    step into one of length ``eps_g / inf = 0``; it is a ``DivergenceError``
    naming ``where`` instead.
    """
    v_norm = math.sqrt(v.dot(v))
    if not v_norm < math.inf:
        raise _norm_error(v_norm, where)
    return v_norm


def _norm_error(v_norm: float, where: str) -> DivergenceError:
    return DivergenceError(f"non-finite ||w_1 - w_0|| in {where}", snapshot={"v_norm": v_norm})


def binary_robust_loss(margin, sign, eps_g, v_norm):
    """Closed-form ball supremum of the loss for a binary affine output layer.

    With ``v = w_1 - w_0``, ``c = b_1 - b_0`` and label sign ``s = 2y - 1``
    the loss at latent ``z`` is ``logaddexp(0, -s m)`` in the margin
    ``m = z . v + c``, and it grows fastest along ``-s v``.  Over the
    ``eps_g`` ball it is therefore maximal at the endpoint of :func:`_ascend`,
    where the slack is ``u = -s m + eps_g ||v||``.  The caller passes the
    margin, taking the product ``z . v`` as its rows need, and ``v_norm``
    (``||v||``); ``eps_g`` may be a scalar or one radius per row.  Returns
    ``(loss, u)`` per example.
    """
    u = -sign * margin + eps_g * v_norm
    return np.logaddexp(0.0, u), u


def _grid_max_loss(theta: ModelParams, z: np.ndarray, y: int, eps: float,
                   n_angles: int) -> tuple:
    """The largest loss at label ``y`` over the 2-D latent ``z`` and
    ``n_angles`` equally spaced points of the ``eps`` circle around it, and
    the first point that attains it: :func:`_grid_max_losses` of one case."""
    return _grid_max_losses([(theta, z, y, eps)], n_angles)[0]


def _grid_max_losses(cases, n_angles: int) -> list:
    """:func:`_grid_max_loss` of each ``(theta, z, y, eps)`` in ``cases``,
    as a list of ``(maximum, first maximizer)``.

    The unit circle is built ``_GRID_CHUNK`` angles at a time, each chunk's
    cos and sin once for every case, so the whole ring never exists: each
    case scales and shifts the chunk and keeps its running maximum before
    the next chunk.  A later chunk wins only on a strictly greater loss, or
    on the first nan, which gives ``np.max`` and ``np.argmax`` of the losses
    of ``z`` and then the ring, for each case alike whatever the others are.
    A latent dimension other than 2 is an ``UnsupportedInstanceError``.
    """
    cases = list(cases)
    best = [None] * len(cases)

    def keep(i, theta, points, y):
        losses = model.cross_entropy(model.logits_from_latent(theta, points), y)
        k = int(np.argmax(losses))
        top = best[i]
        if top is None or losses[k] > top[0] or (np.isnan(losses[k]) and not np.isnan(top[0])):
            # A copy: a view would hold the chunk's points for as long as it wins.
            best[i] = float(losses[k]), points[k].copy()

    for i, (theta, z, y, eps) in enumerate(cases):
        if z.shape != (2,):
            raise UnsupportedInstanceError("the grid oracles support latent dimension 2 only")
        keep(i, theta, z[None, :], y)
    # Angle j is j * (2 pi / n_angles), as np.linspace(0, 2 pi, n_angles,
    # endpoint=False) computes it, one chunk of j at a time.
    step = 2.0 * math.pi / n_angles
    for start in range(0, n_angles, _GRID_CHUNK):
        angles = np.arange(start, min(start + _GRID_CHUNK, n_angles)) * step
        unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for i, (theta, z, y, eps) in enumerate(cases):
            keep(i, theta, z + eps * unit, y)
    return best


def ball_supremum(theta: ModelParams, z: np.ndarray, y: int, eps: float) -> float:
    """Supremum of the loss over the ``eps`` ball around ``z``.

    Exact up to the grid step: the largest loss over the centre and the
    circle at arc step ``eps / SUP_GRID_FRACTION`` (the loss is convex in the
    latent, so the maximum lies on the sphere).  A latent dimension other
    than 2 is an ``UnsupportedInstanceError``.
    """
    _require_radius(eps, "eps")
    return _grid_max_loss(theta, np.asarray(z, dtype=np.float64), y, eps, _SPHERE_ANGLES)[0]


def taylor_gap(theta: ModelParams, z: np.ndarray, y: int, eps: float) -> float:
    """|ball supremum - (loss + eps * ||grad_z||_2)|.

    The linear term uses the l2 norm because it is its own dual.  The gap
    shrinks quadratically as ``eps`` decreases.
    """
    _require_radius(eps, "eps")
    if eps == 0:
        raise ParameterError("eps must be positive")
    z = np.asarray(z, dtype=np.float64)
    base = float(model.cross_entropy(model.logits_from_latent(theta, z), y))
    grad_norm = float(np.linalg.norm(model.grad_wrt_latent(theta, z, y)))
    sup = ball_supremum(theta, z, y, eps)
    return abs(sup - (base + eps * grad_norm))


@dataclass(frozen=True)
class DiscreteDist:
    """Empirical distribution over (latent point, label) atoms, each of mass
    ``1 / support_size``; oracle scale only."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ParameterError("points must be a nonempty (N, dim) matrix")
        if labels.shape != (points.shape[0],):
            raise ParameterError("labels must have one entry per atom")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

    @property
    def support_size(self) -> int:
        return self.points.shape[0]


def _require_support_within(dist: DiscreteDist, limit: int) -> None:
    n = dist.support_size
    if n > limit:
        raise UnsupportedInstanceError(f"oracle supports at most {limit} atoms, got {n}")


def _has_perfect_matching(adjacency: np.ndarray) -> bool:
    """Kuhn's augmenting-path matching on a boolean bipartite adjacency."""
    n = adjacency.shape[0]
    match_of = [-1] * n

    def try_assign(i: int, visited: list[bool]) -> bool:
        for j in range(n):
            if adjacency[i, j] and not visited[j]:
                visited[j] = True
                if match_of[j] == -1 or try_assign(match_of[j], visited):
                    match_of[j] = i
                    return True
        return False

    return all(try_assign(i, [False] * n) for i in range(n))


def w_infty_exact(p: DiscreteDist, q: DiscreteDist) -> float:
    """Bottleneck matching distance between equal-mass empirical distributions.

    Pair cost is the latent l2 distance when labels agree and infinity
    otherwise; the value is the smallest threshold at which a perfect
    matching of atoms exists, found by binary search over the sorted distinct
    finite costs.  Returns ``inf`` when the label multisets differ.
    """
    _require_support_within(p, ORACLE_MAX_SUPPORT)
    _require_support_within(q, ORACLE_MAX_SUPPORT)
    if p.support_size != q.support_size:
        raise UnsupportedInstanceError("oracle requires equal support sizes")

    same_label = p.labels[:, None] == q.labels[None, :]
    if not _has_perfect_matching(same_label):
        return math.inf
    dists = np.linalg.norm(p.points[:, None, :] - q.points[None, :, :], axis=-1)
    thresholds = np.unique(dists[same_label])
    lo, hi = 0, thresholds.size - 1
    # The largest threshold is always feasible given the label matching above.
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(same_label & (dists <= thresholds[mid])):
            hi = mid
        else:
            lo = mid + 1
    return float(thresholds[lo])


def robust_risk_check(p: DiscreteDist, theta: ModelParams, eps: float):
    """Two routes to the worst-case risk of ``p`` under per-point ``eps`` balls.

    ``lhs`` averages each atom's ball supremum, the largest loss over the
    atom and its circle at arc step ``eps / SUP_GRID_FRACTION`` (as in
    :func:`ball_supremum`).  ``rhs`` is the largest risk of a displaced
    distribution that :func:`w_infty_exact` certifies within transport
    distance ``eps`` of ``p``, among three candidates: every atom at its
    circle maximizer, and at its :func:`inner_maximize` endpoint at ``eps``
    and at ``1.5 eps``; it is ``-inf`` when none is certified.  The two must
    agree up to grid resolution: a certified candidate above ``lhs`` means
    the pointwise side missed a supremum or the certificate admitted a
    distribution outside the ambiguity set, and an uncertified set of
    maximizers leaves ``rhs`` below ``lhs``.  A latent dimension other than
    2 is an ``UnsupportedInstanceError``.
    """
    _require_radius(eps, "eps")
    _require_support_within(p, CHECK_MAX_SUPPORT)

    sups, maximizers = zip(*(_grid_max_loss(theta, z, int(y), eps, _SPHERE_ANGLES)
                             for z, y in zip(p.points, p.labels)))
    lhs = float(np.mean(sups))
    candidates = [np.asarray(maximizers)] + [
        inner_maximize(theta, p.points, p.labels, scale * eps) for scale in (1.0, 1.5)]
    rhs = -math.inf
    for points in candidates:
        if w_infty_exact(DiscreteDist(points, p.labels), p) <= eps * (1.0 + 1e-9) + 1e-12:
            losses = model.cross_entropy(model.logits_from_latent(theta, points), p.labels)
            rhs = max(rhs, float(np.mean(losses)))
    return lhs, rhs


def all_label_matchings_finite(p: DiscreteDist, q: DiscreteDist) -> bool:
    """True when some label-respecting perfect matching exists.

    Brute force over permutations: the reference that
    :func:`verification.check_wasserstein_axioms` holds the cross-label
    infinities of :func:`w_infty_exact` against.
    """
    if p.support_size != q.support_size:
        return False
    for perm in itertools.permutations(range(q.support_size)):
        if all(p.labels[i] == q.labels[j] for i, j in enumerate(perm)):
            return True
    return False
