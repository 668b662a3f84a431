"""Perturbation radii, ball projection, latent ascent, and exact small oracles.

The per-group radius schedule is ``eps_g = eps / sqrt(n_g)``: scarce groups
get wider balls.  Balls are Euclidean; the l2 norm is self-dual, which makes
the first-order expansion of the ball supremum ``loss + eps * ||grad_z||_2``.

Two exact oracles validate the optimization machinery at toy scale:

* :func:`w_infty_exact` computes the infinity-order transport distance
  between equal-mass empirical distributions as a bottleneck matching, with
  cost = latent l2 distance for equal labels and infinity otherwise.
* :func:`robust_risk_check` compares the per-point ball-supremum risk with
  the risk of the worst same-size displacement of the empirical measure,
  which must coincide.

For a binary affine output layer the ball supremum has a closed form,
:func:`binary_robust_loss`; every exact robust loss in the package goes
through it, and :mod:`convergence` builds the robust objective from it.

Grid-based suprema use step ``eps / SUP_GRID_FRACTION`` (documented in every
report).  Cross-entropy composed with an affine layer is convex in the
latent, so ball suprema are attained on the sphere; boundary grids therefore
cover the maximizer.  The grid oracles (:func:`ball_supremum`,
:func:`taylor_gap`, :func:`robust_risk_check`) are exact up to that step for
latent dimension <= 2 and raise ``UnsupportedInstanceError`` above it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model
from .errors import ParameterError, UnsupportedInstanceError
from .model import ModelParams

SUP_GRID_FRACTION = 100
ORACLE_MAX_SUPPORT = 8
CHECK_MAX_SUPPORT = 6
DEFAULT_ETA_Z_FACTOR = 10.0


def radius(epsilon, n_g):
    """Per-group radius ``epsilon / sqrt(n_g)``; elementwise for arrays.

    The one check on the radius scale: a negative, nan or infinite
    ``epsilon`` is a ``ParameterError``.
    """
    if not np.all(np.isfinite(epsilon)) or np.any(np.less(epsilon, 0)):
        raise ParameterError("epsilon must be finite and nonnegative")
    if np.any(np.less_equal(n_g, 0)):
        raise ParameterError("group size must be positive")
    return epsilon / (np.sqrt(n_g) if np.ndim(n_g) else math.sqrt(n_g))


def project_ball(z_prime: np.ndarray, z_center: np.ndarray, eps: float) -> np.ndarray:
    """Euclidean projection of ``z_prime`` onto the ball around ``z_center``.

    Batched over leading axes when the inputs are 2-D.
    """
    if eps < 0:
        raise ParameterError("ball radius must be nonnegative")
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


def inner_maximize(
    theta: ModelParams,
    z: np.ndarray,
    y,
    eps_g: float,
    steps: int = 1,
    eta_z: float | None = None,
) -> np.ndarray:
    """Projected gradient ascent on the loss inside the ``eps_g`` ball.

    Returns the best iterate encountered (the start point included), so the
    result never decreases the loss and never leaves the ball.  For a binary
    affine output layer the ascent direction is constant, so a single step
    with a boundary-reaching ``eta_z`` lands on the exact ball maximizer.
    """
    if eps_g < 0:
        raise ParameterError("eps_g must be nonnegative")
    if steps < 1:
        raise ParameterError("steps must be at least 1")
    z = np.asarray(z, dtype=np.float64)
    if eps_g == 0.0:
        return z
    if eta_z is None:
        eta_z = DEFAULT_ETA_Z_FACTOR * eps_g

    single = z.ndim == 1
    z_mat = z[None, :] if single else z
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))

    best = z_mat
    best_loss, grad = model.loss_and_latent_grad(theta, z_mat, y_arr)
    current = z_mat
    for k in range(steps):
        current = project_ball(current + eta_z * grad, z_mat, eps_g)
        if k + 1 < steps:
            loss, grad = model.loss_and_latent_grad(theta, current, y_arr)
        else:
            loss = model.cross_entropy(model.logits_from_latent(theta, current), y_arr)
        improved = loss > best_loss
        best = np.where(improved[:, None], current, best)
        best_loss = np.maximum(loss, best_loss)
    return best[0] if single else best


def binary_robust_loss(z, sign, v, c, eps_g, v_norm):
    """Closed-form ball supremum of the loss for a binary affine output layer.

    With ``v = w_1 - w_0``, ``c = b_1 - b_0`` and label sign ``s = 2y - 1``
    the loss at latent ``z`` is ``logaddexp(0, -s (z . v + c))``, which grows
    fastest along ``-s v``.  Over the ``eps_g`` ball it is therefore maximal
    at ``z' = z - s eps_g v / ||v||`` (:func:`binary_ball_maximizer`), where
    the slack is ``u = -s (z . v + c) + eps_g ||v||``.  ``v_norm`` is
    ``||v||``, passed in so loops over groups compute it once; ``eps_g`` may
    be a scalar or one radius per row.  Returns ``(loss, u)`` per example.
    """
    u = -sign * (z @ v + c) + eps_g * v_norm
    return np.logaddexp(0.0, u), u


def binary_ball_maximizer(z, sign, v, eps_g, v_norm):
    """The rows ``z' = z - s eps_g v / ||v||`` at which :func:`binary_robust_loss` is attained."""
    v_hat = v / v_norm if v_norm > 0 else np.zeros_like(v)
    return z - (sign * eps_g)[:, None] * v_hat


def _sphere_grid(center: np.ndarray, eps: float) -> np.ndarray:
    """Boundary grid with arc step ``eps / SUP_GRID_FRACTION`` (dims 1-2)."""
    dim = center.shape[0]
    if dim == 1:
        return np.array([center - eps, center + eps])
    n_angles = int(math.ceil(2.0 * math.pi * SUP_GRID_FRACTION))
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    return center + eps * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _ball_grid(center: np.ndarray, eps: float) -> np.ndarray:
    """Polar/linear grid over the full ball at step ``eps / SUP_GRID_FRACTION``."""
    dim = center.shape[0]
    if dim == 1:
        offsets = np.linspace(-eps, eps, 2 * SUP_GRID_FRACTION + 1)
        return center[None, :] + offsets[:, None]
    radii = np.linspace(0.0, eps, SUP_GRID_FRACTION + 1)[1:]
    n_angles = int(math.ceil(2.0 * math.pi * SUP_GRID_FRACTION))
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = (radii[:, None, None] * ring[None, :, :]).reshape(-1, 2)
    return np.concatenate([center[None, :], center + pts])


def ball_supremum(theta: ModelParams, z: np.ndarray, y: int, eps: float) -> float:
    """Supremum of the loss over the ``eps`` ball around ``z``.

    Exact up to the grid step: the centre and a dense boundary grid (the
    loss is convex in the latent, so the maximum lies on the sphere).  Latent
    dimension above 2 is an ``UnsupportedInstanceError``.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] > 2:
        raise UnsupportedInstanceError("ball supremum supports latent dimension <= 2")
    if eps == 0.0:
        return float(model.cross_entropy(model.logits_from_latent(theta, z), y))
    points = np.concatenate([z[None, :], _sphere_grid(z, eps)])
    losses = model.cross_entropy(
        model.logits_from_latent(theta, points), np.full(points.shape[0], y, dtype=np.int64)
    )
    return float(losses.max())


def taylor_gap(theta: ModelParams, z: np.ndarray, y: int, eps: float) -> float:
    """|ball supremum - (loss + eps * ||grad_z||_2)|.

    The linear term uses the l2 norm because it is its own dual.  The gap
    shrinks quadratically as ``eps`` decreases.
    """
    if eps <= 0:
        raise ParameterError("eps must be positive")
    z = np.asarray(z, dtype=np.float64)
    base = float(model.cross_entropy(model.logits_from_latent(theta, z), y))
    grad_norm = float(np.linalg.norm(model.grad_wrt_latent(theta, z, y)))
    sup = ball_supremum(theta, z, y, eps)
    return abs(sup - (base + eps * grad_norm))


@dataclass(frozen=True)
class DiscreteDist:
    """Finite distribution over (latent point, label) atoms; oracle scale only."""

    points: np.ndarray
    labels: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        masses = np.asarray(self.masses, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ParameterError("points must be a nonempty (N, dim) matrix")
        if labels.shape != (points.shape[0],) or masses.shape != (points.shape[0],):
            raise ParameterError("labels/masses must have one entry per atom")
        if np.any(masses <= 0) or abs(masses.sum() - 1.0) > 1e-12:
            raise ParameterError("masses must be positive and sum to one")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "masses", masses)

    @property
    def support_size(self) -> int:
        return self.points.shape[0]


def uniform_dist(points, labels) -> DiscreteDist:
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    return DiscreteDist(points, np.asarray(labels), np.full(n, 1.0 / n))


def _require_equal_mass(dist: DiscreteDist, limit: int) -> None:
    n = dist.support_size
    if n > limit:
        raise UnsupportedInstanceError(f"oracle supports at most {limit} atoms, got {n}")
    if np.any(np.abs(dist.masses - 1.0 / n) > 1e-12):
        raise UnsupportedInstanceError("oracle requires equal-mass empirical distributions")


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
    _require_equal_mass(p, ORACLE_MAX_SUPPORT)
    _require_equal_mass(q, ORACLE_MAX_SUPPORT)
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

    ``lhs`` averages the per-atom ball supremum over a dense grid;
    ``rhs`` builds the displaced distribution from the same grid's per-atom
    maximizers, verifies via :func:`w_infty_exact` that it lies within
    transport distance ``eps`` of ``p``, and evaluates its risk.  The two
    must agree up to grid resolution.
    """
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    _require_equal_mass(p, CHECK_MAX_SUPPORT)
    if p.points.shape[1] > 2:
        raise UnsupportedInstanceError("risk check supports latent dimension <= 2")

    sup_values = []
    arg_points = []
    for i in range(p.support_size):
        z = p.points[i]
        y = int(p.labels[i])
        if eps == 0.0:
            grid = z[None, :]
        else:
            grid = _ball_grid(z, eps)
        losses = model.cross_entropy(
            model.logits_from_latent(theta, grid), np.full(grid.shape[0], y, dtype=np.int64)
        )
        k = int(np.argmax(losses))
        sup_values.append(float(losses[k]))
        arg_points.append(grid[k])

    lhs = float(np.dot(p.masses, sup_values))
    displaced = DiscreteDist(np.asarray(arg_points), p.labels.copy(), p.masses.copy())
    transport = w_infty_exact(displaced, p)
    if transport > eps * (1.0 + 1e-9) + 1e-12:
        raise AssertionError(
            f"displaced distribution left the ball: W_inf={transport} > eps={eps}"
        )
    rhs_losses = [
        float(model.cross_entropy(model.logits_from_latent(theta, displaced.points[i]),
                                  int(displaced.labels[i])))
        for i in range(displaced.support_size)
    ]
    rhs = float(np.dot(displaced.masses, rhs_losses))
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
