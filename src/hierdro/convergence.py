"""The robust objective and convergence diagnostics for the convex (linear, binary) setting.

The saddle objective is ``L(theta, beta) = sum_g beta_g f_g(theta)`` with
``f_g`` the group's mean ball-supremum loss; its simplex maximum is simply
``max_g f_g``.  For a linear binary model each ``f_g`` has a closed form and
is convex in the parameters.  This module owns that objective: one
precomputed problem per (dataset, epsilon) serves :func:`objective_value`,
:func:`reference_optimum` and :func:`bound_constants`, which take the radius
scale ``epsilon`` as a float and refuse any other model.  The duality gap of
the averaged iterate

    gap(T) = max_g f_g(theta_bar_T) - min_theta max_g f_g(theta)

is well defined.  The reference minimum is bracketed once per instance by a
primal-dual pair (:func:`reference_optimum`): any ``theta`` gives the upper
bound ``max_g f_g(theta)``, and any ``beta`` on the simplex the lower bound
``min_theta sum_g beta_g f_g(theta)`` by weak duality.  The bracket's
measured width, about 1e-9, bounds how negative a measured gap may
legitimately be.

The solver keeps no running average, since training never reads one:
:func:`rate_study` steps one row by :func:`solver.advance` and averages its
iterates itself.  The averaged iterate contracts the gap at the canonical
rate ``2 m sqrt(10 (B_theta^2 B_grad^2 + B_loss^2 log m) / T)``,
where the three constants bound the parameter norm, per-example gradient
norm and per-example robust loss along the trajectory.  The study reports
measured gaps next to this bound evaluated with measured constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model, solver
from .ambiguity import _head_norm, binary_robust_loss, inner_maximize, radius
from .datagen import GroupedDataset, make_spurious
from .errors import ParameterError, UnsupportedDiagnosticError
from .model import LINEAR, ModelParams, ModelSpec, init_params
from .solver import HIERARCHICAL, SolverConfig

REFERENCE_ITERATIONS = 10_000      # the default cap on reference_optimum's dual rounds
REFERENCE_WIDTH = 1e-9             # the bracket width at which reference_optimum stops
# A Newton solve whose decrement lambda^2 is at most this has converged; its
# value less lambda^2 is then a lower bound on the weighted minimum.
NEWTON_DECREMENT = 1e-20
NEWTON_MAX_STEPS = 50


def _head(theta: ModelParams):
    """The row difference ``v = w_1 - w_0`` and bias difference ``c`` of the
    linear binary model; any other model is an ``UnsupportedDiagnosticError``."""
    if theta.architecture != LINEAR or theta.num_classes != 2:
        raise UnsupportedDiagnosticError(
            "convergence diagnostics require the linear binary model"
        )
    return theta.w_out[1] - theta.w_out[0], theta.b_out[1] - theta.b_out[0]


def _mean(a: np.ndarray) -> np.float64:
    """``np.mean`` of a vector, bitwise, without its Python wrapper."""
    return np.add.reduce(a) / a.shape[0]


class _RobustProblem:
    """The robust objective of one (dataset, epsilon): the examples in group
    order (``group_``), with their features, labels, label signs
    ``s = 2y - 1`` and radii, and per present group its index, features,
    slice of the group-ordered rows and radius.  A negative or non-finite
    ``epsilon`` is a ``ParameterError`` (:func:`ambiguity.radius`), and a
    ``v`` whose norm is not finite a ``DivergenceError``
    (:func:`ambiguity._head_norm`)."""

    def __init__(self, ds: GroupedDataset, epsilon: float):
        present = np.flatnonzero(ds.n_g)
        group_radius = np.zeros(ds.num_groups)
        group_radius[present] = radius(epsilon, ds.n_g[present])
        rows = [ds.group_rows(g) for g in present.tolist()]
        order = np.concatenate(rows)
        self.group_features = ds.features[order]
        self.group_labels = ds.labels[order]
        self.group_sign = 2.0 * self.group_labels.astype(np.float64) - 1.0
        self.group_radii = group_radius[ds.group_of[order]]
        # Each row's slack u = -s (z . v + c) + eps_g ||v|| has gradient
        # (-s z + eps_g v / ||v||, -s) in (v, c); the -s z part is fixed.
        self.signed_features = -self.group_sign[:, None] * self.group_features
        self.sizes = np.array([r.size for r in rows])
        ends = np.cumsum(self.sizes)
        self.starts = ends - self.sizes
        self.groups = [(g, ds.features[r], slice(end - r.size, end), float(group_radius[g]))
                       for g, r, end in zip(present.tolist(), rows, ends.tolist())]

    def losses(self, v: np.ndarray, c: float, v_norm: float):
        """The loss and slack of the group-ordered rows, in one closed-form call.
        ``z . v`` is taken per group, since BLAS may compute the last rows of a
        product by another kernel (OpenBLAS: the last ``n mod 4``, other bits)."""
        margin = np.concatenate([feats @ v for _, feats, _, _ in self.groups]) + c
        return binary_robust_loss(margin, self.group_sign, self.group_radii, v_norm)

    def group_values(self, v: np.ndarray, c: float):
        """Each present group's ``f_g``, in ``groups`` order, and the rows' slacks."""
        losses, u = self.losses(v, c, _head_norm(v, "the robust objective"))
        return np.array([_mean(losses[rows]) for _, _, rows, _ in self.groups]), u

    def weighted_minimum(self, beta: np.ndarray, x: np.ndarray):
        """Damped Newton on ``F = sum_g beta_g f_g`` in ``x = (v, c)``, from ``x``.

        Returns ``(x, f, F, lambda^2, H, J)`` at the last point: the group
        values, ``F``, the Newton decrement, the Hessian of ``F`` and the
        Jacobian of the group values, one row per present group.  ``||v||`` is
        smooth away from ``v = 0``; at ``v = 0`` its subgradient 0 is taken,
        without curvature.
        """
        weights = np.repeat(beta / self.sizes, self.sizes)
        d = x.size - 1
        for newton_step in range(NEWTON_MAX_STEPS + 1):
            v = x[:d]
            v_norm = _head_norm(v, "the robust objective")
            f, u = self.group_values(v, x[d])
            current = float(beta @ f)
            sig = 1.0 / (1.0 + np.exp(-u))
            du = np.empty((u.size, d + 1))
            du[:, :d] = self.signed_features
            du[:, d] = -self.group_sign
            hessian = np.zeros((d + 1, d + 1))
            if v_norm > 0:
                v_hat = v / v_norm
                du[:, :d] += self.group_radii[:, None] * v_hat
                hessian[:d, :d] = ((weights * sig) @ self.group_radii / v_norm
                                   * (np.eye(d) - np.outer(v_hat, v_hat)))
            grad = (weights * sig) @ du
            hessian += (du.T * (weights * sig * (1.0 - sig))) @ du
            step = np.linalg.solve(hessian, -grad)
            decrement = -float(grad @ step)
            if decrement <= NEWTON_DECREMENT or newton_step == NEWTON_MAX_STEPS:
                break
            t = 1.0                     # backtracking to sufficient decrease, or a vanishing step
            while (float(beta @ self.group_values(x[:d] + t * step[:d], x[d] + t * step[d])[0])
                   > current - 0.25 * t * decrement and t > 1e-12):
                t *= 0.5
            x = x + t * step
        jacobian = np.add.reduceat(sig[:, None] * du, self.starts) / self.sizes[:, None]
        return x, f, current, decrement, hessian, jacobian


def objective_value(theta: ModelParams, ds: GroupedDataset, epsilon: float):
    """Per-group ball-supremum risks ``f_g`` and their maximum over the simplex.

    Exact, by the closed form :func:`ambiguity.binary_robust_loss`, for the
    linear binary model; any other model is an ``UnsupportedDiagnosticError``.
    Group ``g``'s radius is ``radius(epsilon, n_g)``.  Returns
    ``(f_g, worst)`` where absent groups have ``f_g = nan``.
    """
    problem = _RobustProblem(ds, epsilon)
    f_g = np.full(ds.num_groups, np.nan)
    f_g[[g for g, _, _, _ in problem.groups]] = problem.group_values(*_head(theta))[0]
    return f_g, float(np.nanmax(f_g))


@dataclass(frozen=True)
class ReferenceSolution:
    """``lower <= min_theta max_g f_g <= upper`` after ``rounds`` dual rounds;
    ``theta`` attains ``upper``, the reference value."""

    lower: float
    upper: float
    theta: ModelParams
    rounds: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def reference_optimum(
    ds: GroupedDataset,
    epsilon: float,
    iterations: int = REFERENCE_ITERATIONS,
) -> ReferenceSolution:
    """Bracket ``min_theta max_g f_g`` by weak duality, in at most ``iterations`` rounds.

    The objective only depends on the output-row difference ``v = w1 - w0``
    and bias difference ``c``, so each round works in those 11 unknowns.  A
    round solves ``min sum_g beta_g f_g`` by damped Newton, warm-started at
    the last round's minimizer: its value less the Newton decrement is a
    lower bound, and the largest ``f_g`` at its minimizer an upper bound.
    ``beta`` then takes an exponentiated-gradient step along the Danskin
    gradient ``f(theta*(beta))``, of length ``2 / trace(P Q)``: ``Q = J H^-1
    J^T`` is minus the dual's Hessian and ``P = diag(beta) - beta beta^T``
    maps a log-weight step to ``beta``, so the step stays within the
    stability limit ``2 / lambda_max(P Q)`` of the dual's quadratic model.
    The rounds stop once the bracket is at most ``REFERENCE_WIDTH`` wide.
    Fewer than one round is a ``ParameterError``.
    """
    if iterations < 1:
        raise ParameterError(f"reference_optimum needs at least one round, got {iterations}")
    problem = _RobustProblem(ds, epsilon)
    beta = np.full(len(problem.groups), 1.0 / len(problem.groups))
    best = x = np.zeros(ds.d + 1)
    lower, upper = -math.inf, math.inf
    for rounds in range(1, iterations + 1):
        x, f, value, decrement, hessian, jacobian = problem.weighted_minimum(beta, x)
        if f.max() < upper:
            upper, best = float(f.max()), x
        if decrement <= NEWTON_DECREMENT:
            lower = max(lower, value - decrement)
        if upper - lower <= REFERENCE_WIDTH:
            break
        curvature = (np.diag(beta) - np.outer(beta, beta)) @ jacobian @ np.linalg.solve(
            hessian, jacobian.T)
        beta = beta * np.exp(2.0 / np.trace(curvature) * (f - f.max()))
        beta /= beta.sum()
    v, c = best[:-1], best[-1]
    theta = ModelParams(w_out=np.stack([-v / 2.0, v / 2.0]), b_out=np.array([-c / 2.0, c / 2.0]))
    return ReferenceSolution(lower=lower, upper=upper, theta=theta, rounds=rounds)


@dataclass(frozen=True)
class BoundConstants:
    b_theta: float
    b_grad: float
    b_loss: float


def bound_constants(
    ds: GroupedDataset,
    thetas,
    epsilon: float,
) -> BoundConstants:
    """Empirical maxima of parameter norm, per-example gradient norm at the
    ball maximizer, and per-example robust loss over a parameter trajectory."""
    problem = _RobustProblem(ds, epsilon)
    b_theta = b_grad = b_loss = 0.0
    for theta in thetas:
        v, c = _head(theta)
        v_norm = _head_norm(v, "the robust objective")
        losses, u = problem.losses(v, c, v_norm)
        # Per-example gradient at the maximizing latent z': dlogits has norm
        # sqrt(2)*sigma(u), so the (W, b) gradient norm is
        # sqrt(2)*sigma(u)*sqrt(||z'||^2 + 1).
        z_prime = np.concatenate([
            inner_maximize(theta, feats, problem.group_labels[rows], eps_g)
            for _, feats, rows, eps_g in problem.groups])
        sig = 1.0 / (1.0 + np.exp(-u))
        grad_norms = np.sqrt(2.0) * sig * np.sqrt((z_prime ** 2).sum(axis=1) + 1.0)
        b_theta = max(b_theta, model.params_norm(theta))
        b_loss = max(b_loss, float(losses.max()))
        b_grad = max(b_grad, float(grad_norms.max()))
    return BoundConstants(b_theta=b_theta, b_grad=b_grad, b_loss=b_loss)


def expected_error_bound(m: int, constants: BoundConstants, horizon: int) -> float:
    inner = constants.b_theta ** 2 * constants.b_grad ** 2 + constants.b_loss ** 2 * math.log(m)
    return 2.0 * m * math.sqrt(10.0 * inner / horizon)


@dataclass(frozen=True)
class ConvergenceReport:
    horizons: tuple[int, ...]
    gaps: tuple[float, ...]
    bounds: tuple[float, ...]
    constants: tuple[BoundConstants, ...]


def rate_study(
    ds: GroupedDataset,
    config: SolverConfig,
    horizons,
    reference: ReferenceSolution,
) -> ConvergenceReport:
    """Train once to the largest horizon and report gaps alongside bounds.

    The study starts one row on ``ds`` under ``config`` from the linear model
    of seed ``config.seed``, drives :func:`solver.advance` on it and averages
    the iterates itself: ``theta_bar`` starts at the initial model and takes
    each step's ``theta`` by :func:`model.average_params`.  ``theta`` and
    ``theta_bar`` are kept at every multiple of ``config.checkpoint_every``,
    which must divide every horizon.  An empty horizon list, a horizon below 1
    or one given twice is an ``UnsupportedDiagnosticError``, before any step; a
    row that diverges raises its ``DivergenceError``.
    """
    horizons = tuple(int(h) for h in sorted(horizons))
    if not horizons:
        raise UnsupportedDiagnosticError("the rate study needs at least one horizon")
    for h, previous in zip(horizons, (None,) + horizons):
        if h < 1:
            raise UnsupportedDiagnosticError(f"horizon {h} is below 1")
        if h == previous:
            raise UnsupportedDiagnosticError(f"horizon {h} is given twice")
        if h % config.checkpoint_every != 0:
            raise UnsupportedDiagnosticError(
                f"horizon {h} is not a multiple of checkpoint_every={config.checkpoint_every}"
            )
    run_cfg = replace(config, iterations=horizons[-1])
    epsilon = run_cfg.effective_epsilon
    init = init_params(ModelSpec(LINEAR), ds.d, ds.num_labels, seed=run_cfg.seed)
    state = solver.Lockstep.start([init], [run_cfg], ds)
    theta_bar = state.theta
    thetas, averages = {}, {}
    for _ in solver.advance(state):
        if state.failed:
            raise state.failed[0]
        theta_bar = model.average_params(theta_bar, state.theta, state.t)
        if state.t % run_cfg.checkpoint_every == 0:
            thetas[state.t] = model.row_params(state.theta, 0)
            averages[state.t] = model.row_params(theta_bar, 0)

    gaps, bounds, constants = [], [], []
    for h in horizons:
        gaps.append(objective_value(averages[h], ds, epsilon)[1] - reference.upper)
        consts = bound_constants(ds, [theta for t, theta in thetas.items() if t <= h], epsilon)
        constants.append(consts)
        bounds.append(expected_error_bound(ds.num_groups, consts, h))
    return ConvergenceReport(
        horizons=horizons,
        gaps=tuple(gaps),
        bounds=tuple(bounds),
        constants=tuple(constants),
    )


def canonical_instance():
    """The fixed convex study instance: four unequal groups, linear binary model.

    Returns ``(dataset, solver_config)``; the radius parameter is chosen so
    the smallest group's ball radius is about 0.3.
    """
    ds = make_spurious(
        n_per_group=(160, 60, 40, 140),
        spurious_strength=0.6,
        noise_sd=0.5,
        label_flip_p=0.1,
        seed=20240,
    )
    epsilon = 0.3 * math.sqrt(int(ds.n_g.min()))
    config = SolverConfig(
        mode=HIERARCHICAL,
        eta_beta=0.2,
        eta_theta=0.2,
        epsilon=epsilon,
        adjustment=0.0,
        iterations=0,
        batch_size=8,
        sampling=solver.GROUP_UNIFORM,
        seed=7,
        checkpoint_every=20_000,
        decay_steps=True,
    )
    return ds, config
