"""The robust objective and convergence diagnostics for the convex (linear, binary) setting.

The saddle objective is ``L(theta, beta) = sum_g beta_g f_g(theta)`` with
``f_g`` the group's mean ball-supremum loss; its simplex maximum is simply
``max_g f_g``.  For a linear binary model each ``f_g`` has a closed form and
is convex in the parameters.  This module owns that objective: one
precomputed problem per (dataset, epsilon) serves :func:`objective_value`,
:func:`duality_gap`, :func:`reference_optimum` and :func:`bound_constants`,
which take the radius scale ``epsilon`` as a float and refuse any other
model.  The duality gap of the averaged iterate

    gap(T) = max_g f_g(theta_bar_T) - min_theta max_g f_g(theta)

is well defined.  The reference minimum is computed once per instance by
long-horizon subgradient descent with 1/sqrt(t) steps, tracking the best
iterate; its accuracy (about 1e-4 on desk-scale instances) bounds how
negative a measured gap may legitimately be.

The averaged iterate of the stochastic solver contracts the gap at the
canonical rate ``2 m sqrt(10 (B_theta^2 B_grad^2 + B_loss^2 log m) / T)``,
where the three constants bound the parameter norm, per-example gradient
norm and per-example robust loss along the trajectory.  The study reports
measured gaps next to this bound evaluated with measured constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, solver
from .ambiguity import binary_ball_maximizer, binary_robust_loss, radius
from .datagen import GroupedDataset, make_spurious
from .errors import UnsupportedDiagnosticError
from .model import LINEAR, ModelParams, ModelSpec, init_params
from .solver import HIERARCHICAL, SolverConfig

REFERENCE_ITERATIONS = 1_000_000
REFERENCE_STEP0 = 0.5
REFERENCE_TOLERANCE = 1e-4


def _head(theta: ModelParams):
    """The row difference ``v = w_1 - w_0`` and bias difference ``c`` of the
    linear binary model; any other model is an ``UnsupportedDiagnosticError``."""
    if theta.architecture != LINEAR or theta.num_classes != 2:
        raise UnsupportedDiagnosticError(
            "convergence diagnostics require the linear binary model"
        )
    return theta.w_out[1] - theta.w_out[0], theta.b_out[1] - theta.b_out[0]


class _RobustProblem:
    """The robust objective of one (dataset, epsilon): ``groups`` holds each
    present group's index, features, label signs ``s = 2y - 1`` and radius;
    ``sign`` and ``radii`` hold the same per example.  A negative or
    non-finite ``epsilon`` is a ``ParameterError`` (:func:`ambiguity.radius`)."""

    def __init__(self, ds: GroupedDataset, epsilon: float):
        present = np.flatnonzero(ds.n_g)
        group_radius = np.zeros(ds.num_groups)
        group_radius[present] = radius(epsilon, ds.n_g[present])
        self.sign = 2.0 * ds.labels.astype(np.float64) - 1.0
        self.radii = group_radius[ds.group_of]
        self.groups = []
        for g in present.tolist():
            rows = ds.group_rows(g)
            self.groups.append((g, ds.features[rows], self.sign[rows], float(group_radius[g])))

    def value_and_subgrad(self, v: np.ndarray, c: float):
        """``max_g f_g`` and its subgradient in the (v, c) parametrization."""
        v_norm = float(np.linalg.norm(v))
        v_hat = v / v_norm if v_norm > 0 else np.zeros_like(v)
        best = -math.inf
        best_parts = None
        for _, feats, sign, eps_g in self.groups:
            losses, u = binary_robust_loss(feats, sign, v, c, eps_g, v_norm)
            value = float(np.mean(losses))
            if value > best:
                best = value
                best_parts = (feats, sign, eps_g, u)
        feats, sign, eps_g, u = best_parts
        sig = 1.0 / (1.0 + np.exp(-u))
        coeff = sig * (-sign)
        d_v = coeff @ feats / feats.shape[0] + sig.mean() * eps_g * v_hat
        d_c = float(coeff.mean())
        return best, d_v, d_c


def objective_value(theta: ModelParams, ds: GroupedDataset, epsilon: float):
    """Per-group ball-supremum risks ``f_g`` and their maximum over the simplex.

    Exact, by the closed form :func:`ambiguity.binary_robust_loss`, for the
    linear binary model; any other model is an ``UnsupportedDiagnosticError``.
    Group ``g``'s radius is ``radius(epsilon, n_g)``.  Returns
    ``(f_g, worst)`` where absent groups have ``f_g = nan``.
    """
    problem = _RobustProblem(ds, epsilon)
    v, c = _head(theta)
    v_norm = np.linalg.norm(v)
    f_g = np.full(ds.num_groups, np.nan)
    for g, feats, sign, eps_g in problem.groups:
        losses, _ = binary_robust_loss(feats, sign, v, c, eps_g, v_norm)
        f_g[g] = float(np.mean(losses))
    return f_g, float(np.nanmax(f_g))


@dataclass(frozen=True)
class ReferenceSolution:
    value: float
    theta: ModelParams
    iterations: int
    tolerance: float = REFERENCE_TOLERANCE


def reference_optimum(
    ds: GroupedDataset,
    epsilon: float,
    iterations: int = REFERENCE_ITERATIONS,
    step0: float = REFERENCE_STEP0,
) -> ReferenceSolution:
    """Best-iterate subgradient descent on ``max_g f_g`` from a zero start.

    The objective only depends on the output-row difference ``v = w1 - w0``
    and bias difference ``c``, so the descent runs in that reduced space.
    """
    problem = _RobustProblem(ds, epsilon)
    v = np.zeros(ds.d)
    c = 0.0
    best_val = math.inf
    best_v, best_c = v, c
    for t in range(1, iterations + 1):
        value, d_v, d_c = problem.value_and_subgrad(v, c)
        if value < best_val:
            best_val, best_v, best_c = value, v, c
        step = step0 / math.sqrt(t)
        v = v - step * d_v
        c = c - step * d_c
    value, _, _ = problem.value_and_subgrad(v, c)
    if value < best_val:
        best_val, best_v, best_c = value, v, c
    theta = ModelParams(
        w_out=np.stack([-best_v / 2.0, best_v / 2.0]),
        b_out=np.array([-best_c / 2.0, best_c / 2.0]),
    )
    return ReferenceSolution(value=best_val, theta=theta, iterations=iterations)


def duality_gap(
    theta_bar: ModelParams,
    ds: GroupedDataset,
    epsilon: float,
    reference: float,
) -> float:
    """``max_g f_g(theta_bar) - reference``; may dip below zero by the reference error."""
    _, worst = objective_value(theta_bar, ds, epsilon)
    return worst - reference


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
        v_norm = float(np.linalg.norm(v))
        losses, u = binary_robust_loss(ds.features, problem.sign, v, c, problem.radii, v_norm)
        # Per-example gradient at the maximizing latent z': dlogits has norm
        # sqrt(2)*sigma(u), so the (W, b) gradient norm is
        # sqrt(2)*sigma(u)*sqrt(||z'||^2 + 1).
        z_prime = binary_ball_maximizer(ds.features, problem.sign, v, problem.radii, v_norm)
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
    reference_value: float
    reference_iterations: int


def rate_study(
    ds: GroupedDataset,
    config: SolverConfig,
    horizons,
    reference: ReferenceSolution,
) -> ConvergenceReport:
    """Train once to the largest horizon and report gaps alongside bounds.

    ``config.checkpoint_every`` must divide every horizon so the averaged
    iterate is recorded exactly there.
    """
    horizons = tuple(int(h) for h in sorted(horizons))
    for h in horizons:
        if h % config.checkpoint_every != 0:
            raise UnsupportedDiagnosticError(
                f"horizon {h} is not a multiple of checkpoint_every={config.checkpoint_every}"
            )
    run_cfg = SolverConfig(**{**config.__dict__, "iterations": horizons[-1]})
    epsilon = run_cfg.effective_epsilon
    init = init_params(ModelSpec(LINEAR), ds.d, ds.num_labels, seed=run_cfg.seed)
    result = solver.train(ds, ds, init, run_cfg)

    by_iteration = {cp.iteration: cp for cp in result.history}
    gaps, bounds, constants = [], [], []
    for h in horizons:
        cp = by_iteration[h]
        gaps.append(duality_gap(cp.theta_bar, ds, epsilon, reference.value))
        trajectory = [c.theta for c in result.history if c.iteration <= h]
        consts = bound_constants(ds, trajectory, epsilon)
        constants.append(consts)
        bounds.append(expected_error_bound(ds.num_groups, consts, h))
    return ConvergenceReport(
        horizons=horizons,
        gaps=tuple(gaps),
        bounds=tuple(bounds),
        constants=tuple(constants),
        reference_value=reference.value,
        reference_iterations=reference.iterations,
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
