import math

import numpy as np
import pytest

from hierdro.convergence import (
    BoundConstants,
    bound_constants,
    canonical_instance,
    duality_gap,
    expected_error_bound,
    rate_study,
    objective_value,
    reference_optimum,
)
from hierdro.datagen import GroupedDataset, make_spurious
from hierdro.errors import ParameterError, UnsupportedDiagnosticError
from hierdro.model import LINEAR, MLP1, ModelParams, ModelSpec, init_params
from hierdro.solver import HIERARCHICAL, SolverConfig, group_mean_losses, train


def mirrored_dataset(n=20, d=3, seed=0):
    """Two groups whose worst-class risk equals the pooled logistic risk at
    the symmetric optimum: class-1 rows are exact negations of class-0 rows."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(n, d)) + np.concatenate([[1.0], np.zeros(d - 1)])
    feats = np.concatenate([x0, -x0])
    labels = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return GroupedDataset(feats, labels, np.zeros(2 * n, dtype=int), 2, 1)


def direct_logistic_minimum(ds, iterations=200_000, step=0.5):
    """Independent full-gradient descent on the pooled logistic risk."""
    signs = 2.0 * ds.labels - 1.0
    w = np.zeros(ds.d)
    b = 0.0
    for _ in range(iterations):
        sig = 1.0 / (1.0 + np.exp(signs * (ds.features @ w + b)))
        w -= step * (-(sig * signs) @ ds.features / ds.n)
        b -= step * float(-(sig * signs).mean())
    return float(np.mean(np.logaddexp(0.0, -signs * (ds.features @ w + b))))


def test_gap_at_reference_minimizer_is_tiny():
    ds = mirrored_dataset()
    ref = reference_optimum(ds, 0.5, iterations=100_000)
    gap = duality_gap(ref.theta, ds, 0.5, ref.value)
    assert abs(gap) <= 1e-4


def test_single_effective_group_matches_direct_convex_solve():
    # With mirrored groups the min-max value collapses to the plain pooled
    # logistic minimum, cross-checked against an independent solver.
    ds = mirrored_dataset()
    ref = reference_optimum(ds, 0.0, iterations=100_000)
    direct = direct_logistic_minimum(ds)
    assert abs(ref.value - direct) <= 1.5e-4
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    gap = duality_gap(theta, ds, 0.0, ref.value)
    assert gap == pytest.approx(math.log(2.0) - direct, abs=1.5e-4)


def test_diagnostics_reject_nonconvex_models():
    ds = make_spurious((8, 8, 8, 8), 0.5, 0.5, 0.1, seed=3)
    mlp = init_params(ModelSpec(MLP1, hidden_width=4), ds.d, 2, seed=0)
    three_class = ModelParams(w_out=np.zeros((3, ds.d)), b_out=np.zeros(3))
    for theta in (mlp, three_class):
        with pytest.raises(UnsupportedDiagnosticError):
            objective_value(theta, ds, 0.5)
        with pytest.raises(UnsupportedDiagnosticError):
            duality_gap(theta, ds, 0.0, 0.0)
        with pytest.raises(UnsupportedDiagnosticError):
            bound_constants(ds, [theta], 0.0)


def test_bound_constants_zero_model():
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.1, seed=4)
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    constants = bound_constants(ds, [theta], 0.0)
    assert constants.b_loss >= math.log(2.0) - 1e-12
    assert constants.b_theta == 0.0


def test_bound_constants_monotone_in_trajectory_prefix():
    ds = make_spurious((20, 10, 8, 18), 0.5, 0.5, 0.15, seed=5)
    config = SolverConfig(mode="hierarchical", eta_beta=0.2, eta_theta=0.2,
                          epsilon=0.5, iterations=400, batch_size=4, seed=6,
                          checkpoint_every=100)
    init = init_params(ModelSpec("linear"), ds.d, 2, seed=7)
    result = train(ds, ds, init, config)
    thetas = [cp.theta for cp in result.history]
    half = bound_constants(ds, thetas[:2], config.effective_epsilon)
    full = bound_constants(ds, thetas, config.effective_epsilon)
    assert full.b_theta >= half.b_theta
    assert full.b_grad >= half.b_grad
    assert full.b_loss >= half.b_loss
    # Bounded-trajectory sanity: doubling the horizon keeps constants within 2x.
    assert full.b_theta <= 2.0 * half.b_theta + 1e-9
    assert full.b_loss <= 2.0 * half.b_loss + 1e-9


def test_expected_error_bound_formula():
    constants = BoundConstants(b_theta=2.0, b_grad=3.0, b_loss=1.5)
    m, horizon = 4, 10_000
    expected = 2 * m * math.sqrt(10 * (4.0 * 9.0 + 2.25 * math.log(m)) / horizon)
    assert expected_error_bound(m, constants, horizon) == pytest.approx(expected)


def test_rate_study_short_horizons():
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon, iterations=50_000)
    short = SolverConfig(**{**config.__dict__, "checkpoint_every": 500})
    report = rate_study(ds, short, horizons=(500, 2000), reference=ref)
    assert report.horizons == (500, 2000)
    assert all(g >= -1e-4 for g in report.gaps)
    assert all(g <= b for g, b in zip(report.gaps, report.bounds))
    with pytest.raises(UnsupportedDiagnosticError):
        rate_study(ds, short, horizons=(501,), reference=ref)


def test_worst_objective_of_average_iterate_nonincreasing_over_doublings():
    ds, config = canonical_instance()
    short = SolverConfig(**{**config.__dict__, "iterations": 8000, "checkpoint_every": 1000})
    init = init_params(ModelSpec("linear"), ds.d, 2, seed=short.seed)
    result = train(ds, ds, init, short)
    by_iter = {cp.iteration: cp for cp in result.history}
    values = [objective_value(by_iter[h].theta_bar, ds, short.effective_epsilon)[1]
              for h in (1000, 2000, 4000, 8000)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-3


# --------------------------------------------------------- objective_value


def small_ds(seed=0, counts=(40, 12, 10, 38)):
    return make_spurious(counts, 0.5, 0.5, 0.2, seed=seed)


def test_objective_zero_radius_is_group_mean_loss():
    ds = small_ds()
    theta = init_params(ModelSpec(LINEAR), ds.d, 2, seed=11)
    f_g, worst = objective_value(theta, ds, 0.0)
    np.testing.assert_allclose(f_g, group_mean_losses(theta, ds), atol=1e-12)
    assert worst == pytest.approx(np.max(f_g))


def test_objective_closed_form_single_point():
    v = np.array([0.8, -0.6, 0.0])
    theta = ModelParams(w_out=np.stack([np.zeros(3), v]), b_out=np.array([0.0, 0.25]))
    z = np.array([[1.0, 0.5, 2.0]])
    ds = GroupedDataset(z, np.array([1]), np.array([0]), 2, 2)
    eps = 0.7
    f_g, worst = objective_value(theta, ds, eps * math.sqrt(1))
    margin = v @ z[0] + 0.25
    expected = math.log1p(math.exp(-margin + eps * np.linalg.norm(v)))
    assert f_g[2] == pytest.approx(expected, abs=1e-12)
    assert worst == pytest.approx(expected, abs=1e-12)


def test_objective_zero_weights_insensitive_to_radius():
    ds = small_ds()
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    for eps in (0.0, 1.0, 10.0):
        f_g, worst = objective_value(theta, ds, eps)
        np.testing.assert_allclose(f_g[np.isfinite(f_g)], math.log(2.0), atol=1e-15)
        assert worst == pytest.approx(math.log(2.0))


def test_perturbation_dominance_along_training():
    ds = small_ds()
    theta0 = init_params(ModelSpec(LINEAR), ds.d, 2, seed=13)
    config = SolverConfig(mode=HIERARCHICAL, eta_beta=0.1, eta_theta=0.1, epsilon=1.0,
                          adjustment=1.0, iterations=200, batch_size=4, seed=3,
                          checkpoint_every=50)
    result = train(ds, ds, theta0, config)
    for cp in result.history:
        _, with_ball = objective_value(cp.theta, ds, 1.0)
        _, without = objective_value(cp.theta, ds, 0.0)
        assert with_ball >= without - 1e-12


@pytest.mark.parametrize("epsilon", [-0.5, math.nan, math.inf])
def test_diagnostics_refuse_a_bad_radius_scale(epsilon):
    ds = small_ds()
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    with pytest.raises(ParameterError):
        objective_value(theta, ds, epsilon)
    with pytest.raises(ParameterError):
        reference_optimum(ds, epsilon, iterations=10)
    with pytest.raises(ParameterError):
        bound_constants(ds, [theta], epsilon)
