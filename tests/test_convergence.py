import math

import numpy as np
import pytest

from hierdro.ambiguity import AmbiguityConfig
from hierdro.convergence import (
    BoundConstants,
    bound_constants,
    canonical_instance,
    duality_gap,
    expected_error_bound,
    rate_study,
    reference_optimum,
    worst_robust_loss,
)
from hierdro.datagen import GroupedDataset, make_spurious
from hierdro.errors import UnsupportedDiagnosticError
from hierdro.model import MLP1, ModelParams, ModelSpec, init_params
from hierdro.solver import SolverConfig, train


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
    ambiguity = AmbiguityConfig(epsilon=0.5)
    ref = reference_optimum(ds, ambiguity, iterations=100_000)
    gap = duality_gap(ref.theta, ds, ambiguity, ref.value)
    assert abs(gap) <= 1e-4


def test_single_effective_group_matches_direct_convex_solve():
    # With mirrored groups the min-max value collapses to the plain pooled
    # logistic minimum, cross-checked against an independent solver.
    ds = mirrored_dataset()
    ambiguity = AmbiguityConfig(epsilon=0.0)
    ref = reference_optimum(ds, ambiguity, iterations=100_000)
    direct = direct_logistic_minimum(ds)
    assert abs(ref.value - direct) <= 1.5e-4
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    gap = duality_gap(theta, ds, ambiguity, ref.value)
    assert gap == pytest.approx(math.log(2.0) - direct, abs=1.5e-4)


def test_diagnostics_reject_nonconvex_models():
    ds = make_spurious((8, 8, 8, 8), 0.5, 0.5, 0.1, seed=3)
    mlp = init_params(ModelSpec(MLP1, hidden_width=4), ds.d, 2, seed=0)
    with pytest.raises(UnsupportedDiagnosticError):
        duality_gap(mlp, ds, AmbiguityConfig(epsilon=0.0), 0.0)
    with pytest.raises(UnsupportedDiagnosticError):
        worst_robust_loss(mlp, ds, AmbiguityConfig(epsilon=0.0))


def test_bound_constants_zero_model():
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.1, seed=4)
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    constants = bound_constants(ds, [theta], AmbiguityConfig(epsilon=0.0))
    assert constants.b_loss >= math.log(2.0) - 1e-12
    assert constants.b_theta == 0.0


def test_bound_constants_monotone_in_trajectory_prefix():
    ds = make_spurious((20, 10, 8, 18), 0.5, 0.5, 0.15, seed=5)
    config = SolverConfig(mode="hierarchical", eta_beta=0.2, eta_theta=0.2,
                          epsilon=0.5, iterations=400, batch_size=4, seed=6,
                          checkpoint_every=100)
    init = init_params(ModelSpec("linear"), ds.d, 2, seed=7)
    result = train(ds, ds, init, config)
    ambiguity = config.ambiguity()
    thetas = [cp.theta for cp in result.history]
    half = bound_constants(ds, thetas[:2], ambiguity)
    full = bound_constants(ds, thetas, ambiguity)
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
    ambiguity = config.ambiguity()
    ref = reference_optimum(ds, ambiguity, iterations=50_000)
    short = SolverConfig(**{**config.__dict__, "checkpoint_every": 500})
    report = rate_study(ds, short, horizons=(500, 2000), reference=ref)
    assert report.horizons == (500, 2000)
    assert all(g >= -1e-4 for g in report.gaps)
    assert all(g <= b for g, b in zip(report.gaps, report.bounds))
    with pytest.raises(UnsupportedDiagnosticError):
        rate_study(ds, short, horizons=(501,), reference=ref)


def test_worst_objective_of_average_iterate_nonincreasing_over_doublings():
    ds, config = canonical_instance()
    ambiguity = config.ambiguity()
    short = SolverConfig(**{**config.__dict__, "iterations": 8000, "checkpoint_every": 1000})
    from hierdro.model import ModelSpec, init_params
    from hierdro.solver import train
    init = init_params(ModelSpec("linear"), ds.d, 2, seed=short.seed)
    result = train(ds, ds, init, short)
    by_iter = {cp.iteration: cp for cp in result.history}
    values = [worst_robust_loss(by_iter[h].theta_bar, ds, ambiguity)
              for h in (1000, 2000, 4000, 8000)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-3
