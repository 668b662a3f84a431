import dataclasses
import math

import numpy as np
import pytest

from hierdro import solver
from hierdro.ambiguity import binary_robust_loss
from hierdro.convergence import (
    REFERENCE_ITERATIONS,
    _RobustProblem,
    BoundConstants,
    bound_constants,
    canonical_instance,
    expected_error_bound,
    rate_study,
    objective_value,
    reference_optimum,
)
from hierdro.datagen import GroupedDataset, make_spurious
from hierdro.errors import DivergenceError, ParameterError, UnsupportedDiagnosticError
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
    gap = objective_value(ref.theta, ds, 0.5)[1] - ref.upper
    assert abs(gap) <= 1e-4


def test_single_effective_group_matches_direct_convex_solve():
    # With mirrored groups the min-max value collapses to the plain pooled
    # logistic minimum, cross-checked against an independent solver.
    ds = mirrored_dataset()
    ref = reference_optimum(ds, 0.0, iterations=100_000)
    direct = direct_logistic_minimum(ds)
    assert abs(ref.upper - direct) <= 1.5e-4
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    gap = objective_value(theta, ds, 0.0)[1] - ref.upper
    assert gap == pytest.approx(math.log(2.0) - direct, abs=1.5e-4)


def test_diagnostics_reject_nonconvex_models():
    ds = make_spurious((8, 8, 8, 8), 0.5, 0.5, 0.1, seed=3)
    mlp = init_params(ModelSpec(MLP1, hidden_width=4), ds.d, 2, seed=0)
    three_class = ModelParams(w_out=np.zeros((3, ds.d)), b_out=np.zeros(3))
    for theta in (mlp, three_class):
        with pytest.raises(UnsupportedDiagnosticError):
            objective_value(theta, ds, 0.5)
        with pytest.raises(UnsupportedDiagnosticError):
            bound_constants(ds, [theta], 0.0)


def test_bound_constants_zero_model():
    ds = make_spurious((10, 10, 10, 10), 0.5, 0.5, 0.1, seed=4)
    theta = ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2))
    constants = bound_constants(ds, [theta], 0.0)
    assert constants.b_loss >= math.log(2.0) - 1e-12
    assert constants.b_theta == 0.0


def sign_scaled_maximizer(z, y, v, eps_g):
    """The binary ball maximizer ``z - (s eps_g) v / ||v||``, label signs
    ``s = 2y - 1``; a zero ``v`` takes no step."""
    v_norm = np.linalg.norm(v)
    v_hat = v / v_norm if v_norm > 0 else np.zeros_like(v)
    return z - ((2.0 * y - 1.0) * eps_g)[:, None] * v_hat


@pytest.mark.parametrize("epsilon", [0.0, None, 7.5], ids=["zero", "canonical", "wide"])
def test_bound_constants_are_bitwise_an_independent_recomputation(epsilon):
    """``b_grad`` and ``b_loss`` rebuilt group by group from the sign-scaled
    maximizer and ``np.logaddexp``, for a zero model, two drawn models and a
    large one, at radius scale 0, the canonical one and a wide one."""
    ds, config = canonical_instance()
    epsilon = config.effective_epsilon if epsilon is None else epsilon
    thetas = [ModelParams(w_out=np.zeros((2, ds.d)), b_out=np.zeros(2)),
              init_params(ModelSpec(LINEAR), ds.d, 2, seed=1),
              init_params(ModelSpec(LINEAR), ds.d, 2, seed=2)]
    thetas.append(ModelParams(w_out=30.0 * thetas[1].w_out, b_out=30.0 * thetas[1].b_out))
    b_grad = b_loss = 0.0
    for theta in thetas:
        v, c = theta.w_out[1] - theta.w_out[0], theta.b_out[1] - theta.b_out[0]
        z_prime, slack = [], []
        for g in np.flatnonzero(ds.n_g).tolist():
            rows = ds.group_rows(g)
            z, y = ds.features[rows], ds.labels[rows]
            eps_g = epsilon / math.sqrt(ds.n_g[g])
            z_prime.append(sign_scaled_maximizer(z, y, v, eps_g))
            slack.append(-(2.0 * y - 1.0) * (z @ v + c) + eps_g * np.linalg.norm(v))
        u, z_prime = np.concatenate(slack), np.concatenate(z_prime)
        sigmoid = 1.0 / (1.0 + np.exp(-u))
        grad_norms = np.sqrt(2.0) * sigmoid * np.sqrt((z_prime ** 2).sum(axis=1) + 1.0)
        b_grad = max(b_grad, float(grad_norms.max()))
        b_loss = max(b_loss, float(np.logaddexp(0.0, u).max()))
    got = bound_constants(ds, thetas, epsilon)
    assert (got.b_grad, got.b_loss) == (b_grad, b_loss)


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


def test_diagnostics_refuse_a_head_whose_norm_overflows():
    """``v = (1e155, 1e155)`` is finite, but ``v . v`` overflows: the group
    values, the Newton solve and the bound constants refuse it, naming the
    robust objective, instead of reading an infinite norm."""
    ds = mirrored_dataset(d=2)
    theta = ModelParams(w_out=np.array([[0.0, 0.0], [1e155, 1e155]]), b_out=np.zeros(2))
    problem = _RobustProblem(ds, 1.0)
    calls = (lambda: objective_value(theta, ds, 1.0),
             lambda: problem.weighted_minimum(np.full(2, 0.5), np.array([1e155, 1e155, 0.0])),
             lambda: bound_constants(ds, [theta], 1.0))
    for call in calls:
        with pytest.raises(DivergenceError, match="robust objective"), np.errstate(over="ignore"):
            call()


def test_expected_error_bound_formula():
    constants = BoundConstants(b_theta=2.0, b_grad=3.0, b_loss=1.5)
    m, horizon = 4, 10_000
    expected = 2 * m * math.sqrt(10 * (4.0 * 9.0 + 2.25 * math.log(m)) / horizon)
    assert expected_error_bound(m, constants, horizon) == pytest.approx(expected)


def test_rate_study_short_horizons():
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon, iterations=50_000)
    short = dataclasses.replace(config, checkpoint_every=500)
    report = rate_study(ds, short, horizons=(500, 2000), reference=ref)
    assert report.horizons == (500, 2000)
    assert all(g >= -1e-4 for g in report.gaps)
    assert all(g <= b for g, b in zip(report.gaps, report.bounds))


@pytest.mark.parametrize("horizons,message", [
    ((501,), "horizon 501 is not a multiple of checkpoint_every=500"),
    ((0, 500), "horizon 0 is below 1"),
    ((-500,), "horizon -500 is below 1"),
    ((1000, 500, 1000), "horizon 1000 is given twice"),
    ((), "at least one horizon"),
], ids=["not-a-multiple", "zero", "negative", "repeated", "empty"])
def test_rate_study_refuses_bad_horizons_before_any_step(monkeypatch, horizons, message):
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon)
    monkeypatch.setattr(solver, "train_step", lambda *args: pytest.fail("a step was taken"))
    with pytest.raises(UnsupportedDiagnosticError, match=message):
        rate_study(ds, dataclasses.replace(config, checkpoint_every=500), horizons, ref)


def test_rate_study_gap_is_the_gap_of_the_plain_mean_of_the_iterates():
    """The study's running average against the plain mean of the iterates
    of a ``solver.train`` run that checkpoints every step, and each bound
    bitwise the bound of that run's iterates at the multiples of
    ``checkpoint_every``.  A step updates the study's model in place, so an
    iterate it kept uncopied would be the last one."""
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon)
    report = rate_study(ds, dataclasses.replace(config, checkpoint_every=60), (60, 180), ref)
    init = init_params(ModelSpec(LINEAR), ds.d, ds.num_labels, seed=config.seed)
    history = train(ds, ds, init, dataclasses.replace(config, iterations=180,
                                                      checkpoint_every=1)).history
    assert [cp.iteration for cp in history] == list(range(1, 181))
    for h, gap in zip(report.horizons, report.gaps):
        iterates = [cp.theta for cp in history[:h]]
        mean = ModelParams(w_out=np.mean([t.w_out for t in iterates], axis=0),
                           b_out=np.mean([t.b_out for t in iterates], axis=0))
        want = objective_value(mean, ds, config.effective_epsilon)[1] - ref.upper
        assert abs(gap - want) <= 1e-12
    for h, bound in zip(report.horizons, report.bounds):
        kept = [cp.theta for cp in history[59:h:60]]
        consts = bound_constants(ds, kept, config.effective_epsilon)
        assert bound.hex() == expected_error_bound(ds.num_groups, consts, h).hex()


def test_rate_study_raises_the_divergence_of_its_row():
    """The first step's parameters near 1e300 make the second step's ascent
    fail; the study raises the error the retired row carries, not one from
    the objective evaluated afterwards."""
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon)
    diverging = dataclasses.replace(config, eta_theta=1e300, checkpoint_every=10)
    with pytest.raises(DivergenceError, match="latent ascent") as err, np.errstate(all="ignore"):
        rate_study(ds, diverging, (10, 20), ref)
    assert err.value.snapshot["iteration"] == 2


def test_worst_objective_of_average_iterate_nonincreasing_over_doublings():
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon)
    short = dataclasses.replace(config, checkpoint_every=1000)
    gaps = rate_study(ds, short, horizons=(1000, 2000, 4000, 8000), reference=ref).gaps
    for earlier, later in zip(gaps, gaps[1:]):
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


# ------------------------------------------------ reference solve, bracket


def per_group_reference(ds, epsilon, iterations):
    """An independent primal solve: best-iterate subgradient descent on
    ``max_g f_g`` with 0.5 / sqrt(t) steps, one closed-form call, one product
    and one ``np.mean`` per group and iteration.  Its best value is an upper
    bound on the min-max value."""
    groups = []
    for g in np.flatnonzero(ds.n_g).tolist():
        rows = ds.group_rows(g)
        groups.append((ds.features[rows], 2.0 * ds.labels[rows] - 1.0,
                       epsilon / math.sqrt(int(ds.n_g[g]))))

    def value_and_subgrad(v, c):
        v_norm = float(np.linalg.norm(v))
        v_hat = v / v_norm if v_norm > 0 else np.zeros_like(v)
        best, best_parts = -math.inf, None
        for feats, sign, eps_g in groups:
            losses, u = binary_robust_loss(feats @ v + c, sign, eps_g, v_norm)
            if float(np.mean(losses)) > best:
                best, best_parts = float(np.mean(losses)), (feats, sign, eps_g, u)
        feats, sign, eps_g, u = best_parts
        sig = 1.0 / (1.0 + np.exp(-u))
        coeff = sig * (-sign)
        d_v = coeff @ feats / feats.shape[0] + sig.mean() * eps_g * v_hat
        return best, d_v, float(coeff.mean())

    v, c = np.zeros(ds.d), 0.0
    best_val = math.inf
    for t in range(1, iterations + 2):
        value, d_v, d_c = value_and_subgrad(v, c)
        best_val = min(best_val, value)
        step = 0.5 / math.sqrt(t)
        v, c = v - step * d_v, c - step * d_c
    return best_val


def absent_group_ds():
    """Groups of 40, 0, 10 and 38 rows: two sizes are no multiple of 4."""
    ds = make_spurious((40, 7, 10, 38), 0.5, 0.5, 0.2, seed=1)
    return ds.subset(np.flatnonzero(ds.group_of != 1))


def reference_instance(instance):
    if instance == "absent_group":
        return absent_group_ds(), 1.0
    ds, config = canonical_instance()
    return ds, config.effective_epsilon if instance == "canonical" else 0.0


@pytest.mark.parametrize("instance", ["canonical", "absent_group", "zero_radius"])
def test_reference_bracket_closes_and_its_upper_end_is_attained(instance):
    """The bracket closes to 1e-9 before the round cap, ``theta`` attains its
    upper end bitwise, and by weak duality an independent primal solve's best
    value is never below its lower end."""
    ds, epsilon = reference_instance(instance)
    ref = reference_optimum(ds, epsilon)
    assert ref.lower <= ref.upper and ref.width <= 1e-9
    assert ref.upper == objective_value(ref.theta, ds, epsilon)[1]
    assert 1 <= ref.rounds < REFERENCE_ITERATIONS
    assert per_group_reference(ds, epsilon, 2000) >= ref.lower


@pytest.mark.parametrize("rounds", [0, -1])
def test_reference_refuses_a_round_cap_below_one(rounds):
    ds, config = canonical_instance()
    with pytest.raises(ParameterError, match="at least one round"):
        reference_optimum(ds, config.effective_epsilon, iterations=rounds)


def test_reference_round_cap_stops_an_open_bracket():
    ds, config = canonical_instance()
    ref = reference_optimum(ds, config.effective_epsilon, iterations=3)
    assert ref.rounds == 3 and ref.width > 1e-9
    assert ref.upper == objective_value(ref.theta, ds, config.effective_epsilon)[1]
