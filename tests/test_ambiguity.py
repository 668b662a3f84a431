import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierdro import ambiguity as amb
from hierdro import model
from hierdro.ambiguity import (
    DiscreteDist,
    inner_maximize,
    project_ball,
    radius,
    robust_risk_check,
    taylor_gap,
    uniform_dist,
    w_infty_exact,
)
from hierdro.errors import ParameterError, UnsupportedInstanceError
from hierdro.model import ModelParams


def binary_theta(v, b=0.0):
    """A two-class output layer whose weight-row difference is ``v``."""
    v = np.asarray(v, dtype=np.float64)
    return ModelParams(w_out=np.stack([np.zeros_like(v), v]), b_out=np.array([0.0, b]))


def loss_at(theta, z, y):
    return float(model.cross_entropy(model.logits_from_latent(theta, np.asarray(z, float)), y))


# ------------------------------------------------------------------ radius


def test_radius_formula():
    assert radius(1.0, 4) == 0.5
    for n in (1, 7, 100):
        assert radius(0.0, n) == 0.0
    # Top of the default tuning grid: scaling by sqrt(n_min) makes the
    # smallest group's radius equal the raw scale.
    n_min = 56
    assert abs(radius((96 / 255) * math.sqrt(n_min), n_min) - 96 / 255) < 1e-15


def test_radius_errors():
    with pytest.raises(ParameterError):
        radius(1.0, 0)
    with pytest.raises(ParameterError):
        radius(-0.1, 3)
    for bad in (math.nan, math.inf, np.array([0.5, math.nan])):
        with pytest.raises(ParameterError):
            radius(bad, 3)


# ------------------------------------------------------------- projection


def test_project_ball_cases():
    z = np.array([3.0, 4.0])
    np.testing.assert_allclose(project_ball(z, np.zeros(2), 1.0), [0.6, 0.8])
    inside = np.array([0.1, -0.2])
    np.testing.assert_array_equal(project_ball(inside, np.zeros(2), 1.0), inside)
    center = np.array([1.0, 1.0])
    np.testing.assert_array_equal(project_ball(center, center, 0.5), center)
    with pytest.raises(ParameterError):
        project_ball(z, np.zeros(2), -1.0)


@settings(deadline=None, max_examples=200)
@given(
    point=st.lists(st.floats(-10, 10), min_size=1, max_size=5),
    offset=st.lists(st.floats(-10, 10), min_size=1, max_size=5),
    eps=st.floats(0.0, 5.0),
)
def test_project_ball_properties(point, offset, eps):
    dim = min(len(point), len(offset))
    center = np.asarray(point[:dim])
    z = center + np.asarray(offset[:dim])
    projected = project_ball(z, center, eps)
    assert np.linalg.norm(projected - center) <= eps + 1e-12
    np.testing.assert_allclose(project_ball(projected, center, eps), projected, atol=1e-12)
    if np.linalg.norm(z - center) <= eps:
        np.testing.assert_array_equal(projected, z)


# ------------------------------------------------------- inner maximization


def test_inner_maximize_zero_radius_is_identity():
    theta = binary_theta([1.0, 0.0])
    z = np.array([0.3, -0.7])
    np.testing.assert_array_equal(inner_maximize(theta, z, 1, 0.0), z)


def test_inner_maximize_known_maximizer():
    # Output difference (1, 0), y = 1: the loss decreases in z0, so the ball
    # maximizer sits at the boundary opposite the weight vector.
    theta = binary_theta([1.0, 0.0])
    z_prime = inner_maximize(theta, np.zeros(2), 1, eps_g=0.5, steps=1, eta_z=100.0)
    np.testing.assert_allclose(z_prime, [-0.5, 0.0], atol=1e-12)


def test_inner_maximize_never_decreases_and_stays_in_ball():
    rng = np.random.default_rng(0)
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        theta = ModelParams(w_out=rng.normal(size=(3, dim)), b_out=rng.normal(size=3))
        z = rng.normal(size=dim)
        y = int(rng.integers(3))
        eps = float(rng.uniform(0.0, 1.0))
        steps = int(rng.integers(1, 4))
        z_prime = inner_maximize(theta, z, y, eps, steps=steps)
        assert loss_at(theta, z_prime, y) >= loss_at(theta, z, y) - 1e-12
        assert np.linalg.norm(z_prime - z) <= eps + 1e-12


def test_one_step_attains_ball_maximum_binary_linear():
    rng = np.random.default_rng(1)
    angles = np.linspace(0, 2 * math.pi, 100_000, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(25):
        theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
        z = rng.normal(size=2)
        y = int(rng.integers(2))
        eps = float(rng.uniform(0.1, 1.0))
        z_prime = inner_maximize(theta, z, y, eps, steps=1, eta_z=1e7)
        grid_losses = model.cross_entropy(
            model.logits_from_latent(theta, z + eps * ring),
            np.full(ring.shape[0], y, dtype=np.int64))
        brute = max(float(grid_losses.max()), loss_at(theta, z, y))
        assert abs(loss_at(theta, z_prime, y) - brute) <= 1e-9


def test_inner_maximize_batched_matches_loop():
    rng = np.random.default_rng(2)
    theta = ModelParams(w_out=rng.normal(size=(2, 3)), b_out=rng.normal(size=2))
    zs = rng.normal(size=(6, 3))
    ys = rng.integers(0, 2, size=6)
    batch = inner_maximize(theta, zs, ys, 0.4, steps=2, eta_z=1.0)
    for i in range(6):
        single = inner_maximize(theta, zs[i], int(ys[i]), 0.4, steps=2, eta_z=1.0)
        np.testing.assert_allclose(batch[i], single, atol=1e-14)


# ------------------------------------------------ binary closed form


def random_binary_head(rng):
    theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
    v = theta.w_out[1] - theta.w_out[0]
    return theta, v, theta.b_out[1] - theta.b_out[0], float(np.linalg.norm(v))


def test_binary_robust_loss_matches_grid_supremum():
    rng = np.random.default_rng(10)
    for _ in range(25):
        theta, v, c, v_norm = random_binary_head(rng)
        z = rng.normal(size=2)
        y = int(rng.integers(2))
        eps = float(rng.uniform(0.1, 1.0))
        loss, u = amb.binary_robust_loss(z, 2.0 * y - 1.0, v, c, eps, v_norm)
        assert loss == np.logaddexp(0.0, u)
        grid = amb.ball_supremum(theta, z, y, eps)
        assert grid - 1e-12 <= loss <= grid + 1e-3


def test_binary_ball_maximizer_matches_one_step_ascent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta, v, c, v_norm = random_binary_head(rng)
        zs = rng.normal(size=(8, 2))
        ys = rng.integers(0, 2, size=8)
        sign = 2.0 * ys - 1.0
        eps = float(rng.uniform(0.1, 1.0))
        z_prime = amb.binary_ball_maximizer(zs, sign, v, eps, v_norm)
        ascent = inner_maximize(theta, zs, ys, eps, steps=1, eta_z=1e6)
        np.testing.assert_allclose(z_prime, ascent, rtol=0.0, atol=1e-9)
        loss, _ = amb.binary_robust_loss(zs, sign, v, c, eps, v_norm)
        at_maximizer = model.cross_entropy(model.logits_from_latent(theta, z_prime), ys)
        np.testing.assert_allclose(at_maximizer, loss, rtol=0.0, atol=1e-12)


# ------------------------------------------------------------- taylor gap


def closed_form_gap(v_norm, u0, eps):
    """Second-order remainder of log(1+e^u) moved eps*v_norm along the ascent line."""
    sup = np.logaddexp(0.0, u0 + eps * v_norm)
    first_order = np.logaddexp(0.0, u0) + eps * v_norm / (1.0 + math.exp(-u0))
    return float(abs(sup - first_order))


def test_taylor_gap_matches_scalar_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=2)
        b = float(rng.normal())
        theta = binary_theta(v, b)
        z = rng.normal(size=2)
        y = int(rng.integers(2))
        eps = float(rng.uniform(0.05, 0.5))
        sign = 2 * y - 1
        u0 = -sign * (v @ z + b)
        expected = closed_form_gap(np.linalg.norm(v), u0, eps)
        got = taylor_gap(theta, z, y, eps)
        # Agreement up to the documented eps/100 grid resolution of the supremum.
        assert abs(got - expected) <= 1e-5 + 1e-3 * expected


def test_taylor_gap_vanishes_with_radius():
    theta = binary_theta([1.2, -0.5], 0.3)
    z = np.array([0.4, 0.6])
    gaps = [taylor_gap(theta, z, 0, eps) for eps in (0.2, 0.02, 0.002)]
    assert gaps[1] < gaps[0] / 10
    assert gaps[2] < gaps[1] / 10


def test_taylor_gap_halving_ratio_quadratic():
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(30):
        theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
        z = rng.normal(size=2)
        y = int(rng.integers(2))
        big = taylor_gap(theta, z, y, 0.2)
        small = taylor_gap(theta, z, y, 0.1)
        if small > 1e-12:
            ratios.append(big / small)
    assert ratios and all(2.5 <= r <= 6.0 for r in ratios)


def test_ball_supremum_refuses_latent_dimension_above_two():
    theta = binary_theta([1.0, -0.5, 0.25])
    for eps in (0.0, 0.3):
        with pytest.raises(UnsupportedInstanceError):
            amb.ball_supremum(theta, np.zeros(3), 1, eps)


def test_taylor_gap_requires_positive_eps():
    with pytest.raises(ParameterError):
        taylor_gap(binary_theta([1.0, 0.0]), np.zeros(2), 0, 0.0)


# --------------------------------------------------------- transport oracle


def brute_force_bottleneck(p, q):
    """Independent bottleneck value by enumerating all perfect matchings."""
    n = p.support_size
    best = math.inf
    for perm in itertools.permutations(range(n)):
        worst = 0.0
        for i, j in enumerate(perm):
            if p.labels[i] != q.labels[j]:
                worst = math.inf
                break
            worst = max(worst, float(np.linalg.norm(p.points[i] - q.points[j])))
        best = min(best, worst)
    return best


def test_w_infty_identity():
    rng = np.random.default_rng(5)
    p = uniform_dist(rng.normal(size=(4, 2)), [0, 0, 1, 1])
    assert w_infty_exact(p, p) == 0.0


def test_w_infty_single_atoms():
    p = uniform_dist(np.array([[0.0]]), [1])
    q = uniform_dist(np.array([[1.0]]), [1])
    assert w_infty_exact(p, q) == 1.0


def test_w_infty_disjoint_labels_infinite():
    p = uniform_dist(np.zeros((2, 2)), [0, 0])
    q = uniform_dist(np.zeros((2, 2)), [1, 1])
    assert math.isinf(w_infty_exact(p, q))


def test_w_infty_against_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        labels_p = rng.integers(0, 2, size=n)
        labels_q = rng.permutation(labels_p) if rng.random() < 0.8 else rng.integers(0, 2, size=n)
        p = uniform_dist(rng.normal(size=(n, 2)), labels_p)
        q = uniform_dist(rng.normal(size=(n, 2)), labels_q)
        got = w_infty_exact(p, q)
        want = brute_force_bottleneck(p, q)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            # Vectorized and scalar norms may differ in the last ulp.
            assert abs(got - want) <= 1e-12


def test_w_infty_metric_axioms():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        labels = np.sort(rng.integers(0, 2, size=n))
        p = uniform_dist(rng.normal(size=(n, 2)), labels)
        q = uniform_dist(rng.normal(size=(n, 2)), labels)
        r = uniform_dist(rng.normal(size=(n, 2)), labels)
        d_pq, d_qp = w_infty_exact(p, q), w_infty_exact(q, p)
        assert abs(d_pq - d_qp) <= 1e-12
        assert w_infty_exact(p, r) <= d_pq + w_infty_exact(q, r) + 1e-12


def test_w_infty_zero_only_for_equal_multisets():
    p = uniform_dist(np.array([[0.0, 0.0], [1.0, 1.0]]), [0, 1])
    q = uniform_dist(np.array([[1.0, 1.0], [0.0, 0.0]]), [1, 0])
    assert w_infty_exact(p, q) == 0.0
    shifted = uniform_dist(np.array([[0.0, 0.1], [1.0, 1.0]]), [0, 1])
    assert w_infty_exact(p, shifted) > 0.0


def test_w_infty_unsupported_instances():
    p = uniform_dist(np.zeros((2, 2)), [0, 1])
    q = uniform_dist(np.zeros((3, 2)), [0, 1, 1])
    with pytest.raises(UnsupportedInstanceError):
        w_infty_exact(p, q)
    unequal = DiscreteDist(np.zeros((2, 2)), np.array([0, 1]), np.array([0.3, 0.7]))
    with pytest.raises(UnsupportedInstanceError):
        w_infty_exact(unequal, p)
    big = uniform_dist(np.zeros((9, 2)), np.zeros(9, dtype=int))
    with pytest.raises(UnsupportedInstanceError):
        w_infty_exact(big, big)


def test_discrete_dist_validation():
    with pytest.raises(ParameterError):
        DiscreteDist(np.zeros((2, 2)), np.array([0, 1]), np.array([0.5, 0.6]))
    with pytest.raises(ParameterError):
        DiscreteDist(np.zeros((0, 2)), np.array([]), np.array([]))


# ------------------------------------------------------- robust risk check


def test_robust_risk_check_zero_radius():
    rng = np.random.default_rng(8)
    theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
    p = uniform_dist(rng.normal(size=(3, 2)), [0, 1, 1])
    lhs, rhs = robust_risk_check(p, theta, 0.0)
    plain = np.mean([loss_at(theta, p.points[i], int(p.labels[i])) for i in range(3)])
    assert abs(lhs - plain) < 1e-12 and abs(rhs - plain) < 1e-12


def test_robust_risk_check_single_atom_equals_ball_supremum():
    theta = binary_theta([1.0, -0.4], 0.2)
    z = np.array([0.5, 0.5])
    p = uniform_dist(z[None, :], [1])
    eps = 0.3
    lhs, rhs = robust_risk_check(p, theta, eps)
    sup = amb.ball_supremum(theta, z, 1, eps)
    assert abs(lhs - sup) < 1e-12 and abs(rhs - sup) < 1e-12


def test_robust_risk_check_four_atoms_agrees():
    rng = np.random.default_rng(9)
    for _ in range(5):
        theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
        p = uniform_dist(rng.normal(size=(4, 2)), rng.integers(0, 2, size=4))
        eps = float(rng.uniform(0.1, 0.5))
        lhs, rhs = robust_risk_check(p, theta, eps)
        assert abs(lhs - rhs) <= 1e-3
        # The grid supremum matches the closed-form binary ball supremum.
        v = theta.w_out[1] - theta.w_out[0]
        c = theta.b_out[1] - theta.b_out[0]
        closed = 0.0
        for i in range(4):
            sign = 2 * int(p.labels[i]) - 1
            u = -sign * (v @ p.points[i] + c) + eps * np.linalg.norm(v)
            closed += float(np.logaddexp(0.0, u)) / 4
        assert abs(lhs - closed) <= 1e-3


def test_robust_risk_check_rejects_big_instances():
    theta = binary_theta([1.0, 0.0])
    big = uniform_dist(np.zeros((7, 2)), np.zeros(7, dtype=int))
    with pytest.raises(UnsupportedInstanceError):
        robust_risk_check(big, theta, 0.1)
    wide = uniform_dist(np.zeros((2, 3)), [0, 1])
    with pytest.raises(UnsupportedInstanceError):
        robust_risk_check(wide, ModelParams(w_out=np.zeros((2, 3)), b_out=np.zeros(2)), 0.1)
