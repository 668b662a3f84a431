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
    w_infty_exact,
)
from hierdro.errors import DivergenceError, ParameterError, UnsupportedInstanceError
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
    z_prime = inner_maximize(theta, np.zeros(2), 1, eps_g=0.5)
    np.testing.assert_allclose(z_prime, [-0.5, 0.0], atol=1e-12)


def random_head(rng, num_classes, weight_scale, rows=200):
    """A head with ``num_classes`` classes, weights times ``weight_scale``,
    and ``rows`` latents, labels and one radius to ascend them in."""
    dim = int(rng.integers(1, 5))
    theta = ModelParams(w_out=weight_scale * rng.normal(size=(num_classes, dim)),
                        b_out=weight_scale * rng.normal(size=num_classes))
    z = rng.normal(size=(rows, dim))
    return theta, z, rng.integers(0, num_classes, size=rows), float(rng.uniform(0.05, 1.0))


def projected_default_step(theta, z, y, eps):
    """The earlier default ascent for more than two classes: one projected
    step of size ``10 * eps`` along the gradient, kept only if it raises the
    loss.  The reference the normalized step must not fall below."""
    loss = model.cross_entropy(model.logits_from_latent(theta, z), y)
    grad = model.grad_wrt_latent(theta, z, y)
    end = project_ball(z + 10.0 * eps * grad, z, eps)
    raised = model.cross_entropy(model.logits_from_latent(theta, end), y) > loss
    return np.where(raised[:, None], end, z)


MANY_CLASSES = list(itertools.product((3, 5, 10), (1.0, 100.0)))


def test_inner_maximize_never_decreases_and_stays_in_ball():
    """With 3, 5 or 10 classes every row with a nonzero gradient ends on the
    sphere, and no row leaves the ball or loses loss.  Weights times 100 give
    gradients whose squared norm underflows."""
    rng = np.random.default_rng(0)
    for num_classes, weight_scale in MANY_CLASSES:
        tiny = 0
        for _ in range(30):
            theta, z, y, eps = random_head(rng, num_classes, weight_scale)
            z_prime = inner_maximize(theta, z, y, eps)
            grad = model.grad_wrt_latent(theta, z, y)
            moved = np.abs(grad).max(axis=1) > 0
            with np.errstate(under="ignore"):
                tiny += int(np.sum(moved & (np.sum(grad * grad, axis=1) == 0)))
            dist = np.linalg.norm(z_prime - z, axis=1)
            np.testing.assert_allclose(dist[moved], eps, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(z_prime[~moved], z[~moved])
            assert np.all(dist <= eps + 1e-12)
            before = model.cross_entropy(model.logits_from_latent(theta, z), y)
            after = model.cross_entropy(model.logits_from_latent(theta, z_prime), y)
            assert np.all(after >= before - 1e-12)
        assert tiny > 0 or weight_scale == 1.0, (num_classes, weight_scale)


def test_inner_maximize_many_classes_is_not_below_the_projected_default():
    """The normalized step ends where the projected ``10 * eps`` step did, or
    further along the same ray, so its loss is never lower, up to rounding
    at the loss's magnitude."""
    rng = np.random.default_rng(1)
    for num_classes, weight_scale in MANY_CLASSES:
        for _ in range(30):
            theta, z, y, eps = random_head(rng, num_classes, weight_scale)
            got = model.cross_entropy(
                model.logits_from_latent(theta, inner_maximize(theta, z, y, eps)), y)
            want = model.cross_entropy(
                model.logits_from_latent(theta, projected_default_step(theta, z, y, eps)), y)
            assert np.all(got >= want - 1e-12 * np.maximum(1.0, want))


# The normalized step is the first-order maximizer; the loss's curvature in
# the latent leaves it short of the ball supremum by O(eps^2).  Measured on
# the heads below: at most 0.34, 0.18, 0.10 and 0.056 times eps^2 at the
# four radii, so a bound of eps^2 leaves about three times that.
ASCENT_SHORTFALL_BOUND = 1.0


def test_many_class_ascent_is_within_eps_squared_of_the_grid_supremum():
    """With 3 or 4 classes and 2-D latents, each ascent endpoint stays in
    the ball, never lowers the loss, and falls short of the grid supremum
    of the ball by at most ``ASCENT_SHORTFALL_BOUND * eps**2``."""
    rng = np.random.default_rng(0)
    for num_classes in (3, 4):
        heads = [(ModelParams(w_out=rng.normal(size=(num_classes, 2)),
                              b_out=rng.normal(size=num_classes)),
                  rng.normal(size=2), int(rng.integers(num_classes))) for _ in range(100)]
        for eps in (0.4, 0.2, 0.1, 0.05):
            for theta, z, y in heads:
                end = inner_maximize(theta, z, y, eps)
                assert np.linalg.norm(end - z) <= eps + 1e-12
                assert loss_at(theta, end, y) >= loss_at(theta, z, y) - 1e-12
                shortfall = amb.ball_supremum(theta, z, y, eps) - loss_at(theta, end, y)
                assert shortfall <= ASCENT_SHORTFALL_BOUND * eps ** 2, (num_classes, eps)


def multistart_ball_lower_bound(w, b, z, y, eps, starts=64, steps=300, seed=0):
    """For each row ``i``, a lower bound on the largest cross-entropy of the
    head ``(w[i], b[i])`` at label ``y[i]`` over the sphere of radius
    ``eps[i]`` around ``z[i]``: the best of ``starts`` projected gradient
    ascents on the sphere, ``steps`` steps each, from random points on it.

    The loss is convex in the latent, so each step, ``u + g`` scaled back to
    the sphere, never lowers it, and the ball's supremum lies on the sphere.
    Being a lower bound, it can catch an ascent that falls short, but it
    cannot certify one: the binary closed form and the 2-D grid are the
    certifying oracles.  The loss is computed here, not by ``model``.
    """
    rng = np.random.default_rng(seed)
    h, k, d = w.shape
    # A row's starts run along the last axis, so every sum and maximum below
    # is over a middle axis, which numpy reduces fast.
    radius = np.asarray(eps, dtype=np.float64)[:, None, None]
    u = rng.normal(size=(h, d, starts))
    u *= radius / np.sqrt((u * u).sum(axis=1, keepdims=True))
    onehot = np.eye(k)[y][:, :, None]
    wt = w.transpose(0, 2, 1)
    for step in range(steps + 1):
        logits = w @ (z[:, :, None] + u) + b[:, :, None]
        top = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - top)
        total = p.sum(axis=1, keepdims=True)
        if step == steps:
            break
        p /= total
        p -= onehot
        u += wt @ p
        u *= radius / np.sqrt((u * u).sum(axis=1, keepdims=True))
    loss = np.log(total) + top - (logits * onehot).sum(axis=1, keepdims=True)
    return loss[:, 0, :].max(axis=1)


# The normalized step's shortfall below the multi-start bound, on the 40
# heads scaled 2/sqrt(d) drawn below, measured at most 0.081 (K = 3) and
# 0.178 (K = 4) times eps^2 at d = 10, and 0.059 and 0.057 at d = 32, each
# at eps 0.4 and shrinking with eps.  Twenty other draws of the heads reached
# 0.269, 0.219, 0.092 and 0.111, so the constant depends on the heads; a
# bound of 0.5 eps^2 leaves about three times the largest value measured here.
MULTICLASS_SHORTFALL_BOUND = 0.5


@pytest.mark.parametrize("d", [10, 32], ids=["linear-d10", "mlp1-h32"])
def test_many_class_ascent_is_within_eps_squared_of_the_multistart_bound(d):
    """With 3 or 4 classes at the latent dimensions where training runs, each
    ascent endpoint stays in the ball, never lowers the loss, and falls short
    of :func:`multistart_ball_lower_bound` by at most
    ``MULTICLASS_SHORTFALL_BOUND * eps**2``."""
    rng = np.random.default_rng(d)
    radii = (0.4, 0.2, 0.1, 0.05)
    for num_classes in (3, 4):
        w = rng.normal(size=(40, num_classes, d)) * (2 / math.sqrt(d))
        b = rng.normal(size=(40, num_classes))
        z = rng.normal(size=(40, d))
        y = rng.integers(num_classes, size=40)
        bounds = multistart_ball_lower_bound(
            np.tile(w, (4, 1, 1)), np.tile(b, (4, 1)), np.tile(z, (4, 1)), np.tile(y, 4),
            np.repeat(radii, 40)).reshape(4, 40)
        for eps, bound in zip(radii, bounds):
            for i in range(40):
                theta = ModelParams(w_out=w[i], b_out=b[i])
                end = inner_maximize(theta, z[i], int(y[i]), eps)
                assert np.linalg.norm(end - z[i]) <= eps + 1e-12
                reached = loss_at(theta, end, int(y[i]))
                assert reached >= loss_at(theta, z[i], int(y[i])) - 1e-12
                assert bound[i] - reached <= MULTICLASS_SHORTFALL_BOUND * eps ** 2, \
                    (num_classes, eps, i)


def test_one_step_attains_ball_maximum_binary_linear():
    rng = np.random.default_rng(1)
    angles = np.linspace(0, 2 * math.pi, 100_000, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for _ in range(25):
        theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
        z = rng.normal(size=2)
        y = int(rng.integers(2))
        eps = float(rng.uniform(0.1, 1.0))
        z_prime = inner_maximize(theta, z, y, eps)
        grid_losses = model.cross_entropy(
            model.logits_from_latent(theta, z + eps * ring),
            np.full(ring.shape[0], y, dtype=np.int64))
        brute = max(float(grid_losses.max()), loss_at(theta, z, y))
        assert abs(loss_at(theta, z_prime, y) - brute) <= 1e-9


def test_inner_maximize_batched_matches_loop():
    """The normalized step on a three-class head: a batch is its rows one by
    one, and one label for the batch is that label for every row."""
    rng = np.random.default_rng(2)
    theta = ModelParams(w_out=rng.normal(size=(3, 3)), b_out=rng.normal(size=3))
    zs = rng.normal(size=(6, 3))
    ys = rng.integers(0, 3, size=6)
    batch = inner_maximize(theta, zs, ys, 0.4)
    for i in range(6):
        single = inner_maximize(theta, zs[i], int(ys[i]), 0.4)
        np.testing.assert_allclose(batch[i], single, atol=1e-14)
    np.testing.assert_array_equal(inner_maximize(theta, zs, 2, 0.4),
                                  inner_maximize(theta, zs, np.full(6, 2), 0.4))


def parent_ball_maximizer(z, y, v, eps_g, v_norm=None):
    """The binary ascent as it was written before it took labels: the signs
    ``2y - 1`` scale the radius, one row per latent.  ``||v||`` is
    ``sqrt(v . v)`` unless ``v_norm`` gives it."""
    if v_norm is None:
        v_norm = math.sqrt(v.dot(v))
    single = z.ndim == 1
    z_mat = z[None, :] if single else z
    sign = 2.0 * np.atleast_1d(np.asarray(y, dtype=np.int64)) - 1.0
    v_hat = v / v_norm if v_norm > 0 else np.zeros_like(v)
    best = z_mat - (sign * eps_g)[:, None] * v_hat
    return best[0] if single else best


@pytest.mark.parametrize("architecture", [model.LINEAR, model.MLP1])
def test_inner_maximize_binary_head_is_the_closed_form(architecture):
    """On a binary head the ascent is bitwise the closed-form ball maximizer,
    for single rows and batches; one label for a batch is that label for
    every row."""
    rng = np.random.default_rng(12)
    spec = model.ModelSpec(architecture, hidden_width=5)
    for case in range(10):
        theta = model.init_params(spec, 4, 2, seed=case)
        zs = model.latent(theta, rng.normal(size=(7, 4)))
        ys = rng.integers(0, 2, size=7)
        v = theta.w_out[1] - theta.w_out[0]
        eps = float(rng.uniform(0.05, 2.0))
        want = parent_ball_maximizer(zs, ys, v, eps)
        np.testing.assert_array_equal(inner_maximize(theta, zs, ys, eps), want)
        np.testing.assert_array_equal(inner_maximize(theta, zs, 1, eps),
                                      inner_maximize(theta, zs, np.ones(7, dtype=int), eps))
        for i in (0, 6):
            single = inner_maximize(theta, zs[i], int(ys[i]), eps)
            assert single.shape == zs[i].shape
            np.testing.assert_array_equal(single, want[i])


def test_inner_maximize_binary_head_with_zero_weight_difference_keeps_z():
    theta = ModelParams(w_out=np.array([[0.5, -1.0], [0.5, -1.0]]), b_out=np.array([0.2, -0.1]))
    zs = np.array([[0.3, -0.7], [1.5, 2.0]])
    np.testing.assert_array_equal(inner_maximize(theta, zs, np.array([0, 1]), 0.8), zs)
    np.testing.assert_array_equal(inner_maximize(theta, zs[0], 1, 0.8), zs[0])


@pytest.mark.parametrize("scale", [1e-160, 1e-5, 1.0, 1e3, 1e150, 1e155])
def test_inner_maximize_binary_head_norm_is_numpys_vector_norm(scale):
    """The ascent takes ``||v||`` as the sqrt of ``v . v``, which is what
    ``np.linalg.norm`` computes for a vector: the same endpoints bitwise, also
    where ``v . v`` is subnormal (1e-160) or near the largest float (1e150).
    Where it overflows to inf (1e155), although ``v`` is finite, the ascent is
    a ``DivergenceError`` naming it, not a step of length zero."""
    rng = np.random.default_rng(3)
    w_out = rng.normal(size=(2, 6))
    w_out[1] = w_out[0] + scale * rng.normal(size=6)
    theta = ModelParams(w_out=w_out, b_out=rng.normal(size=2))
    zs = rng.normal(size=(9, 6))
    ys = rng.integers(0, 2, size=9)
    v = theta.w_out[1] - theta.w_out[0]
    with np.errstate(over="ignore"):
        v_norm = np.linalg.norm(v)
    if not np.isfinite(v_norm):
        for z, y in ((zs, ys), (zs[4], int(ys[4]))):
            with pytest.raises(DivergenceError, match="latent ascent") as err, \
                    np.errstate(over="ignore"):
                inner_maximize(theta, z, y, 0.7)
            assert err.value.snapshot == {"v_norm": math.inf}
        return
    want = parent_ball_maximizer(zs, ys, v, 0.7, v_norm)
    assert inner_maximize(theta, zs, ys, 0.7).tobytes() == want.tobytes()
    assert inner_maximize(theta, zs[4], int(ys[4]), 0.7).tobytes() == want[4].tobytes()


# Finite values of every magnitude whose squares cannot overflow, and both zeros.
COORDS = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e100, 1e100, allow_nan=False, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 4), rows=st.integers(0, 6), data=st.data())
def test_binary_ascent_is_bitwise_the_sign_scaled_formula(dim, rows, data):
    """``inner_maximize`` gives the bytes of the sign-scaled formula for one
    latent (``rows == 0``) or a batch, both labels, ``v = 0`` or not, and
    latents with signed zeros."""
    draw = data.draw
    shape = (dim,) if rows == 0 else (rows, dim)
    z = np.array(draw(st.lists(COORDS, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))).reshape(shape)
    w0 = np.array(draw(st.lists(COORDS, min_size=dim, max_size=dim)))
    w1 = w0.copy() if draw(st.booleans()) else np.array(
        draw(st.lists(COORDS, min_size=dim, max_size=dim)))
    y = draw(st.integers(0, 1)) if rows == 0 else np.array(
        draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows)), dtype=np.int64)
    eps = draw(st.floats(1e-6, 1e3))
    theta = ModelParams(w_out=np.stack([w0, w1]), b_out=np.zeros(2))
    v = w1 - w0
    want = parent_ball_maximizer(z, y, v, eps)
    got = inner_maximize(theta, z, y, eps)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
        loss, u = amb.binary_robust_loss(z @ v + c, 2.0 * y - 1.0, eps, v_norm)
        assert loss == np.logaddexp(0.0, u)
        grid = amb.ball_supremum(theta, z, y, eps)
        assert grid - 1e-12 <= loss <= grid + 1e-3


def test_inner_maximize_binary_head_matches_one_step_ascent():
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta, v, c, v_norm = random_binary_head(rng)
        zs = rng.normal(size=(8, 2))
        ys = rng.integers(0, 2, size=8)
        sign = 2.0 * ys - 1.0
        eps = float(rng.uniform(0.1, 1.0))
        z_prime = inner_maximize(theta, zs, ys, eps)
        grad = model.grad_wrt_latent(theta, zs, ys)
        ascent = project_ball(zs + 1e6 * grad, zs, eps)
        np.testing.assert_allclose(z_prime, ascent, rtol=0.0, atol=1e-9)
        loss, _ = amb.binary_robust_loss(zs @ v + c, sign, eps, v_norm)
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


RADIUS_TAKERS = {
    "inner_maximize": lambda eps: inner_maximize(binary_theta([1.0, 0.0]), np.zeros(2), 1, eps),
    "project_ball": lambda eps: project_ball(np.ones(2), np.zeros(2), eps),
    "ball_supremum": lambda eps: amb.ball_supremum(binary_theta([1.0, 0.0]), np.zeros(2), 1, eps),
    "taylor_gap": lambda eps: taylor_gap(binary_theta([1.0, 0.0]), np.zeros(2), 1, eps),
    "robust_risk_check": lambda eps: robust_risk_check(
        DiscreteDist(np.zeros((2, 2)), [0, 1]), binary_theta([1.0, 0.0]), eps),
}


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(RADIUS_TAKERS))
def test_every_radius_taker_refuses_a_nan_infinite_or_negative_radius(name, eps):
    """Each entry point that takes a radius checks it as ``radius`` checks
    its scale, instead of returning nan or infinite endpoints and risks."""
    with pytest.raises(ParameterError, match="must be finite and nonnegative"):
        RADIUS_TAKERS[name](eps)


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
    p = DiscreteDist(rng.normal(size=(4, 2)), [0, 0, 1, 1])
    assert w_infty_exact(p, p) == 0.0


def test_w_infty_single_atoms():
    p = DiscreteDist(np.array([[0.0]]), [1])
    q = DiscreteDist(np.array([[1.0]]), [1])
    assert w_infty_exact(p, q) == 1.0


def test_w_infty_disjoint_labels_infinite():
    p = DiscreteDist(np.zeros((2, 2)), [0, 0])
    q = DiscreteDist(np.zeros((2, 2)), [1, 1])
    assert math.isinf(w_infty_exact(p, q))


def test_w_infty_against_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        labels_p = rng.integers(0, 2, size=n)
        labels_q = rng.permutation(labels_p) if rng.random() < 0.8 else rng.integers(0, 2, size=n)
        p = DiscreteDist(rng.normal(size=(n, 2)), labels_p)
        q = DiscreteDist(rng.normal(size=(n, 2)), labels_q)
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
        p = DiscreteDist(rng.normal(size=(n, 2)), labels)
        q = DiscreteDist(rng.normal(size=(n, 2)), labels)
        r = DiscreteDist(rng.normal(size=(n, 2)), labels)
        d_pq, d_qp = w_infty_exact(p, q), w_infty_exact(q, p)
        assert abs(d_pq - d_qp) <= 1e-12
        assert w_infty_exact(p, r) <= d_pq + w_infty_exact(q, r) + 1e-12


def test_w_infty_zero_only_for_equal_multisets():
    p = DiscreteDist(np.array([[0.0, 0.0], [1.0, 1.0]]), [0, 1])
    q = DiscreteDist(np.array([[1.0, 1.0], [0.0, 0.0]]), [1, 0])
    assert w_infty_exact(p, q) == 0.0
    shifted = DiscreteDist(np.array([[0.0, 0.1], [1.0, 1.0]]), [0, 1])
    assert w_infty_exact(p, shifted) > 0.0


def test_w_infty_unsupported_instances():
    p = DiscreteDist(np.zeros((2, 2)), [0, 1])
    q = DiscreteDist(np.zeros((3, 2)), [0, 1, 1])
    with pytest.raises(UnsupportedInstanceError):
        w_infty_exact(p, q)
    big = DiscreteDist(np.zeros((9, 2)), np.zeros(9, dtype=int))
    with pytest.raises(UnsupportedInstanceError):
        w_infty_exact(big, big)


def test_discrete_dist_validation():
    with pytest.raises(ParameterError):
        DiscreteDist(np.zeros((0, 2)), np.array([]))
    with pytest.raises(ParameterError, match="one entry per atom"):
        DiscreteDist(np.zeros((3, 2)), np.array([0, 1]))


# ------------------------------------------------------- robust risk check


def test_robust_risk_check_zero_radius():
    rng = np.random.default_rng(8)
    theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
    p = DiscreteDist(rng.normal(size=(3, 2)), [0, 1, 1])
    lhs, rhs = robust_risk_check(p, theta, 0.0)
    plain = np.mean([loss_at(theta, p.points[i], int(p.labels[i])) for i in range(3)])
    assert abs(lhs - plain) < 1e-12 and abs(rhs - plain) < 1e-12


def test_robust_risk_check_single_atom_equals_ball_supremum():
    theta = binary_theta([1.0, -0.4], 0.2)
    z = np.array([0.5, 0.5])
    p = DiscreteDist(z[None, :], [1])
    eps = 0.3
    lhs, rhs = robust_risk_check(p, theta, eps)
    sup = amb.ball_supremum(theta, z, 1, eps)
    assert abs(lhs - sup) < 1e-12
    # The largest certified candidate is the atom moved to the exact maximizer,
    # whose risk is the closed form, a grid step above the circle's maximum.
    v = theta.w_out[1] - theta.w_out[0]
    closed, _ = amb.binary_robust_loss(z @ v + 0.2, 1.0, eps, np.linalg.norm(v))
    assert abs(rhs - closed) < 1e-12 and 0.0 <= rhs - lhs <= 1e-5


def test_robust_risk_check_four_atoms_agrees():
    rng = np.random.default_rng(9)
    for _ in range(5):
        theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
        p = DiscreteDist(rng.normal(size=(4, 2)), rng.integers(0, 2, size=4))
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
    big = DiscreteDist(np.zeros((7, 2)), np.zeros(7, dtype=int))
    with pytest.raises(UnsupportedInstanceError):
        robust_risk_check(big, theta, 0.1)
    wide = DiscreteDist(np.zeros((2, 3)), [0, 1])
    with pytest.raises(UnsupportedInstanceError):
        robust_risk_check(wide, ModelParams(w_out=np.zeros((2, 3)), b_out=np.zeros(2)), 0.1)


# ------------------------------------------------------------ ring maximum


CHUNK = amb._GRID_CHUNK


def one_shot_grid(z, eps, n_angles):
    """The reference grid in one array: the centre, then the whole circle."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    ring = z + eps * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.concatenate([z[None, :], ring])


def one_shot_max(theta, y, grid):
    """The reference: the centre's loss and every circle point's in one pass,
    then ``np.max`` and ``np.argmax``."""
    losses = np.concatenate([model.cross_entropy(model.logits_from_latent(theta, rows), y)
                             for rows in (grid[:1], grid[1:])])
    return losses.max(), grid[np.argmax(losses)]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 630, CHUNK - 1, CHUNK, CHUNK + 1, 62_901, 200_000])
@pytest.mark.parametrize("k", [2, 3])
def test_grid_max_loss_is_the_one_shot_maximum_bitwise(n, k):
    """Circles below, at, one over and far past the chunk size, among them
    the inner-maximization check's 200,000 points."""
    rng = np.random.default_rng(n + k)
    for _ in range(3):
        theta = ModelParams(w_out=rng.normal(size=(k, 2)), b_out=rng.normal(size=k))
        y = int(rng.integers(k))
        z, eps = rng.normal(scale=3.0, size=2), float(rng.uniform(0.1, 3.0))
        best, row = amb._grid_max_loss(theta, z, y, eps, n)
        want, want_row = one_shot_max(theta, y, one_shot_grid(z, eps, n))
        assert type(best) is float and same_bits(best, want) and same_bits(row, want_row)


@pytest.mark.parametrize("n", [630, CHUNK + 1, 3 * CHUNK + 5])
def test_grid_max_losses_of_many_cases_are_each_cases_own_bitwise(n):
    """Cases searched together, each chunk of the circle shared by all,
    give each case the maximum and first maximizer it gets alone and that
    the one-shot grid gives: models, labels, centres and radii all differ,
    one case ties on its whole circle (a zero head) and one has a nan
    logit."""
    rng = np.random.default_rng(n)
    cases = []
    for i in range(6):
        k = 2 + i % 2
        theta = ModelParams(w_out=rng.normal(size=(k, 2)), b_out=rng.normal(size=k))
        if i == 4:
            theta = ModelParams(w_out=np.zeros((k, 2)), b_out=np.zeros(k))
        if i == 5:
            theta = ModelParams(w_out=theta.w_out, b_out=np.r_[np.nan, np.zeros(k - 1)])
        cases.append((theta, rng.normal(scale=3.0, size=2), int(rng.integers(k)),
                      float(rng.uniform(0.1, 3.0))))
    together = amb._grid_max_losses(cases, n)
    assert len(together) == len(cases)
    for (theta, z, y, eps), (best, row) in zip(cases, together):
        alone = amb._grid_max_loss(theta, z, y, eps, n)
        want, want_row = one_shot_max(theta, y, one_shot_grid(z, eps, n))
        assert type(best) is float
        assert same_bits(best, alone[0]) and same_bits(row, alone[1])
        # ``np.max`` may return another nan's bits than the loss it picks.
        assert same_bits(best, want) or (math.isnan(best) and math.isnan(want))
        assert same_bits(row, want_row)


def test_grid_max_loss_of_a_ring_built_per_chunk_is_the_whole_rings():
    """The circle's angles, cos and sin are built one chunk at a time; the
    maximum and its point are those of the unit ring from ``np.linspace``,
    built whole and then scaled."""
    angles = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    whole = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = np.random.default_rng(17)
    for _ in range(5):
        theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
        z, eps, y = rng.normal(size=2), float(rng.uniform(0.1, 0.8)), int(rng.integers(2))
        best, row = amb._grid_max_loss(theta, z, y, eps, angles.size)
        want, want_row = one_shot_max(theta, y, np.concatenate([z[None, :], z + eps * whole]))
        assert same_bits(best, want) and same_bits(row, want_row)


def test_grid_max_loss_keeps_the_first_of_tied_maxima_across_chunks():
    """With a bias of 1e10 the loss at label 0 is ``1e10 + x``, whose spacing
    (2e-6) hides the circle's curvature near angle 0: the last chunk's points
    just below 2 pi tie bitwise with the first chunk's, and the first one,
    at angle 0, must win."""
    theta = ModelParams(w_out=np.array([[0.0, 0.0], [1.0, 0.0]]), b_out=np.array([0.0, 1e10]))
    z, n = np.zeros(2), 3 * CHUNK + 5
    grid = one_shot_grid(z, 1.0, n)
    losses = model.cross_entropy(model.logits_from_latent(theta, grid), 0)
    tied = np.flatnonzero(losses == losses.max())
    assert tied[0] == 1 and tied[-1] > 1 + 3 * CHUNK
    best, row = amb._grid_max_loss(theta, z, 0, 1.0, n)
    want, want_row = one_shot_max(theta, 0, grid)
    assert same_bits(best, want) and same_bits(row, want_row)
    assert tuple(row) == (1.0, 0.0)


@pytest.mark.parametrize("nan_at", [5, CHUNK + 5])
def test_grid_max_loss_takes_the_first_nan_like_argmax(monkeypatch, nan_at):
    """Logits that are nan at two circle points, the second in the last
    chunk: the first nan wins, as ``np.argmax`` of all the losses picks it."""
    rng = np.random.default_rng(nan_at)
    theta = ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
    z, n = rng.normal(size=2), 3 * CHUNK
    grid = one_shot_grid(z, 0.5, n)
    marked = grid[[1 + nan_at, 2 + 2 * CHUNK]]
    logits = model.logits_from_latent

    def poisoned(theta, points):
        out = logits(theta, points)
        out[(points[:, None, :] == marked).all(-1).any(-1)] = np.nan
        return out

    monkeypatch.setattr(model, "logits_from_latent", poisoned)
    best, row = amb._grid_max_loss(theta, z, 0, 0.5, n)
    want, want_row = one_shot_max(theta, 0, grid)
    assert math.isnan(best) and math.isnan(want)
    assert same_bits(row, grid[1 + nan_at]) and same_bits(want_row, row)


def test_grid_oracles_refuse_a_latent_dimension_other_than_two():
    """The grid oracles search a circle, so a 1-D or a 3-D latent is refused,
    not searched on a grid of another shape."""
    for dim in (1, 3):
        theta = ModelParams(w_out=np.zeros((2, dim)), b_out=np.zeros(2))
        with pytest.raises(UnsupportedInstanceError, match="dimension 2 only"):
            amb.ball_supremum(theta, np.zeros(dim), 1, 0.3)
        with pytest.raises(UnsupportedInstanceError, match="dimension 2 only"):
            robust_risk_check(DiscreteDist(np.zeros((2, dim)), [0, 1]), theta, 0.3)
        with pytest.raises(UnsupportedInstanceError, match="dimension 2 only"):
            amb._grid_max_loss(theta, np.zeros(dim), 1, 0.3, 8)
