import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hierdro import ambiguity as amb
from hierdro import model
from hierdro.errors import ParameterError
from hierdro.model import (
    LINEAR,
    MLP1,
    ModelParams,
    ModelSpec,
    grad_wrt_latent,
    init_params,
    loss_and_param_grads,
    stack_params,
)
from hierdro.verification import fd_latent_gradient, fd_param_gradient, fd_robust_gradient


def scalar_reference_loss(theta, x, y):
    """Independent plain-Python re-evaluation of the forward pass."""
    x = [float(v) for v in x]
    if theta.w_hidden is not None:
        hidden = []
        for row, b in zip(theta.w_hidden, theta.b_hidden):
            s = sum(float(w) * v for w, v in zip(row, x)) + float(b)
            hidden.append(max(0.0, s))
        x = hidden
    logits = []
    for row, b in zip(theta.w_out, theta.b_out):
        logits.append(sum(float(w) * v for w, v in zip(row, x)) + float(b))
    m = max(logits)
    total = sum(math.exp(v - m) for v in logits)
    return -(logits[y] - m - math.log(total))


def loss_of(theta, x, y):
    return model.cross_entropy(model.logits_from_latent(theta, model.latent(theta, x)), y)


def random_theta(rng, architecture, d=6, k=3, h=5):
    return init_params(ModelSpec(architecture, hidden_width=h), d, k, seed=int(rng.integers(2**31)))


def test_zero_linear_model_gives_log2():
    theta = ModelParams(w_out=np.zeros((2, 4)), b_out=np.zeros(2))
    for y in (0, 1):
        assert abs(loss_of(theta, np.array([3.0, -1.0, 0.5, 2.0]), y) - math.log(2)) < 1e-15


def test_zero_hidden_layer_kills_latent():
    theta = ModelParams(
        w_out=np.ones((2, 3)), b_out=np.zeros(2),
        w_hidden=np.zeros((3, 4)), b_hidden=np.zeros(3),
    )
    z = model.latent(theta, np.array([5.0, -2.0, 1.0, 9.0]))
    np.testing.assert_array_equal(z, np.zeros(3))


def test_loss_matches_scalar_reference():
    rng = np.random.default_rng(0)
    for arch in (LINEAR, MLP1):
        for _ in range(30):
            theta = random_theta(rng, arch)
            x = rng.normal(size=6)
            y = int(rng.integers(3))
            assert abs(loss_of(theta, x, y) - scalar_reference_loss(theta, x, y)) < 1e-12


def test_uniform_logits_latent_gradient():
    w = np.array([[1.0, 2.0], [3.0, -1.0]])
    theta = ModelParams(w_out=w, b_out=np.zeros(2))
    grad = grad_wrt_latent(theta, np.zeros(2), 0)
    np.testing.assert_allclose(grad, w.T @ np.array([-0.5, 0.5]), atol=1e-15)


def test_zero_weights_zero_latent_gradient():
    theta = ModelParams(w_out=np.zeros((3, 4)), b_out=np.ones(3))
    np.testing.assert_array_equal(grad_wrt_latent(theta, np.ones(4), 1), np.zeros(4))


def test_latent_gradient_parallel_to_weight_difference():
    # Binary output layer: the gradient always lies along w_1 - w_0.
    rng = np.random.default_rng(1)
    for _ in range(20):
        theta = ModelParams(w_out=rng.normal(size=(2, 3)), b_out=rng.normal(size=2))
        z = rng.normal(size=3)
        y = int(rng.integers(2))
        grad = grad_wrt_latent(theta, z, y)
        fd = fd_latent_gradient(theta, z, y)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8) <= 1e-4
        direction = theta.w_out[1] - theta.w_out[0]
        cross = grad - (grad @ direction) / (direction @ direction) * direction
        assert np.linalg.norm(cross) < 1e-12


def test_param_gradient_matches_backprop_when_unperturbed():
    """At ``z' = z(x)`` the gradient is plain backprop, hidden layer included."""
    rng = np.random.default_rng(2)
    theta = random_theta(rng, MLP1)
    x = rng.normal(size=6)
    y = 1
    z = model.latent(theta, x)
    grads = loss_and_param_grads(theta, z[None], z[None], x[None], [y])[1]
    fd = fd_param_gradient(theta, z, x, y)
    got = model.flatten_params(grads)
    assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-4
    assert np.linalg.norm(grads.w_hidden) > 0


def test_param_gradient_feature_path_flag():
    """At an offset ``z'`` the gradient is the derivative of the loss at
    ``z(x; theta) + (z' - z(x))``: the feature path is always followed."""
    rng = np.random.default_rng(4)
    theta = random_theta(rng, MLP1)
    x = rng.normal(size=6)
    z0 = model.latent(theta, x)
    z = z0 + rng.normal(scale=0.2, size=5)
    grads = loss_and_param_grads(theta, z[None], z0[None], x[None], [2])[1]
    fd = fd_param_gradient(theta, z, x, 2)
    got = model.flatten_params(grads)
    assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-4
    assert np.linalg.norm(grads.w_hidden) > 0


def test_param_gradient_is_the_robust_loss_gradient():
    """Danskin: the batch gradient at the ball maximizer ``z'`` is the gradient
    of the mean closed-form ball supremum of the loss at ``z(x; theta)``."""
    rng = np.random.default_rng(3)
    eps_g = 0.5
    cases = 0
    while cases < 5:
        theta = random_theta(rng, MLP1, k=2, h=8)
        xs = rng.normal(size=(16, 6))
        ys = rng.integers(0, 2, size=16)
        if np.abs(xs @ theta.w_hidden.T + theta.b_hidden).min() < 1e-3:
            continue    # a ReLU kink within reach of the finite-difference step
        cases += 1
        z = model.latent(theta, xs)
        zp = amb.inner_maximize(theta, z, ys, eps_g)
        grads = loss_and_param_grads(theta, zp, z, xs, ys)[1]
        fd = fd_robust_gradient(theta, xs, ys, eps_g)
        got = model.flatten_params(grads)
        assert np.linalg.norm(got - fd) / np.linalg.norm(fd) <= 1e-6
        assert np.linalg.norm(grads.w_hidden) > 0


def test_saturated_loss_has_vanishing_gradient():
    theta = ModelParams(w_out=np.array([[100.0, 0.0], [-100.0, 0.0]]), b_out=np.zeros(2))
    z = np.array([10.0, 0.0])
    assert loss_of(theta, z, 0) < 1e-12
    assert np.linalg.norm(grad_wrt_latent(theta, z, 0)) < 1e-10
    grads = loss_and_param_grads(theta, z[None], z[None], z[None], [0])[1]
    assert np.linalg.norm(model.flatten_params(grads)) < 1e-10


def test_loss_finite_for_huge_logits():
    theta = ModelParams(w_out=np.array([[1e3, 0.0], [-1e3, 0.0]]), b_out=np.zeros(2))
    for y in (0, 1):
        loss = model.cross_entropy(model.logits_from_latent(theta, np.array([1.0, 0.0])), y)
        assert math.isfinite(loss)


def _reduced_log_softmax(logits):
    """log_softmax by numpy reductions along the class axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _logits(seed, k, leading, log_magnitude, ties, neg_inf):
    """Logits of shape ``leading + (k,)`` with some entries tied to column 0 and
    some set to -inf, leaving one finite entry per example."""
    rng = np.random.default_rng(seed)
    shape = leading + (k,)
    logits = rng.uniform(-1.0, 1.0, size=shape) * 10.0 ** log_magnitude
    if ties:
        tied = rng.random(shape) < 0.5
        logits[tied] = np.broadcast_to(logits[..., :1], shape)[tied]
    if neg_inf:
        dropped = rng.random(shape) < 0.3
        np.put_along_axis(dropped, rng.integers(0, k, size=leading + (1,)), False, axis=-1)
        logits[dropped] = -np.inf
    return logits


_LEADING = st.sampled_from([(), (5,), (64,), (3, 8), (15, 64)])


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 7), leading=_LEADING,
       log_magnitude=st.floats(-3.0, 3.0), ties=st.booleans(), neg_inf=st.booleans())
def test_log_softmax_is_bitwise_the_class_axis_reduction(seed, k, leading, log_magnitude,
                                                         ties, neg_inf):
    logits = _logits(seed, k, leading, log_magnitude, ties, neg_inf)
    got = model.log_softmax(logits)
    assert got.shape == logits.shape
    assert got.view(np.uint64).tolist() == _reduced_log_softmax(logits).view(np.uint64).tolist()


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(8, 10), leading=_LEADING,
       log_magnitude=st.floats(-3.0, 3.0), ties=st.booleans(), neg_inf=st.booleans())
def test_log_softmax_from_eight_classes_agrees_with_the_pairwise_sum(seed, k, leading,
                                                                     log_magnitude, ties, neg_inf):
    # numpy sums 8 or more terms pairwise; both sums of k terms in (0, 1]
    # are within k ulp of a total in [1, k], so log(total) agrees to ~2e-15.
    logits = _logits(seed, k, leading, log_magnitude, ties, neg_inf)
    np.testing.assert_allclose(model.log_softmax(logits), _reduced_log_softmax(logits),
                               rtol=1e-14, atol=1e-14)


def _fancy_label_index(shape, y):
    """The label index as a tuple of broadcast index arrays, the form the
    flat index replaced."""
    if len(shape) == 1:
        return int(y)
    y = np.asarray(y, dtype=np.int64)
    if len(shape) == 2:
        return np.arange(shape[0]), y
    return np.arange(shape[0])[:, None], np.arange(shape[1]), y


@pytest.mark.parametrize("k", [2, 3, 8])
@pytest.mark.parametrize("case", ["one", "batch", "rows", "shared_rows"])
def test_flat_label_index_is_bitwise_the_fancy_index(k, case):
    rng = np.random.default_rng(k)
    rows, batch, d = 3, 16, 4
    stacked = case in ("rows", "shared_rows")
    theta = model.stack_params([init_params(ModelSpec(LINEAR), d, k, seed=s) for s in range(rows)])
    if not stacked:
        theta = model.row_params(theta, 0)
    shape = {"one": (d,), "batch": (batch, d), "rows": (rows, batch, d),
             "shared_rows": (rows, batch, d)}[case]
    z = rng.normal(scale=3.0, size=shape)
    y = {"one": int(rng.integers(k)), "batch": rng.integers(0, k, size=batch),
         "rows": rng.integers(0, k, size=(rows, batch)),
         "shared_rows": rng.integers(0, k, size=(1, batch))}[case]

    ls = model.log_softmax(model.logits_from_latent(theta, z))
    at = _fancy_label_index(ls.shape, y)
    want_dlogits = np.exp(ls)
    want_dlogits[at] -= 1.0
    want_loss = -ls[at]

    loss, dlogits = model._loss_and_dlogits(theta, z, y)
    assert np.shape(loss) == np.shape(want_loss) and dlogits.shape == ls.shape
    assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
    assert dlogits.tobytes() == want_dlogits.tobytes()
    ce = model.cross_entropy(model.logits_from_latent(theta, z), y)
    assert np.asarray(ce).tobytes() == np.asarray(want_loss).tobytes()


@pytest.mark.parametrize("arch", [LINEAR, MLP1])
def test_grads_finite_is_one_bool_per_model(arch):
    """A gradient with one nan or infinite entry is not finite, whichever of
    its arrays holds it: a bool for one model, one per row for stacked rows."""
    rng = np.random.default_rng(13)
    rows = [random_theta(rng, arch) for _ in range(3)]
    assert model.grads_finite(rows[0]) is True
    good = [a for a in rows[1].arrays() if a is not None]
    for k in range(len(good)):
        parts = [a.copy() for a in good]
        parts[k].flat[-1] = np.inf if k % 2 else np.nan
        bad = ModelParams(*parts)
        assert model.grads_finite(bad) is False
        got = model.grads_finite(stack_params([rows[0], bad, rows[2]]))
        assert got.tolist() == [True, False, True]


@pytest.mark.parametrize("arch", [LINEAR, MLP1])
def test_loss_and_param_grads_returns_arrays_of_its_own(arch):
    """Each call's gradient arrays are new: no two of them, within one call
    or across two calls, share memory, and a later call leaves an earlier
    result as it was; for one model and for stacked rows."""
    rng = np.random.default_rng(14)
    thetas = [random_theta(rng, arch) for _ in range(2)]
    xs = rng.normal(size=(4, 6))
    ys = rng.integers(0, 3, size=4)
    for theta, x in ((thetas[0], xs), (stack_params(thetas), np.stack([xs, -xs]))):
        z = model.latent(theta, x)
        first = [a for a in loss_and_param_grads(theta, z, z, x, ys)[1].arrays() if a is not None]
        kept = [a.copy() for a in first]
        second = [a for a in loss_and_param_grads(theta, z, z, x, ys)[1].arrays() if a is not None]
        arrays = first + second
        for i, j in itertools.combinations(range(len(arrays)), 2):
            assert not np.shares_memory(arrays[i], arrays[j])
        for a, b in zip(first, kept):
            assert a.tobytes() == b.tobytes()


def test_linear_loss_midpoint_convexity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    y = 1
    for _ in range(50):
        a = init_params(ModelSpec(LINEAR), 4, 3, seed=int(rng.integers(2**31)))
        b = init_params(ModelSpec(LINEAR), 4, 3, seed=int(rng.integers(2**31)))
        mid = model.unflatten_params(
            (model.flatten_params(a) + model.flatten_params(b)) / 2.0, a)
        f_mid = loss_of(mid, x, y)
        f_avg = (loss_of(a, x, y) + loss_of(b, x, y)) / 2.0
        assert f_mid <= f_avg + 1e-9


def test_batched_forward_matches_per_example():
    rng = np.random.default_rng(6)
    theta = random_theta(rng, MLP1)
    xs = rng.normal(size=(7, 6))
    ys = rng.integers(0, 3, size=7)
    batch_losses = model.cross_entropy(
        model.logits_from_latent(theta, model.latent(theta, xs)), ys)
    for i in range(7):
        assert abs(batch_losses[i] - loss_of(theta, xs[i], int(ys[i]))) < 1e-14


def test_batched_param_gradient_is_mean():
    rng = np.random.default_rng(7)
    theta = random_theta(rng, LINEAR, k=2)
    xs = rng.normal(size=(5, 6))
    ys = rng.integers(0, 2, size=5)
    batch = loss_and_param_grads(theta, xs, xs, xs, ys)[1]
    per = [model.flatten_params(loss_and_param_grads(theta, x, x, x, y)[1])
           for x, y in zip(xs[:, None], ys[:, None])]
    np.testing.assert_allclose(model.flatten_params(batch), np.mean(per, axis=0), atol=1e-14)


@pytest.mark.parametrize("arch", [LINEAR, MLP1])
@pytest.mark.parametrize("k", [2, 3])
def test_one_example_batch_is_the_outer_product_form(arch, k):
    """A batch of one gives the gradient that the one-example branch, since
    removed, built with ``np.outer``, kept here as the reference.  The two
    agree in every bit but the sign of a zero entry: the outer product writes
    ``-0.0`` for a negative factor times zero where the matrix product and the
    reduction write ``+0.0``; adding ``0.0`` to both maps ``-0.0`` to ``+0.0``
    and leaves every other value's bits alone."""
    rng = np.random.default_rng(11)
    for case in range(40):
        theta = random_theta(rng, arch, k=k)
        x = rng.normal(size=6)
        x[case % 6] = 0.0    # zero entries, so that the zero signs are exercised
        y = int(rng.integers(k))
        z = model.latent(theta, x)
        zp = z if case % 2 else z + 0.1 * rng.normal(size=z.shape)
        loss, dlogits = model._loss_and_dlogits(theta, zp, y)
        want = [np.outer(dlogits, zp), dlogits]
        if arch == MLP1:
            delta = (dlogits @ theta.w_out) * (x @ theta.w_hidden.T + theta.b_hidden > 0)
            want += [np.outer(delta, x), delta]
        got_loss, grads = loss_and_param_grads(theta, zp[None], z[None], x[None], [y])
        assert got_loss.shape == (1,) and got_loss[0] == loss
        got = [a for a in grads.arrays() if a is not None]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and (g + 0.0).tobytes() == (w + 0.0).tobytes()


def test_flatten_params_of_a_gradient_and_of_stacked_rows_round_trips():
    rng = np.random.default_rng(12)
    for arch in (LINEAR, MLP1):
        thetas = [random_theta(rng, arch) for _ in range(3)]
        xs = rng.normal(size=(4, 6))
        ys = rng.integers(0, 3, size=4)
        zs = [model.latent(t, xs) for t in thetas]
        grads = [loss_and_param_grads(t, z, z, xs, ys)[1] for t, z in zip(thetas, zs)]
        for g in grads:
            vec = model.flatten_params(g)
            assert vec.ndim == 1
            back = model.unflatten_params(vec, g)
            assert model.params_equal(back, g)
            np.testing.assert_array_equal(model.flatten_params(back), vec)
        for parts in (thetas, grads):
            rows = model.flatten_params(stack_params(parts))
            assert rows.shape == (3, model.flatten_params(parts[0]).size)
            for row, one in zip(rows, parts):
                assert row.tobytes() == model.flatten_params(one).tobytes()
                assert model.params_equal(model.unflatten_params(row, one), one)
            for template in (parts[0], stack_params(parts)):
                assert model.params_equal(model.unflatten_params(rows, template),
                                          stack_params(parts))


def test_init_is_seeded_and_bounded():
    spec = ModelSpec(MLP1, hidden_width=16)
    a = init_params(spec, 10, 2, seed=9)
    b = init_params(spec, 10, 2, seed=9)
    assert model.params_equal(a, b)
    assert not model.params_equal(a, init_params(spec, 10, 2, seed=10))
    assert np.max(np.abs(a.w_hidden)) <= 1.0 / math.sqrt(10)
    assert np.max(np.abs(a.w_out)) <= 1.0 / math.sqrt(16)


def test_checkpoint_roundtrip(tmp_path):
    for arch in (LINEAR, MLP1):
        theta = init_params(ModelSpec(arch, hidden_width=4), 3, 2, seed=1)
        path = tmp_path / f"{arch}.json"
        model.save_params(theta, path)
        loaded = model.load_params(path)
        assert model.params_equal(theta, loaded)
        assert loaded.architecture == arch


@pytest.mark.parametrize("arch,edit,field", [
    (MLP1, lambda p: {**p, "architecture": "mlp2"}, "architecture"),
    (MLP1, lambda p: {k: v for k, v in p.items() if k != "w_hidden"}, "w_hidden"),
    (LINEAR, lambda p: {**p, "w_out": [[0.0, 1.0], [1.0, 0.0]], "b_out": [0.0] * 3}, "b_out"),
    (MLP1, lambda p: {**p, "b_hidden": [0.0]}, "b_hidden"),
    (MLP1, lambda p: {**p, "w_out": [[0.0], [1.0, 2.0]]}, "w_out"),
    (LINEAR, lambda p: [p], "architecture"),
], ids=["unknown-tag", "no-w_hidden", "b_out-shape", "b_hidden-shape", "ragged-w_out",
        "not-an-object"])
def test_load_params_refuses_what_is_not_one_models_checkpoint(tmp_path, arch, edit, field):
    """An unknown architecture tag (which loaded as a linear model, dropping
    ``w_hidden``), a missing array, or arrays whose shapes do not form one
    model are refused by file and field."""
    path = tmp_path / "theta.json"
    model.save_params(init_params(ModelSpec(arch, hidden_width=4), 3, 2, seed=1), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ParameterError, match=f"^{re.escape(str(path))}: {field}: "):
        model.load_params(path)


def test_shape_errors():
    theta = ModelParams(w_out=np.zeros((2, 3)), b_out=np.zeros(2))
    with pytest.raises(ParameterError):
        model.latent(theta, np.zeros(4))
    with pytest.raises(ParameterError):
        model.logits_from_latent(theta, np.zeros(5))
