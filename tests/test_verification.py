"""The self-checks behind ``hierdro verify`` on inputs that once fooled them."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hierdro import ambiguity as amb
from hierdro import model, solver, verification
from hierdro.model import LINEAR, MLP1


def test_check_gradients_redraws_instances_at_a_relu_kink():
    """Seeds whose default draw puts an ``mlp1`` pre-activation within 1e-7 of
    zero, where a central difference is no derivative; the check redraws such
    an instance rather than fail on correct gradients."""
    for seed in (1111, 15926):
        result = verification.check_gradients(seed=seed)
        assert result.passed, result.details


def test_check_inner_maximization_holds_the_default_ascent_to_the_grid():
    result = verification.check_inner_maximization()
    assert result.passed, result.details
    assert 0.0 <= result.details["max_loss_gap"] <= result.details["tolerance"]


def test_fast_checks_keep_their_names_and_docstrings():
    """The timing wrapper hands on each check's ``__name__`` and ``__doc__``,
    so ``help`` shows the check and the name finds it in the module."""
    for check in verification.FAST_CHECKS:
        assert getattr(verification, check.__name__) is check
        assert check.__doc__


def test_degeneracy_check_fails_when_the_erm_row_learns_beta(monkeypatch):
    """An ERM row whose ``beta`` moves is no longer plain SGD at ``alpha``."""
    start = solver.Lockstep.start.__func__

    def erm_learns_beta(cls, *args):
        state = start(cls, *args)
        state.learns_beta[3] = True
        state.__post_init__()
        return state

    monkeypatch.setattr(solver.Lockstep, "start", classmethod(erm_learns_beta))
    result = verification.check_simplex_and_degeneracy(steps=200)
    assert not result.passed
    assert not result.details["erm_plain_sgd"]
    assert result.details["group_dro_bitwise_equal"]


# ------------------------------------------------ grid oracles, memory


GRID_PEAK_BOUND = 4 * 2 ** 20


def traced_peak(fn):
    """``fn()`` and the peak of the bytes allocated while it ran; numpy reports
    its buffers to ``tracemalloc``, so the figure does not depend on the machine."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_oracles_run_in_bounded_memory():
    """Every grid oracle evaluates its circle in chunks: no oracle's
    allocation peak grows with its grid (built whole, the 200,000-point ring
    check peaked at 21 MB), nor with the inner-maximization check's 50
    cases, which share each chunk and keep only their maxima."""
    result, peak = traced_peak(verification.check_inner_maximization)
    assert result.passed and peak < GRID_PEAK_BOUND, peak
    rng = np.random.default_rng(7)
    theta = model.ModelParams(w_out=rng.normal(size=(2, 2)), b_out=rng.normal(size=2))
    p = amb.DiscreteDist(rng.normal(size=(amb.CHECK_MAX_SUPPORT, 2)),
                         rng.integers(0, 2, size=amb.CHECK_MAX_SUPPORT))
    (lhs, rhs), peak = traced_peak(lambda: amb.robust_risk_check(p, theta, 0.4))
    assert abs(lhs - rhs) <= verification.LEMMA_TOLERANCE and peak < GRID_PEAK_BOUND, peak
    sup, peak = traced_peak(lambda: amb.ball_supremum(theta, p.points[0], 1, 0.4))
    assert sup > model.cross_entropy(model.logits_from_latent(theta, p.points[0]), 1)
    assert peak < GRID_PEAK_BOUND, peak


# ------------------------------------------------ criterion 3 can fail


def test_lemma_oracle_fails_when_the_transport_oracle_halves_distances(monkeypatch):
    """A certificate that reports half of each distance admits the candidate
    moved 1.5 eps, whose risk is far above the per-point suprema."""
    w_infty = amb.w_infty_exact
    monkeypatch.setattr(amb, "w_infty_exact", lambda p, q: w_infty(p, q) / 2)
    result = verification.check_lemma_oracle()
    assert not result.passed
    assert result.details["max_abs_difference"] > 0.1


def test_lemma_oracle_fails_when_the_pointwise_side_searches_only_the_centre(monkeypatch):
    """A pointwise side that never leaves the centre is beaten by the
    certified candidate at the exact maximizers."""
    grid_max_loss = amb._grid_max_loss
    monkeypatch.setattr(amb, "_grid_max_loss",
                        lambda theta, z, y, eps, n_angles: grid_max_loss(theta, z, y, 0.0, 1))
    result = verification.check_lemma_oracle()
    assert not result.passed
    assert result.details["max_abs_difference"] > 0.1


# ------------------------------------------------ a nan fails every check


def test_gradient_check_fails_on_a_nan_latent_gradient(monkeypatch):
    """A nan error is the worst error, not one that the running maximum skips."""
    monkeypatch.setattr(model, "grad_wrt_latent", lambda theta, z, y: np.full(np.shape(z), np.nan))
    result = verification.check_gradients(n_cases=4)
    assert not result.passed
    assert math.isnan(result.details["max_relative_error"])


def test_inner_maximization_check_fails_on_a_nan_grid_maximum(monkeypatch):
    """A grid maximum of nan is a nan gap, which fails the check."""
    monkeypatch.setattr(amb, "_grid_max_losses",
                        lambda cases, n_angles: [(math.nan, z) for _, z, _, _ in cases])
    result = verification.check_inner_maximization(n_cases=4)
    assert not result.passed
    assert math.isnan(result.details["max_loss_gap"])


def test_wasserstein_check_fails_on_one_nan_distance(monkeypatch):
    """One nan distance among the first triple's is a nan symmetry and
    triangle violation, which fails the check."""
    w_infty = amb.w_infty_exact
    calls = itertools.count()
    monkeypatch.setattr(amb, "w_infty_exact",
                        lambda p, q: math.nan if next(calls) == 0 else w_infty(p, q))
    result = verification.check_wasserstein_axioms(n_triples=4)
    assert not result.passed
    assert math.isnan(result.details["max_symmetry_violation"])
    assert math.isnan(result.details["max_triangle_violation"])


# ------------------------------------------- finite differences, bitwise


def per_probe_differences(value, vec, step=verification.FD_STEP):
    """The reference loop: one probe at a time, ``value`` a scalar function."""
    out = np.zeros_like(vec)
    for i in range(vec.size):
        hi = vec.copy(); hi[i] += step
        lo = vec.copy(); lo[i] -= step
        out[i] = (value(hi) - value(lo)) / (2.0 * step)
    return out


def per_probe_latent(theta, z, y):
    return per_probe_differences(
        lambda zz: model.cross_entropy(model.logits_from_latent(theta, zz), y), z)


def per_probe_param(theta, z_prime, x, y):
    offset = z_prime - model.latent(theta, x)

    def value(vec):
        th = model.unflatten_params(vec, theta)
        zp = model.latent(th, x) + offset
        return float(np.mean(model.cross_entropy(model.logits_from_latent(th, zp), y)))

    return per_probe_differences(value, model.flatten_params(theta))


def per_probe_robust(theta, x, y, eps_g):
    sign = 2.0 * np.asarray(y) - 1.0

    def value(vec):
        th = model.unflatten_params(vec, theta)
        v, c = th.w_out[1] - th.w_out[0], th.b_out[1] - th.b_out[0]
        z = model.latent(th, x)
        return float(amb.binary_robust_loss(z @ v + c, sign, eps_g, np.linalg.norm(v))[0].mean())

    return per_probe_differences(value, model.flatten_params(theta))


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("arch", [LINEAR, MLP1])
@pytest.mark.parametrize("k", [2, 3])
def test_stacked_finite_differences_equal_the_per_probe_loop_bitwise(arch, k):
    """Every probe set runs as one stacked pass and gives the per-probe loop's
    bits: for the latent gradient, for the parameter gradient of one input and
    of a batch, and for the robust gradient of one input and of a batch of 16."""
    rng = np.random.default_rng(100 + k)
    for _ in range(10):
        theta, x, y = verification._random_instance(rng, arch, k=k)
        z = model.latent(theta, x)
        assert same_bits(verification.fd_latent_gradient(theta, z, y),
                         per_probe_latent(theta, z, y))
        zp = z + 0.1 * rng.normal(size=z.shape)
        assert same_bits(verification.fd_param_gradient(theta, zp, x, y),
                         per_probe_param(theta, zp, x, y))
        xb, yb = rng.normal(size=(16, x.size)), rng.integers(0, k, size=16)
        zb = model.latent(theta, xb)
        assert same_bits(verification.fd_param_gradient(theta, zb, xb, yb),
                         per_probe_param(theta, zb, xb, yb))
        if k == 2:
            for xs, ys in ((x[None], np.array([y])), (xb, yb)):
                assert same_bits(verification.fd_robust_gradient(theta, xs, ys, 0.5),
                                 per_probe_robust(theta, xs, ys, 0.5))


# ------------------------------------------------ convergence-rate criteria


def test_rate_criteria_judge_each_criterion_alone():
    gaps, bounds = [0.04, 0.02, 0.01], [1.0, 1.0, 1.0]
    ratios, verdicts = verification.rate_criteria(gaps, bounds, 1e-9)
    assert ratios == [0.5, 0.5] and all(verdicts.values())
    for gaps, bounds, width, failing in (
            ([0.04, 0.035], [1.0, 1.0], 1e-9, "ratios <= 0.75"),
            ([0.04, 0.02], [1.0, 0.01], 1e-9, "gaps within bounds"),
            ([0.04, -2e-9], [1.0, 1.0], 1e-9, "gaps >= -bracket width"),
            ([0.04, 0.02], [1.0, 1.0], 2e-4, "bracket width <= 0.0001")):
        _, verdicts = verification.rate_criteria(gaps, bounds, width)
        assert [name for name, holds in verdicts.items() if not holds] == [failing]


def test_a_wide_reference_bracket_fails_the_convergence_rate_check():
    """One dual round leaves the bracket far wider than 1e-4: the check
    fails on that alone, whatever the gaps."""
    result = verification.check_convergence_rate(horizons=(20_000,), reference_iterations=1)
    d = result.details
    assert d["reference_width"] > d["max_reference_width"] == 1e-4
    assert d["reference_lower"] <= d["reference_value"]
    assert not result.passed
