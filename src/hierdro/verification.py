"""Self-check suites: gradient oracles, invariants, and exact-oracle cross checks.

Each check returns a :class:`CheckResult` with a details dict suitable for a
JSON report.  ``run_checks("fast")`` executes everything except the
convergence-rate study, which only runs at the ``full`` level.

The finite-difference oracles here are deliberately independent of the
closed-form gradients in :mod:`hierdro.model`: they probe the loss through
flattened parameter vectors with central differences, all 2n probes of one
gradient in one stacked forward pass that uses only the loss.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import ambiguity as amb
from . import convergence, model, solver
from .ambiguity import DiscreteDist
from .datagen import make_spurious
from .model import LINEAR, MLP1, ModelParams, ModelSpec, init_params
from .solver import ERM, GROUP_DRO, HIERARCHICAL, SolverConfig

FD_STEP = 1e-5
KINK_MARGIN = 1e-3
GRADIENT_TOLERANCE = 1e-4
ROBUST_RADIUS = 0.5
INNER_MAX_TOLERANCE = 1e-9
LEMMA_TOLERANCE = 1e-3
SIMPLEX_TOLERANCE = 1e-12
METRIC_TOLERANCE = 1e-12
TAYLOR_EPSILONS = (0.4, 0.2, 0.1, 0.05)
TAYLOR_MIN_SLOPE = 1.5
TAYLOR_PASS_FRACTION = 0.9
RATE_MAX_RATIO = 0.75
REFERENCE_MAX_WIDTH = 1e-4


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def as_dict(self) -> dict:
        def plain(value):
            if isinstance(value, (list, tuple)):
                return [plain(v) for v in value]
            if isinstance(value, np.bool_):
                return bool(value)
            if isinstance(value, (np.integer, np.floating)):
                return float(value)
            return value

        return {
            "name": self.name,
            "passed": bool(self.passed),
            "seconds": round(self.seconds, 3),
            "details": {k: plain(v) for k, v in self.details.items()},
        }


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - start
        return result
    return wrapper


def _central_differences(values, vec: np.ndarray, step: float) -> np.ndarray:
    """Central differences at ``vec`` of a scalar function that ``values``
    takes on all 2n probes in one call, one probe per row: ``vec`` with
    ``step`` added to entry ``i`` in row ``i``, subtracted in row ``n + i``."""
    n = vec.size
    probes = np.tile(vec, (2 * n, 1))
    probes[np.arange(n), np.arange(n)] += step
    probes[np.arange(n, 2 * n), np.arange(n)] -= step
    f = values(probes)
    return (f[:n] - f[n:]) / (2.0 * step)


def fd_latent_gradient(theta: ModelParams, z: np.ndarray, y: int, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the loss through the output layer; each
    probe is a batch of one, whose logits are bitwise those of one latent."""
    return _central_differences(
        lambda zz: model.cross_entropy(model.logits_from_latent(theta, zz[:, None, :]), y)[:, 0],
        z, step)


def fd_param_gradient(theta: ModelParams, z_prime: np.ndarray, x: np.ndarray, y,
                      step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the (batch-mean) loss at ``z(x) + (z_prime - z(x))``
    in the flattened parameters: the offset is held constant while ``z(x)``
    moves with the parameters, matching the documented gradient semantics.
    The probes run as one row-stacked model; ``x`` is one input or a batch."""
    offset = z_prime - model.latent(theta, x)
    x_rows = np.reshape(x, (1, -1, np.shape(x)[-1]))

    def values(rows: np.ndarray) -> np.ndarray:
        th = model.unflatten_params(rows, theta)
        zp = model.latent(th, x_rows) + offset
        return np.mean(model.cross_entropy(model.logits_from_latent(th, zp), y), axis=-1)

    return _central_differences(values, model.flatten_params(theta), step)


def fd_robust_gradient(theta: ModelParams, x: np.ndarray, y: np.ndarray, eps_g: float,
                       step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the batch-mean closed-form ball supremum
    ``binary_robust_loss`` at ``z(x)`` of a binary model in the flattened parameters,
    the probes as one row-stacked model, each with its own ``||v||``."""
    sign = 2.0 * np.asarray(y) - 1.0

    def values(rows: np.ndarray) -> np.ndarray:
        th = model.unflatten_params(rows, theta)
        v, c = th.w_out[:, 1] - th.w_out[:, 0], th.b_out[:, 1] - th.b_out[:, 0]
        v_norm = np.array([math.sqrt(r.dot(r)) for r in v])
        margin = (model.latent(th, x[None]) @ v[:, :, None])[..., 0] + c[:, None]
        return np.mean(amb.binary_robust_loss(margin, sign, eps_g, v_norm[:, None])[0], axis=-1)

    return _central_differences(values, model.flatten_params(theta), step)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(got)), float(np.linalg.norm(want)), 1e-8)
    return float(np.linalg.norm(got - want)) / scale


def _random_instance(rng, architecture: str, d: int = 6, k: int = 2, h: int = 8):
    """A model, an input and a label; an ``mlp1`` draw with a hidden
    pre-activation within ``KINK_MARGIN`` of zero is redrawn, since a central
    difference across a ReLU kink is no derivative."""
    spec = ModelSpec(architecture, hidden_width=h)
    while True:
        theta = init_params(spec, d, k, seed=int(rng.integers(2 ** 31)))
        x = rng.normal(size=d)
        y = int(rng.integers(k))
        if architecture == LINEAR:
            return theta, x, y
        if np.abs(theta.w_hidden @ x + theta.b_hidden).min() >= KINK_MARGIN:
            return theta, x, y


@_timed
def check_gradients(n_cases: int = 100, seed: int = 0, tolerance: float = GRADIENT_TOLERANCE) -> CheckResult:
    """Latent and parameter gradients against central differences, both architectures.

    Draws ``n_cases // 2`` instances per architecture and class count, 200
    in all at the default, where ``details["cases"]`` reports 100.  The
    parameter gradient is probed at the unperturbed latent, at a random
    offset from it and, for binary heads, at the maximizer of the loss over
    a ball, where it must be the gradient of the ball supremum that the
    robust objective minimizes.
    """
    rng = np.random.default_rng(seed)
    errors, robust_errors = [], []
    for arch in (LINEAR, MLP1):
        for k in (2, 3):
            for _ in range(n_cases // 2):
                theta, x, y = _random_instance(rng, arch, k=k)
                z = model.latent(theta, x)
                errors.append(_relative_error(
                    model.grad_wrt_latent(theta, z, y), fd_latent_gradient(theta, z, y)))
                xs, ys = x[None], np.array([y])
                for zp in (z, z + 0.1 * rng.normal(size=z.shape)):
                    _, grads = model.loss_and_param_grads(theta, zp[None], z[None], xs, ys)
                    got = model.flatten_params(grads)
                    errors.append(_relative_error(got, fd_param_gradient(theta, zp, x, y)))
                if k == 2:
                    zp = amb.inner_maximize(theta, z[None], ys, ROBUST_RADIUS)
                    _, grads = model.loss_and_param_grads(theta, zp, z[None], xs, ys)
                    got = model.flatten_params(grads)
                    want = fd_robust_gradient(theta, xs, ys, ROBUST_RADIUS)
                    robust_errors.append(_relative_error(got, want))
    # np.max, not max: a nan error must fail the check, not be skipped.
    robust = float(np.max(robust_errors, initial=0.0))
    worst = float(np.max(errors + robust_errors, initial=0.0))
    return CheckResult(
        name="gradient_finite_differences",
        passed=worst <= tolerance,
        details={"max_relative_error": worst, "max_robust_relative_error": robust,
                 "tolerance": tolerance, "cases": n_cases},
    )


def _random_binary_linear(rng, dim: int = 2):
    theta = ModelParams(w_out=rng.normal(scale=1.0, size=(2, dim)),
                        b_out=rng.normal(scale=0.5, size=2))
    return theta, rng.normal(size=dim), int(rng.integers(2))


@_timed
def check_inner_maximization(
    n_cases: int = 50, seed: int = 1, tolerance: float = INNER_MAX_TOLERANCE
) -> CheckResult:
    """The trainer's latent ascent vs. a dense angular grid on binary linear instances.

    Each case's grid is its centre and a 200,000-point circle, the ring
    maximum of the grid oracles.  Every case is searched on each chunk of
    the unit circle before the next chunk is built, so memory is bounded by
    a chunk while each maximum is bitwise that of the whole ring.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        theta, z, y = _random_binary_linear(rng)
        cases.append((theta, z, y, float(rng.uniform(0.1, 0.8))))
    gaps = []
    monotone = inside = True
    for (theta, z, y, eps), (brute, _) in zip(cases, amb._grid_max_losses(cases, 200_000)):
        base = model.cross_entropy(model.logits_from_latent(theta, z), y)
        z_prime = amb.inner_maximize(theta, z, y, eps)
        got = model.cross_entropy(model.logits_from_latent(theta, z_prime), y)
        gaps.append(abs(got - brute))
        monotone = monotone and got >= base - 1e-12
        inside = inside and np.linalg.norm(z_prime - z) <= eps + 1e-12
    # np.max, not max: a nan gap must fail the check, not be skipped.
    worst = float(np.max(gaps, initial=0.0))
    return CheckResult(
        name="inner_maximization_exact",
        passed=worst <= tolerance and monotone and inside,
        details={"max_loss_gap": worst, "tolerance": tolerance, "monotone": monotone,
                 "stayed_in_ball": inside},
    )


@_timed
def check_projection(n_cases: int = 1000, seed: int = 2) -> CheckResult:
    """Radius bound, fixed points, and idempotence of the ball projection."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n_cases):
        dim = int(rng.integers(1, 6))
        center = rng.normal(size=dim)
        point = center + rng.normal(scale=2.0, size=dim)
        eps = float(rng.uniform(0.0, 2.0))
        proj = amb.project_ball(point, center, eps)
        ok = ok and np.linalg.norm(proj - center) <= eps + 1e-12
        ok = ok and np.allclose(amb.project_ball(proj, center, eps), proj, atol=1e-12)
        # A point inside the ball is its own projection, and only such a point.
        ok = ok and np.array_equal(proj, point) == (np.linalg.norm(point - center) <= eps)
    return CheckResult(name="ball_projection_invariants", passed=ok,
                       details={"cases": n_cases})


def _small_train_setup(seed: int = 3):
    ds = make_spurious((40, 12, 10, 38), 0.5, 0.5, 0.2, seed=seed)
    base = SolverConfig(
        mode=HIERARCHICAL, eta_beta=0.1, eta_theta=0.1,
        epsilon=0.5 * math.sqrt(int(ds.n_g.min())), adjustment=1.0,
        iterations=0, batch_size=4, seed=11, checkpoint_every=10_000,
    )
    init = init_params(ModelSpec(LINEAR), ds.d, 2, seed=5)
    return ds, base, init


@_timed
def check_simplex_and_degeneracy(steps: int = 10_000, tolerance: float = SIMPLEX_TOLERANCE) -> CheckResult:
    """Simplex residuals over a long run plus the exact mode-degeneracy chain."""
    ds, base, init = _small_train_setup()
    # hierarchical, hierarchical at radius zero, group DRO and ERM as four
    # rows of one lockstep run; they share the seed and so the batch stream.
    base = replace(base, iterations=steps)
    configs = [base, replace(base, epsilon=0.0), replace(base, mode=GROUP_DRO),
               replace(base, mode=ERM)]
    state = solver.Lockstep.start([init] * len(configs), configs, ds)
    # ERM's row is held to an independent plain-SGD loop over the same batches.
    eta_theta, theta = configs[3].eta_theta, init
    alpha = ds.alpha
    residual = 0.0
    bitwise = erm_matches = True
    for batch in solver.advance(state):
        if state.failed:
            raise next(iter(state.failed.values()))
        # ERM's beta is checked against alpha below.  Each row sums in
        # ``beta.sum()``'s order, which is sequential below 8 groups.
        beta = state.beta[:3]
        residual = max(residual, float(np.abs(np.add.reduce(beta, -1) - 1.0).max()))
        if np.any(beta < 0):
            residual = math.inf
        w, b = state.theta.w_out, state.theta.b_out       # linear rows
        bitwise = bitwise and np.array_equal(w[1], w[2]) and np.array_equal(b[1], b[2])
        x, y = batch.x[0], batch.y[0]
        z = model.latent(theta, x)
        _, grads = model.loss_and_param_grads(theta, z, z, x, y)
        theta = model.sgd_step(theta, grads, eta_theta * float(alpha[int(batch.group[0])]))
        erm_matches = (erm_matches and np.array_equal(theta.w_out, w[3])
                       and np.array_equal(theta.b_out, b[3]))
    bitwise = bitwise and np.array_equal(state.beta[1], state.beta[2])
    erm_matches = erm_matches and np.array_equal(state.beta[3], alpha)

    passed = residual <= tolerance and bitwise and erm_matches
    return CheckResult(
        name="simplex_and_degeneracy",
        passed=passed,
        details={"max_simplex_residual": residual, "tolerance": tolerance,
                 "group_dro_bitwise_equal": bitwise, "erm_plain_sgd": erm_matches,
                 "steps": steps},
    )


@_timed
def check_lemma_oracle(n_cases: int = 20, seed: int = 4, tolerance: float = LEMMA_TOLERANCE) -> CheckResult:
    """Pointwise vs. distributional robust risk on random 4-atom 2-D instances.

    Each instance's per-atom grid supremum risk must agree with the largest
    risk of the displaced distributions that the transport oracle certifies
    within the radius (:func:`ambiguity.robust_risk_check`): a pointwise side
    that misses a supremum, or a certificate that admits a distribution
    outside the ball or refuses the maximizers, fails the check.
    """
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(n_cases):
        theta, _, _ = _random_binary_linear(rng)
        points = rng.normal(size=(4, 2))
        labels = rng.integers(0, 2, size=4)
        dist = DiscreteDist(points, labels)
        eps = float(rng.uniform(0.1, 0.5))
        lhs, rhs = amb.robust_risk_check(dist, theta, eps)
        gaps.append(abs(lhs - rhs))
    # np.max, not max: a nan gap must fail the check, not be skipped.
    worst = float(np.max(gaps, initial=0.0))
    return CheckResult(
        name="pointwise_vs_distributional_risk",
        passed=worst <= tolerance,
        details={"max_abs_difference": worst, "tolerance": tolerance,
                 "grid_step_fraction": amb.SUP_GRID_FRACTION, "cases": n_cases},
    )


@_timed
def check_taylor_scaling(
    n_cases: int = 50,
    seed: int = 5,
    epsilons=TAYLOR_EPSILONS,
    min_slope: float = TAYLOR_MIN_SLOPE,
    pass_fraction: float = TAYLOR_PASS_FRACTION,
) -> CheckResult:
    """Log-log slope of the expansion gap versus the radius."""
    rng = np.random.default_rng(seed)
    log_eps = np.log(np.asarray(epsilons))
    slopes = []
    for _ in range(n_cases):
        theta, z, y = _random_binary_linear(rng)
        gaps = np.array([amb.taylor_gap(theta, z, y, e) for e in epsilons])
        if np.any(gaps <= 0):
            slopes.append(math.inf)
            continue
        slope, _ = np.polyfit(log_eps, np.log(gaps), 1)
        slopes.append(float(slope))
    frac = float(np.mean([s >= min_slope for s in slopes]))
    return CheckResult(
        name="taylor_gap_scaling",
        passed=frac >= pass_fraction,
        details={"fraction_with_slope_ge_min": frac, "min_slope": min_slope,
                 "epsilons": list(epsilons), "cases": n_cases},
    )


def _random_same_label_dists(rng, n_atoms: int, dim: int = 2):
    labels = np.sort(rng.integers(0, 2, size=n_atoms))
    make = lambda: DiscreteDist(rng.normal(size=(n_atoms, dim)), labels)
    return make(), make(), make()


@_timed
def check_wasserstein_axioms(n_triples: int = 100, seed: int = 6,
                             tolerance: float = METRIC_TOLERANCE) -> CheckResult:
    """Symmetry, identity, triangle inequality, and cross-label infinities."""
    rng = np.random.default_rng(seed)
    ok = True
    symmetry, triangle = [], []
    for _ in range(n_triples):
        n_atoms = int(rng.integers(2, 7))
        p, q, r = _random_same_label_dists(rng, n_atoms)
        d_pq = amb.w_infty_exact(p, q)
        d_qp = amb.w_infty_exact(q, p)
        d_qr = amb.w_infty_exact(q, r)
        d_pr = amb.w_infty_exact(p, r)
        symmetry.append(abs(d_pq - d_qp))
        triangle.append(d_pr - (d_pq + d_qr))
        ok = ok and amb.w_infty_exact(p, p) == 0.0
        flipped = DiscreteDist(q.points, 1 - q.labels)
        if not amb.all_label_matchings_finite(p, flipped):
            ok = ok and math.isinf(amb.w_infty_exact(p, flipped))
    # np.max, not max: a nan violation must fail the check, not be skipped.
    worst_symmetry = float(np.max(symmetry, initial=0.0))
    worst_triangle = float(np.max(triangle, initial=-math.inf))
    ok = ok and worst_symmetry <= tolerance and worst_triangle <= tolerance
    return CheckResult(
        name="wasserstein_metric_axioms",
        passed=ok,
        details={"max_symmetry_violation": worst_symmetry,
                 "max_triangle_violation": worst_triangle,
                 "tolerance": tolerance, "triples": n_triples},
    )


def rate_criteria(gaps, bounds, width: float, max_ratio: float = RATE_MAX_RATIO):
    """The convergence-rate criteria on the gaps at increasing horizons.

    Each gap must be at most ``max_ratio`` times the one before it, at most
    its bound and at least ``-width``, the width of the reference bracket,
    which itself must be at most ``REFERENCE_MAX_WIDTH``.  Returns the ratios
    of successive gaps and each criterion's verdict, by name.
    """
    ratios = [float(later / earlier) for earlier, later in zip(gaps, gaps[1:])]
    return ratios, {
        f"ratios <= {max_ratio}": all(r <= max_ratio for r in ratios),
        "gaps within bounds": all(g <= b for g, b in zip(gaps, bounds)),
        "gaps >= -bracket width": all(g >= -width for g in gaps),
        f"bracket width <= {REFERENCE_MAX_WIDTH:g}": width <= REFERENCE_MAX_WIDTH,
    }


@_timed
def check_convergence_rate(
    horizons=(20_000, 80_000, 320_000),
    max_ratio: float = RATE_MAX_RATIO,
    reference_iterations: int = convergence.REFERENCE_ITERATIONS,
) -> CheckResult:
    """Gap contraction and the measured-constant bound on the canonical
    instance, against a reference bracketed in at most ``reference_iterations``
    dual rounds (:func:`rate_criteria`)."""
    ds, config = convergence.canonical_instance()
    reference = convergence.reference_optimum(
        ds, config.effective_epsilon, iterations=reference_iterations)
    report = convergence.rate_study(ds, config, horizons, reference)
    ratios, verdicts = rate_criteria(report.gaps, report.bounds, reference.width, max_ratio)
    return CheckResult(
        name="convergence_rate",
        passed=all(verdicts.values()),
        details={
            "horizons": list(report.horizons),
            "gaps": [float(g) for g in report.gaps],
            "bounds": [float(b) for b in report.bounds],
            "ratios": ratios,
            "max_ratio": max_ratio,
            "reference_value": reference.upper,
            "reference_lower": reference.lower,
            "reference_width": reference.width,
            "max_reference_width": REFERENCE_MAX_WIDTH,
            "reference_rounds": reference.rounds,
            "bound_constants": [asdict(c) for c in report.constants],
            "criteria": verdicts,
        },
    )


FAST_CHECKS = (
    check_gradients,
    check_inner_maximization,
    check_projection,
    check_simplex_and_degeneracy,
    check_lemma_oracle,
    check_taylor_scaling,
    check_wasserstein_axioms,
)


def run_checks(level: str = "fast") -> list[CheckResult]:
    results = [check() for check in FAST_CHECKS]
    if level == "full":
        results.append(check_convergence_rate())
    return results
