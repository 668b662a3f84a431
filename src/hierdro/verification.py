"""Self-check suites: gradient oracles, invariants, and exact-oracle cross checks.

Each check returns a :class:`CheckResult` with a details dict suitable for a
JSON report.  ``run_checks("fast")`` executes everything except the
convergence-rate study, which only runs at the ``full`` level.

The finite-difference oracles here are deliberately independent of the
closed-form gradients in :mod:`hierdro.model`: they probe the loss through
flattened parameter vectors with central differences.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import ambiguity as amb
from . import convergence, model, solver
from .ambiguity import DiscreteDist, uniform_dist
from .datagen import make_spurious
from .model import LINEAR, MLP1, ModelParams, ModelSpec, init_params
from .solver import ERM, GROUP_DRO, HIERARCHICAL, GroupSampler, SolverConfig

FD_STEP = 1e-5
GRADIENT_TOLERANCE = 1e-4
INNER_MAX_TOLERANCE = 1e-9
LEMMA_TOLERANCE = 1e-3
SIMPLEX_TOLERANCE = 1e-12
METRIC_TOLERANCE = 1e-12
TAYLOR_EPSILONS = (0.4, 0.2, 0.1, 0.05)
TAYLOR_MIN_SLOPE = 1.5
TAYLOR_PASS_FRACTION = 0.9
RATE_MAX_RATIO = 0.75


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
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - start
        return result
    return wrapper


def fd_latent_gradient(theta: ModelParams, z: np.ndarray, y: int, step: float = FD_STEP) -> np.ndarray:
    """Central finite differences of the loss through the output layer."""
    out = np.zeros_like(z)
    for i in range(z.size):
        hi = z.copy(); hi[i] += step
        lo = z.copy(); lo[i] -= step
        f_hi = model.cross_entropy(model.logits_from_latent(theta, hi), y)
        f_lo = model.cross_entropy(model.logits_from_latent(theta, lo), y)
        out[i] = (f_hi - f_lo) / (2.0 * step)
    return out


def fd_param_gradient(
    theta: ModelParams,
    z_prime: np.ndarray,
    x: np.ndarray,
    y: int,
    backprop_through_feature: bool = False,
    step: float = FD_STEP,
) -> np.ndarray:
    """Central finite differences with respect to the flattened parameters.

    With the feature path detached the probed function is the loss at the
    constant latent ``z_prime``; with it enabled the latent offset
    ``z_prime - z(x)`` is held constant while ``z(x)`` moves with the
    parameters, matching the documented gradient semantics.
    """
    flat = model.flatten_params(theta)
    delta = None
    if backprop_through_feature:
        delta = z_prime - model.latent(theta, x)

    def value(vec: np.ndarray) -> float:
        th = model.unflatten_params(vec, theta)
        zp = z_prime if delta is None else model.latent(th, x) + delta
        return float(model.cross_entropy(model.logits_from_latent(th, zp), y))

    out = np.zeros_like(flat)
    for i in range(flat.size):
        hi = flat.copy(); hi[i] += step
        lo = flat.copy(); lo[i] -= step
        out[i] = (value(hi) - value(lo)) / (2.0 * step)
    return out


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(got)), float(np.linalg.norm(want)), 1e-8)
    return float(np.linalg.norm(got - want)) / scale


def _random_instance(rng, architecture: str, d: int = 6, k: int = 2, h: int = 8):
    spec = ModelSpec(architecture, hidden_width=h)
    theta = init_params(spec, d, k, seed=int(rng.integers(2 ** 31)))
    x = rng.normal(size=d)
    y = int(rng.integers(k))
    return theta, x, y


@_timed
def check_gradients(n_cases: int = 100, seed: int = 0, tolerance: float = GRADIENT_TOLERANCE) -> CheckResult:
    """Latent and parameter gradients against central differences, both architectures."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for arch in (LINEAR, MLP1):
        for k in (2, 3):
            for _ in range(n_cases // 2):
                theta, x, y = _random_instance(rng, arch, k=k)
                z = model.latent(theta, x)
                worst = max(worst, _relative_error(
                    model.grad_wrt_latent(theta, z, y), fd_latent_gradient(theta, z, y)))
                zp = z + 0.1 * rng.normal(size=z.shape)
                for flag in (False, True):
                    got = model.flatten_grads(
                        model.grad_wrt_params(theta, zp, x, y, backprop_through_feature=flag))
                    want = fd_param_gradient(theta, zp, x, y, backprop_through_feature=flag)
                    worst = max(worst, _relative_error(got, want))
                got = model.flatten_grads(
                    model.grad_wrt_params(theta, z, x, y, backprop_through_feature=True))
                want = fd_param_gradient(theta, z, x, y, backprop_through_feature=True)
                worst = max(worst, _relative_error(got, want))
    return CheckResult(
        name="gradient_finite_differences",
        passed=worst <= tolerance,
        details={"max_relative_error": worst, "tolerance": tolerance, "cases": n_cases},
    )


def _random_binary_linear(rng, dim: int = 2):
    theta = ModelParams(
        w_out=rng.normal(scale=1.0, size=(2, dim)),
        b_out=rng.normal(scale=0.5, size=2),
    )
    z = rng.normal(size=dim)
    y = int(rng.integers(2))
    return theta, z, y


@_timed
def check_inner_maximization(
    n_cases: int = 50, seed: int = 1, tolerance: float = INNER_MAX_TOLERANCE
) -> CheckResult:
    """One ascent step vs. a dense angular grid on binary linear instances."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, 2.0 * math.pi, 200_000, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    worst = 0.0
    monotone = True
    inside = True
    for _ in range(n_cases):
        theta, z, y = _random_binary_linear(rng)
        eps = float(rng.uniform(0.1, 0.8))
        base = model.cross_entropy(model.logits_from_latent(theta, z), y)
        z_prime = amb.inner_maximize(theta, z, y, eps, steps=1, eta_z=1e6)
        got = model.cross_entropy(model.logits_from_latent(theta, z_prime), y)
        grid = z + eps * ring
        brute = float(model.cross_entropy(
            model.logits_from_latent(theta, grid),
            np.full(grid.shape[0], y, dtype=np.int64)).max())
        brute = max(brute, float(base))
        worst = max(worst, abs(got - brute))
        monotone = monotone and got >= base - 1e-12
        inside = inside and np.linalg.norm(z_prime - z) <= eps + 1e-12
    return CheckResult(
        name="inner_maximization_exact",
        passed=worst <= tolerance and monotone and inside,
        details={"max_loss_gap": worst, "tolerance": tolerance,
                 "monotone": monotone, "stayed_in_ball": inside},
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
        if np.linalg.norm(point - center) <= eps:
            ok = ok and np.array_equal(proj, point)
        else:
            ok = ok and not np.array_equal(proj, point)
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
    configs = [base, replace(base, epsilon=0.0), replace(base, mode=GROUP_DRO),
               replace(base, mode=ERM)]
    rng = np.random.default_rng(base.seed)
    sampler = GroupSampler(ds, base)
    state = solver.Lockstep.start([init] * len(configs), configs, ds)
    residual = 0.0
    hier0_traj, dro_traj, erm_traj = [], [], []
    for _ in range(steps):
        batch = solver.stack_batches([sampler.draw(rng)], None, len(configs))
        state = solver.train_step(state, batch)
        if state.failed:
            raise next(iter(state.failed.values()))
        for row, trajectory in enumerate((hier0_traj, dro_traj, erm_traj), start=1):
            trajectory.append(model.row_params(state.theta, row))
        for beta in state.beta[:3]:     # ERM's beta is checked against alpha below
            residual = max(residual, abs(float(beta.sum()) - 1.0))
            if np.any(beta < 0):
                residual = math.inf

    bitwise = all(
        model.params_equal(a, b) for a, b in zip(hier0_traj, dro_traj)
    ) and np.array_equal(state.beta[1], state.beta[2])

    # ERM against an independent plain-SGD loop over the identical batch stream.
    erm_cfg = configs[3]
    rng = np.random.default_rng(erm_cfg.seed)
    sampler = GroupSampler(ds, erm_cfg)
    theta = init
    alpha = ds.alpha
    erm_matches = True
    for step_idx in range(steps):
        batch = sampler.draw(rng)
        grads = model.grad_wrt_params(theta, model.latent(theta, batch.x), batch.x, batch.y)
        theta = model.sgd_step(theta, grads, erm_cfg.eta_theta * float(alpha[batch.group]))
        erm_matches = erm_matches and model.params_equal(theta, erm_traj[step_idx])
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
    """Pointwise vs. distributional robust risk on random 4-atom 2-D instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        theta, _, _ = _random_binary_linear(rng)
        points = rng.normal(size=(4, 2))
        labels = rng.integers(0, 2, size=4)
        dist = uniform_dist(points, labels)
        eps = float(rng.uniform(0.1, 0.5))
        lhs, rhs = amb.robust_risk_check(dist, theta, eps)
        worst = max(worst, abs(lhs - rhs))
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
    make = lambda: uniform_dist(rng.normal(size=(n_atoms, dim)), labels)
    return make(), make(), make()


@_timed
def check_wasserstein_axioms(n_triples: int = 100, seed: int = 6,
                             tolerance: float = METRIC_TOLERANCE) -> CheckResult:
    """Symmetry, identity, triangle inequality, and cross-label infinities."""
    rng = np.random.default_rng(seed)
    ok = True
    worst_symmetry = 0.0
    worst_triangle = -math.inf
    for _ in range(n_triples):
        n_atoms = int(rng.integers(2, 7))
        p, q, r = _random_same_label_dists(rng, n_atoms)
        d_pq = amb.w_infty_exact(p, q)
        d_qp = amb.w_infty_exact(q, p)
        d_qr = amb.w_infty_exact(q, r)
        d_pr = amb.w_infty_exact(p, r)
        worst_symmetry = max(worst_symmetry, abs(d_pq - d_qp))
        worst_triangle = max(worst_triangle, d_pr - (d_pq + d_qr))
        ok = ok and amb.w_infty_exact(p, p) == 0.0
        flipped = DiscreteDist(q.points, 1 - q.labels, q.masses)
        if not amb.all_label_matchings_finite(p, flipped):
            ok = ok and math.isinf(amb.w_infty_exact(p, flipped))
    ok = ok and worst_symmetry <= tolerance and worst_triangle <= tolerance
    return CheckResult(
        name="wasserstein_metric_axioms",
        passed=ok,
        details={"max_symmetry_violation": worst_symmetry,
                 "max_triangle_violation": worst_triangle,
                 "tolerance": tolerance, "triples": n_triples},
    )


@_timed
def check_convergence_rate(
    horizons=(20_000, 80_000, 320_000),
    max_ratio: float = RATE_MAX_RATIO,
    reference_iterations: int = convergence.REFERENCE_ITERATIONS,
) -> CheckResult:
    """Gap contraction and the measured-constant bound on the canonical instance."""
    ds, config = convergence.canonical_instance()
    reference = convergence.reference_optimum(
        ds, config.effective_epsilon, iterations=reference_iterations)
    report = convergence.rate_study(ds, config, horizons, reference)
    ratios = [report.gaps[i + 1] / report.gaps[i] for i in range(len(horizons) - 1)]
    within_bound = all(g <= b for g, b in zip(report.gaps, report.bounds))
    nonneg = all(g >= -convergence.REFERENCE_TOLERANCE for g in report.gaps)
    passed = all(r <= max_ratio for r in ratios) and within_bound and nonneg
    return CheckResult(
        name="convergence_rate",
        passed=passed,
        details={
            "horizons": list(report.horizons),
            "gaps": [float(g) for g in report.gaps],
            "bounds": [float(b) for b in report.bounds],
            "ratios": [float(r) for r in ratios],
            "max_ratio": max_ratio,
            "reference_value": report.reference_value,
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
