"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 6 and 7 are long-running (minutes); everything else is
seconds.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from hierdro import cli, verification
from hierdro.datagen import make_spurious
from hierdro.errors import ParameterError
from hierdro.model import ModelSpec
from hierdro.ambiguity import radius
from hierdro.solver import HIERARCHICAL, SolverConfig
from hierdro.tuning import DEFAULT_GRID_SCALE, TuneConfig, tune_epsilon

BENCHMARK_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.json")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
README_METHODS = {"ERM": "ERM", "group DRO": "GroupDRO", "hierarchical": "Hierarchical"}


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\ncriterion {number} ({name}): {status}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def readme_means_table() -> dict:
    """README's table of criterion 7's means, by ``results.csv`` method: the
    shifted worst-group, unshifted worst-group and unshifted average cells."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## What the paper claims and what this repo shows", 1)[1]
    rows = {}
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells[0] in README_METHODS:
            rows[README_METHODS[cells[0]]] = cells[1:]
    return rows


def test_criterion_1_gradient_correctness():
    result = verification.check_gradients(n_cases=100, tolerance=1e-4)
    report(
        1, "gradient correctness", result.passed and result.seconds < 10.0,
        f"max rel err {result.details['max_relative_error']:.2e} "
        f"(tol 1e-4), {result.seconds:.1f}s (budget 10s)",
    )


def test_criterion_2_exact_inner_maximization():
    result = verification.check_inner_maximization(n_cases=50, tolerance=1e-9)
    report(
        2, "one-step inner maximization exact", result.passed and result.seconds < 10.0,
        f"max loss gap {result.details['max_loss_gap']:.2e} (tol 1e-9), "
        f"{result.seconds:.1f}s (budget 10s)",
    )


def test_criterion_3_pointwise_vs_distributional_risk():
    result = verification.check_lemma_oracle(n_cases=20, tolerance=1e-3)
    report(
        3, "pointwise = distributional robust risk", result.passed and result.seconds < 120.0,
        f"max |lhs-rhs| {result.details['max_abs_difference']:.2e} (tol 1e-3), "
        f"{result.seconds:.1f}s (budget 120s)",
    )


def test_criterion_4_taylor_expansion_order():
    result = verification.check_taylor_scaling(
        n_cases=50, epsilons=(0.4, 0.2, 0.1, 0.05), min_slope=1.5, pass_fraction=0.9)
    report(
        4, "expansion gap log-log slope", result.passed,
        f"slope >= 1.5 on {result.details['fraction_with_slope_ge_min']:.0%} "
        "of instances (need 90%)",
    )


def test_criterion_5_simplex_and_degeneracy():
    result = verification.check_simplex_and_degeneracy(steps=10_000, tolerance=1e-12)
    d = result.details
    report(
        5, "simplex invariant and mode degeneracy", result.passed,
        f"max simplex residual {d['max_simplex_residual']:.1e} over {d['steps']} steps, "
        f"zero-radius bitwise={d['group_dro_bitwise_equal']}, "
        f"erm=plain sgd: {d['erm_plain_sgd']}",
    )


def test_criterion_6_convergence_rate():
    start = time.perf_counter()
    result = verification.check_convergence_rate(
        horizons=(20_000, 80_000, 320_000), max_ratio=0.75)
    elapsed = time.perf_counter() - start
    d = result.details
    gaps = ", ".join(f"{g:.4f}" for g in d["gaps"])
    ratios = ", ".join(f"{r:.2f}" for r in d["ratios"])
    report(
        6, "averaged-iterate convergence rate", result.passed and elapsed < 600.0,
        f"gaps [{gaps}] at horizons {d['horizons']}, 4x ratios [{ratios}] (need <= 0.75), "
        f"gaps within measured-constant bounds: {all(g <= b for g, b in zip(d['gaps'], d['bounds']))}, "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_criterion_7_benchmark_ordering(tmp_path):
    start = time.perf_counter()
    config_path = os.path.abspath(BENCHMARK_CONFIG)
    out_dir = str(tmp_path / "bench")

    assert cli.main(["generate", "--config", config_path, "--output-dir", out_dir]) == 0
    assert cli.main(["tune", "--config", config_path, "--output-dir", out_dir]) == 0
    tune_payload = json.loads(open(os.path.join(out_dir, "tune_result.json")).read())
    assert cli.main([
        "run", "--config", config_path, "--output-dir", out_dir,
        "--tuned-epsilon-from", os.path.join(out_dir, "tune_result.json"),
    ]) == 0

    lines = open(os.path.join(out_dir, "results.csv")).read().splitlines()
    rows = [l.split(",") for l in lines[2:]]
    per_seed = [r for r in rows if r[1] not in ("summary",)]
    assert len(per_seed) == 15, "3 methods x 5 seeds"
    means, unshifted = {}, {}
    for method in ("ERM", "GroupDRO", "Hierarchical"):
        cells = [r for r in per_seed if r[0] == method]
        assert len(cells) == 5
        means[method] = float(np.mean([float(r[5]) for r in cells]))
        # worst_acc_orig and avg_acc_orig: reported beside the gates, not gated.
        unshifted[method] = [float(np.mean([float(r[i]) for r in cells])) for i in (3, 4)]
    elapsed = time.perf_counter() - start
    ordered = (means["Hierarchical"] >= means["GroupDRO"] + 0.03
               and means["GroupDRO"] + 0.03 >= means["ERM"] + 0.10)
    report(
        7, "shifted benchmark ordering", ordered and elapsed < 900.0,
        f"worst-group means on shifted test: hierarchical {means['Hierarchical']:.3f} "
        f">= group_dro {means['GroupDRO']:.3f} + 0.03 and group_dro >= erm {means['ERM']:.3f} + 0.07; "
        f"tuned eps {tune_payload['chosen_epsilon']:.3f} "
        f"(scale {tune_payload['chosen_scale']:.3f}), {elapsed:.0f}s (budget 900s); "
        f"unshifted worst-group means, no gate: hierarchical "
        f"{unshifted['Hierarchical'][0]:.3f}, group_dro {unshifted['GroupDRO'][0]:.3f}, "
        f"erm {unshifted['ERM'][0]:.3f}",
    )
    table = {m: [f"{v:.3f}" for v in (means[m], *unshifted[m])] for m in means}
    assert readme_means_table() == table, f"README's means table disagrees: {table}"


def test_criterion_8_radius_and_tuning_contracts():
    exact = radius(2.0, 16) == 0.5 and radius(0.0, 7) == 0.0
    n_min = 77
    exact = exact and radius((96 / 255) * math.sqrt(n_min), n_min) == pytest.approx(96 / 255, abs=1e-15)
    grid_ok = DEFAULT_GRID_SCALE == tuple(k / 255 for k in (12, 24, 36, 48, 60, 72, 84, 96))

    ds = make_spurious((40, 20, 15, 40), 0.6, 0.5, 0.15, seed=21)
    cfg = TuneConfig(
        solver=SolverConfig(mode=HIERARCHICAL, eta_beta=0.2, eta_theta=0.3,
                            iterations=0, batch_size=8, seed=0, checkpoint_every=10),
        model=ModelSpec("linear"), warmup_iterations=10, grid_scale=(0.3, 0.1, 0.2),
    )
    tie = tune_epsilon(ds, cfg)
    ties_ok = tie.chosen_scale == 0.1  # identical scores, smallest wins
    run_cfg = TuneConfig(
        solver=SolverConfig(mode=HIERARCHICAL, eta_beta=0.2, eta_theta=0.3,
                            iterations=100, batch_size=8, seed=3, checkpoint_every=50),
        model=ModelSpec("linear"), warmup_iterations=30, grid_scale=(0.1, 0.3),
    )
    a = tune_epsilon(ds, run_cfg)
    b = tune_epsilon(ds, run_cfg)
    deterministic = (a.chosen_epsilon == b.chosen_epsilon
                     and np.array_equal(a.table, b.table))
    report(
        8, "radius schedule and tuning contracts",
        exact and grid_ok and ties_ok and deterministic,
        f"radius formula exact: {exact}, default grid verbatim: {grid_ok}, "
        f"tie-break to smaller: {ties_ok}, deterministic: {deterministic}",
    )


def test_criterion_9_transport_metric_axioms():
    result = verification.check_wasserstein_axioms(n_triples=100, tolerance=1e-12)
    d = result.details
    report(
        9, "transport oracle metric axioms", result.passed,
        f"symmetry viol {d['max_symmetry_violation']:.1e}, "
        f"triangle viol {d['max_triangle_violation']:.1e} (tol 1e-12), "
        "cross-label distances infinite",
    )
