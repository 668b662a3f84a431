"""Output checks that recompute what the program wrote, apart from the program.

Each check reads the program's outputs (CSV files, JSON artifacts, returned
checkpoints) and compares them with values the benchmark computes itself:
its own CSV parser, forward pass, cross-entropy, group bookkeeping and
selection rules.  None compares against a stored copy of earlier output.
A failed comparison raises :class:`CheckFailure` naming what differs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics

import numpy as np

NUM_ATTRIBUTES = 2
SPLITS = ("train", "val", "test", "test_shifted")
MODE_LABELS = {"erm": "ERM", "group_dro": "GroupDRO", "hierarchical": "Hierarchical"}
RESULTS_HEADER = ["method", "seed", "eps", "worst_acc_orig", "avg_acc_orig",
                  "worst_acc_shift", "avg_acc_shift"]
CSV_DIGITS_TOL = 5e-7          # results.csv prints "%.6f"
HISTORY_REL_TOL = 1e-9         # history.csv prints "%.10g"
GROUP_LOSS_TOL = 1e-9
SIMPLEX_TOL = 1e-12


class CheckFailure(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ----------------------------------------------------------- recomputation


def read_split(path):
    """(features, labels, attributes, groups) from a ``y,a,g,x0..`` CSV."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    y, a, g = (table[:, i].astype(np.int64) for i in range(3))
    return table[:, 3:], y, a, g


def logits(params: dict, x: np.ndarray) -> np.ndarray:
    """Forward pass of a parameter dict with keys w_out, b_out[, w_hidden, b_hidden]."""
    h = x
    if params.get("w_hidden") is not None:
        h = np.maximum(x @ np.asarray(params["w_hidden"]).T + np.asarray(params["b_hidden"]), 0.0)
    return h @ np.asarray(params["w_out"]).T + np.asarray(params["b_out"])


def cross_entropy(out: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.logaddexp.reduce(out, axis=1) - out[np.arange(y.size), y]


def group_accuracy(params: dict, x, y, g, num_groups: int) -> np.ndarray:
    hit = np.argmax(logits(params, x), axis=1) == y
    return np.array([hit[g == k].mean() for k in range(num_groups)])


def params_dict(theta) -> dict:
    return {k: getattr(theta, k) for k in ("w_out", "b_out", "w_hidden", "b_hidden")}


def proportions(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.int64)
    return counts / counts.sum()


def tuned_choice(grid_scale, table, n_min: int) -> tuple[float, float]:
    """(epsilon, scale) by mean holdout accuracy; ties go to the smaller epsilon."""
    candidates = [s * math.sqrt(n_min) for s in grid_scale]
    means = [statistics.fmean(row) for row in table]
    best = min(range(len(candidates)), key=lambda i: (-means[i], candidates[i]))
    return candidates[best], grid_scale[best]


# -------------------------------------------------------------- pipeline


def check_manifest(out_dir: str, dataset: dict) -> None:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected = {"train": dataset["n_per_group_train"], "val": dataset["n_per_group_val"],
                "test": dataset["n_per_group_test"], "test_shifted": dataset["n_per_group_test"]}
    for split in SPLITS:
        path = os.path.join(out_dir, f"{split}.csv")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        entry = manifest["splits"][split]
        require(entry["sha256"] == digest, f"manifest sha256 of {split} does not match the file")
        require(entry["n_g"] == list(expected[split]), f"manifest group counts of {split} differ from the config")
        _, y, a, g = read_split(path)
        require(np.array_equal(g, y * NUM_ATTRIBUTES + a), f"{split}: group column is not y*2+a")
        counts = np.bincount(g, minlength=len(expected[split]))
        require(counts.tolist() == list(expected[split]), f"{split}: file group counts differ from the config")


def check_shift(out_dir: str, shifts) -> None:
    """``test_shifted`` is ``test`` with the configured test shifts, row for row."""
    x, y, a, g = read_split(os.path.join(out_dir, "test.csv"))
    xs, ys, as_, gs = read_split(os.path.join(out_dir, "test_shifted.csv"))
    require(np.array_equal(y, ys) and np.array_equal(a, as_) and np.array_equal(g, gs),
            "test_shifted labels or groups differ from test")
    want = x.copy()
    touched = np.zeros(g.size, dtype=bool)
    for spec in shifts:
        if spec.get("applies_to", "test") != "test":
            continue
        rows = g == spec["target_group"]
        touched |= rows
        if spec["kind"] == "rotation":
            c, s = math.cos(spec["magnitude"]), math.sin(spec["magnitude"])
            rot = np.array([[c, -s], [s, c]])
            want[rows, :2] = want[rows, :2] @ rot.T
        else:
            want[rows, 1] = want[rows, 1] + spec["magnitude"]
    require(np.array_equal(xs[~touched], x[~touched]), "test_shifted changed rows outside the shifted group")
    require(np.array_equal(xs[touched, 2:], x[touched, 2:]), "test_shifted changed coordinates other than (0, 1)")
    require(np.allclose(xs[touched, :2], want[touched, :2], rtol=0.0, atol=1e-12),
            "test_shifted rows differ from the recomputed shift")


def check_tune(tune: dict, dataset: dict) -> float:
    counts = dataset["n_per_group_train"]
    n_min = min(counts)
    require(tune["n_min"] == n_min and tune["minority_group"] == counts.index(n_min),
            "tune_result minority group is not the smallest training group")
    want_grid = [s * math.sqrt(n_min) for s in tune["grid_scale"]]
    require(np.allclose(tune["grid"], want_grid, rtol=1e-12, atol=0.0), "tune grid is not scale*sqrt(n_min)")
    require(all(0.0 <= v <= 1.0 for row in tune["table"] for v in row), "tune table holds a non-accuracy")
    epsilon, scale = tuned_choice(tune["grid_scale"], tune["table"], n_min)
    require(math.isclose(tune["chosen_epsilon"], epsilon, rel_tol=1e-12)
            and tune["chosen_scale"] == scale,
            f"chosen_epsilon {tune['chosen_epsilon']} differs from the recomputed {epsilon}")
    return tune["chosen_epsilon"]


def read_results(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    require(lines[0].split(",") == RESULTS_HEADER, "results.csv header differs")
    rows = [line.split(",") for line in lines[1:]]
    return [r for r in rows if r[1] != "summary"], [r for r in rows if r[1] == "summary"]


def check_results(out_dir: str, modes, seeds, chosen_epsilon: float, dataset: dict) -> None:
    cells, summaries = read_results(os.path.join(out_dir, "results.csv"))
    require(len(cells) == len(modes) * len(seeds), f"results.csv has {len(cells)} per-seed rows")
    cells = [row for row in cells if "failed" not in row]   # counted as failed operations
    weights = proportions(dataset["n_per_group_train"])
    num_groups = weights.size
    splits = {name: read_split(os.path.join(out_dir, f"{name}.csv")) for name in ("test", "test_shifted")}
    labels = {MODE_LABELS[m]: m for m in modes}
    per_mode = {}
    for row in cells:
        mode, seed = labels[row[0]], int(row[1])
        want_eps = "%.6f" % (chosen_epsilon if mode == "hierarchical" else 0.0)
        require(row[2] == want_eps, f"{row[0]} seed {seed}: eps column {row[2]} != {want_eps}")
        with open(os.path.join(out_dir, "runs", f"{mode}_seed{seed}", "checkpoint_best.json"),
                  encoding="utf-8") as fh:
            params = json.load(fh)
        values = []
        for name in ("test", "test_shifted"):
            x, y, _, g = splits[name]
            acc = group_accuracy(params, x, y, g, num_groups)
            values.extend([acc.min(), float(weights @ acc)])
        got = [float(v) for v in row[3:]]
        require(all(abs(a - b) <= CSV_DIGITS_TOL for a, b in zip(got, values)),
                f"{row[0]} seed {seed}: accuracies {got} differ from recomputed {values}")
        require(got[0] <= got[1] and got[2] <= got[3], f"{row[0]} seed {seed}: worst > average")
        per_mode.setdefault(row[0], []).append(got)
    require(len(summaries) == len(per_mode), "results.csv summary rows do not match the modes")
    for row in summaries:
        means = [statistics.fmean(col) for col in zip(*per_mode[row[0]])]
        got = [float(cell.split("±")[0]) for cell in row[3:]]
        require(all(abs(a - b) <= 5e-5 + 1e-6 for a, b in zip(got, means)),
                f"{row[0]} summary means {got} differ from recomputed {means}")


def check_history(path: str, mode: str, dataset: dict, iterations: int, cadence: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    beta_cols = [i for i, name in enumerate(header) if name.startswith("beta_g")]
    require([r[0] for r in rows] == list(range(cadence, iterations + 1, cadence)),
            f"{path}: checkpoint iterations differ from every {cadence} up to {iterations}")
    alpha = proportions(dataset["n_per_group_train"])
    for r in rows:
        beta = np.array([r[i] for i in beta_cols])
        require(np.all(beta >= 0) and abs(beta.sum() - 1.0) <= 4 * HISTORY_REL_TOL,
                f"{path}: beta row {beta.tolist()} is off the simplex")
        if mode == "erm":
            require(np.allclose(beta, alpha, rtol=HISTORY_REL_TOL, atol=0.0),
                    f"{path}: ERM beta {beta.tolist()} != train proportions")


def check_pipeline(out_dir: str, config: dict) -> None:
    dataset, solver = config["dataset"], config["solver"]
    check_manifest(out_dir, dataset)
    check_shift(out_dir, dataset.get("shifts", []))
    with open(os.path.join(out_dir, "tune_result.json"), encoding="utf-8") as fh:
        chosen = check_tune(json.load(fh), dataset)
    check_results(out_dir, solver["modes"], config["seeds"], chosen, dataset)
    for mode in solver["modes"]:
        for seed in config["seeds"]:
            if not os.path.exists(os.path.join(out_dir, "runs", f"{mode}_seed{seed}", "checkpoint_best.json")):
                continue   # a diverged cell writes no artifacts
            check_history(os.path.join(out_dir, "runs", f"{mode}_seed{seed}", "history.csv"),
                          mode, dataset, solver["iterations"], solver["checkpoint_every"])


# ------------------------------------------------------------------ train


def check_trajectory(result, ds_train, ds_val, mode: str, iterations: int, cadence: int) -> None:
    """A ``solver.train`` result against the benchmark's own recomputation."""
    history = result.history
    require([cp.iteration for cp in history] == list(range(cadence, iterations + 1, cadence)),
            "checkpoint iterations differ from the cadence")
    num_groups = ds_train.n_g.size
    g_train = ds_train.labels * NUM_ATTRIBUTES + ds_train.attributes
    g_val = ds_val.labels * NUM_ATTRIBUTES + ds_val.attributes
    alpha = np.bincount(g_train, minlength=num_groups) / g_train.size
    worst = []
    for cp in history:
        params = params_dict(cp.theta)
        worst.append(group_accuracy(params, ds_val.features, ds_val.labels, g_val, num_groups).min())
        losses = cross_entropy(logits(params, ds_train.features), ds_train.labels)
        want = np.array([losses[g_train == k].mean() for k in range(num_groups)])
        require(np.all(np.abs(cp.group_losses - want) <= GROUP_LOSS_TOL),
                f"iteration {cp.iteration}: group_losses {cp.group_losses.tolist()} != {want.tolist()}")
        require(np.all(cp.beta >= 0) and abs(cp.beta.sum() - 1.0) <= SIMPLEX_TOL,
                f"iteration {cp.iteration}: beta is off the simplex")
        if mode == "erm":
            require(np.array_equal(cp.beta, alpha), f"iteration {cp.iteration}: ERM beta != alpha")
    best = max(range(len(history)), key=lambda i: (worst[i], -history[i].iteration))
    require(result.best_iteration == history[best].iteration,
            f"best_iteration {result.best_iteration} != recomputed {history[best].iteration}")
    require(result.best_worst_val_acc == worst[best],
            f"best_worst_val_acc {result.best_worst_val_acc} != recomputed {worst[best]}")


# ----------------------------------------------------------------- ascent


def ascent_endpoints(w_out, b_out, z, y, eps_g: float, z_prime):
    """(rows, rows on the ball boundary, rows outside the ball or with a lower loss)."""
    z, z_prime = np.atleast_2d(z), np.atleast_2d(z_prime)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    params = {"w_out": w_out, "b_out": b_out}
    dist = np.linalg.norm(z_prime - z, axis=1)
    lowered = cross_entropy(logits(params, z_prime), y) < cross_entropy(logits(params, z), y) - 1e-12
    outside = dist > eps_g * (1.0 + 1e-9) + 1e-12
    on_boundary = dist >= eps_g * (1.0 - 1e-9)
    return z.shape[0], int(on_boundary.sum()), int((lowered | outside).sum())
