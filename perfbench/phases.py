#!/usr/bin/env python3
"""Per-step phase table of a traced ``train`` run, one row per architecture x mode.

    python3 perfbench/phases.py .perfbench_out/trace-train-seed1.json

Every column is microseconds per training step, averaged over the run's
rounds.  A phase is the total time of the direct children of
``solver.train_step`` (or of ``solver.train`` for the draw and the
checkpoints) with the names listed in ``PHASES``; ``self`` is what
``train_step`` spends outside them.  The last columns give the share of
ascent endpoints on the ball boundary and whether ``w_hidden`` moved.
"""

import json
import sys
from collections import defaultdict

PHASES = (
    ("draw", "solver.train", ("solver.GroupSampler.draw",)),
    ("latent", "solver.train_step", ("model.latent",)),
    ("ascent", "solver.train_step", ("ambiguity.radius", "ambiguity.inner_maximize")),
    ("loss", "solver.train_step", ("model.logits_from_latent", "model.cross_entropy")),
    ("beta", "solver.train_step", ("solver.update_beta",)),
    ("grad", "solver.train_step", ("model.grad_wrt_params",)),
    ("guards", "solver.train_step", ("model.grads_finite", "model.flatten_grads", "model.params_norm")),
    ("sgd+avg", "solver.train_step", ("model.sgd_step", "model.average_params")),
    ("checkpoint", "solver.train", ("solver.group_mean_losses", "evaluation.evaluate")),
)


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    roots = [s for s in trace["spans"] if s["name"] == "solver.train" and s["parent"] is None]
    cells = defaultdict(lambda: defaultdict(float))
    for span, traj in zip(roots, trace["trajectories"]):
        key = (traj["arch"], traj["mode"])
        row = cells[key]
        row["steps"] += traj["steps"]
        row["moved"] = traj["w_hidden_moved"]
        row["total"] += (span["end"] - span["start"]) * 1e6
        for agg in trace["aggregates"]:
            if agg["trace"] != span["trace"]:
                continue
            if agg["name"] == "solver.train_step":
                row["step"] += agg["total_s"] * 1e6
                row["self"] += agg["self_s"] * 1e6
            for phase, parent, names in PHASES:
                if agg["parent_name"] == parent and agg["name"] in names:
                    row[phase] += agg["total_s"] * 1e6
        for c in trace["counters"]:
            k = c["key"]
            if len(k) == 3 and k[0] == span["trace"]:
                row[k[2]] += c["value"]
    names = ["total", "step", *(p for p, _, _ in PHASES), "self"]
    print("| arch | mode | " + " | ".join(names) + " | boundary | w_hidden moved |")
    print("|" + "---|" * (len(names) + 4))
    for (arch, mode), row in cells.items():
        share = f"{row['boundary'] / row['rows']:.3f}" if row["rows"] else "-"
        moved = "-" if row["moved"] is None else ("yes" if row["moved"] else "no")
        values = " | ".join(f"{row[n] / row['steps']:.1f}" for n in names)
        print(f"| {arch} | {mode} | {values} | {share} | {moved} |")


if __name__ == "__main__":
    main(sys.argv[1])
