#!/usr/bin/env python3
"""Benchmark a parent revision and this tree in alternation; write each side's medians.

    python3 scripts/bench_pair.py --parent HEAD~1 --parent-label pr6 --label pr7 \
        --seeds 9101 9102 9103 [--workloads pipeline train verify] [--seconds 20]

For each workload and seed this runs ``perfbench/run.py --trace 0`` once on
the parent and once on this working tree, alternating which side goes first
from one seed to the next so that a drift in the machine's speed falls on
both sides alike.  Both sides run from a fresh copy in one temporary
directory, which is removed afterwards: the parent exported with ``git
archive``, and this tree's tracked files with their working-tree contents
(untracked files stay out).  Each side gets one
``BENCH_<label>.json`` in ``--out-dir``: per workload, the median of
``setup_s``, ``round_s`` and ``peak_rss_mb`` over the seeds, every run's
value, whether every run was correct and how many operations failed, and
the same median and values of each phase that ``run.py`` prints to stderr
(``tune_s`` and ``run_s`` of a pipeline round, for one), plus the CPU
model, ``nproc``, the Python and numpy versions and the git revision.
Compare two such files only when they were measured on the same machine.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("pipeline", "train", "verify")
END_TO_END = ("setup_s", "round_s", "peak_rss_mb")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the other side")
    parser.add_argument("--parent-label", required=True)
    parser.add_argument("--label", required=True, help="label of this working tree")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out-dir", default=ROOT)
    return parser.parse_args(argv)


def parse_phases(stderr: str) -> dict:
    """The phase medians of the ``phases: <name> <value> <unit>, ...`` line
    that an untraced ``run.py`` run prints to stderr, by name."""
    for line in stderr.splitlines():
        if line.startswith("phases:"):
            items = line[len("phases:"):].strip()
            return {name: float(value) for name, value, _ in
                    (item.split(" ") for item in items.split(", ") if item)}
    return {}


def summarize(runs) -> dict:
    """Per-workload summary of ``(workload, last stdout line of run.py, its
    stderr)`` triples, in the order the runs were made."""
    out = {}
    for workload, line, stderr in runs:
        record = json.loads(line)
        entry = out.setdefault(workload, {"runs": 0, "correct": True, "attempted": 0,
                                          "failed": 0, "values": {m: [] for m in END_TO_END},
                                          "phase_values": {}})
        entry["runs"] += 1
        entry["correct"] = entry["correct"] and bool(record["correct"])
        entry["attempted"] += record["attempted"]
        entry["failed"] += record["failed"]
        for metric in END_TO_END:
            entry["values"][metric].append(record["metrics"][metric]["value"])
        for name, value in parse_phases(stderr).items():
            entry["phase_values"].setdefault(name, []).append(value)
    for entry in out.values():
        entry["median"] = {m: statistics.median(v) for m, v in entry["values"].items()}
        entry["phase_median"] = {m: statistics.median(v) for m, v in entry["phase_values"].items()}
    return out


def write_bench(path, label: str, revision: str, workloads: dict, environment: dict) -> None:
    """``BENCH_<label>.json``: the summary of :func:`summarize` with where it was measured."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"label": label, "revision": revision, **environment, "workloads": workloads},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export_revision(root: str, revision: str, dest: str) -> None:
    """Write the files of git ``revision`` in ``root`` into the new directory ``dest``."""
    os.mkdir(dest)
    archive = subprocess.run(["git", "-C", root, "archive", revision],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def export_worktree(root: str, dest: str) -> None:
    """Copy the files git tracks in ``root``, as they are in its working tree, into ``dest``."""
    listed = subprocess.run(["git", "-C", root, "ls-files", "-z"], capture_output=True,
                            text=True, check=True).stdout
    for path in filter(None, listed.split("\0")):
        source = os.path.join(root, path)
        if os.path.isfile(source):          # a tracked file deleted in the working tree stays out
            target = os.path.join(dest, path)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)


def run_once(side: str, root: str, workload: str, seed: int, seconds: float) -> tuple:
    """One run's ``(workload, last stdout line, stderr)``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {root}:\n{done.stderr}")
    line = done.stdout.strip().splitlines()[-1]
    record = json.loads(line)
    print(f"{side} {workload} seed {seed}: "
          + ", ".join(f"{m} {record['metrics'][m]['value']:.4g}" for m in END_TO_END)
          + f", correct {record['correct']}, failed {record['failed']}", file=sys.stderr)
    return workload, line, done.stderr


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_rev = git("rev-parse", args.parent)
    tree_rev = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        tree_rev += "+uncommitted"
    environment = {"cpu_model": cpu_model(), "nproc": os.cpu_count(),
                   "python": platform.python_version(), "numpy": np.__version__,
                   "seconds": args.seconds, "seeds": args.seeds}
    runs = {"parent": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        parent_root = os.path.join(tmp, "parent")
        export_revision(ROOT, parent_rev, parent_root)
        tree_root = os.path.join(tmp, "tree")
        export_worktree(ROOT, tree_root)
        roots = {"parent": parent_root, "tree": tree_root}
        for workload in args.workloads:
            for k, seed in enumerate(args.seeds):
                for side in (("parent", "tree") if k % 2 == 0 else ("tree", "parent")):
                    runs[side].append(run_once(side, roots[side], workload, seed,
                                               args.seconds))
    for side, label, revision in (("parent", args.parent_label, parent_rev),
                                  ("tree", args.label, tree_rev)):
        path = os.path.join(args.out_dir, f"BENCH_{label}.json")
        write_bench(path, label, revision, summarize(runs[side]), environment)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
