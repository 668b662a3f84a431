#!/usr/bin/env python3
"""Run the CLI on a parent revision and on this tree and compare every artifact byte for byte.

    python3 scripts/parity_pair.py --parent HEAD

The parent is exported with ``git archive`` into a temporary directory.  In
each tree this runs, with that tree's ``src`` on ``PYTHONPATH``:

* ``generate -> tune -> run --tuned-epsilon-from`` on the base config of
  ``tests/test_cli.py``; on the same config with a ``dataset.csv`` block
  naming ``test_cli/{train,val,test,test_shifted}.csv``, relative paths, so
  that each side's ``tune`` and ``run`` read the files its own ``test_cli``
  run wrote (the ``load_csv`` path); and on the same config with
  ``solver.architecture: "mlp1"``, whose tuning trains the ERM warm-up
  (a linear model's tuning orders on its raw features and trains none);
* the same on the ``configs/benchmark.json`` dataset block, shortened to
  1k tuning and warm-up steps and 500 run steps with a checkpoint every 50,
  seeds 11-15;
* ``hierdro verify --level fast --output verify.json``;
* ``scripts/convergence_study.py --horizons 20000 40000
  --reference-iterations 20000``, which prints the reference value and the
  gaps with ``repr``; its output is kept as ``convergence_study.txt``.

Both sides read the same config files and run this tree's copy of the
study script.  Every file the runs write is then compared byte for byte;
the only bytes ignored are the ``"seconds"`` lines of a JSON file, the
wall time of each verification check.  The first difference is printed
and the exit code is 1; with none it is 0.  Either way the final line also
gives the line count of ``src/hierdro/*.py`` in the parent and in this
tree, ``N -> M lines``.
"""

import argparse
import filecmp
import glob
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS_LINE = re.compile(rb'^\s*"seconds": [^,\n]*,?$')
STUDY_ARGS = ("--horizons", "20000", "40000", "--reference-iterations", "20000")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the other side")
    return parser.parse_args(argv)


def comparable_lines(path: str) -> list[bytes]:
    """The lines of ``path`` that must agree: all of them, but for the
    ``"seconds"`` lines of a JSON file."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if path.endswith(".json"):
        lines = [line for line in lines if not SECONDS_LINE.match(line)]
    return lines


def first_difference(left: str, right: str) -> str | None:
    """The first difference between the files under directories ``left`` and
    ``right``, in sorted path order, or ``None`` when they agree."""
    def files(root):
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, names in os.walk(root) for f in names)

    left_files, right_files = files(left), files(right)
    if left_files != right_files:
        only = sorted(set(left_files) ^ set(right_files))[0]
        side = "left" if only in left_files else "right"
        return f"{only}: only on the {side} side"
    for rel in left_files:
        a, b = os.path.join(left, rel), os.path.join(right, rel)
        if filecmp.cmp(a, b, shallow=False):
            continue
        la, lb = comparable_lines(a), comparable_lines(b)
        for n, (x, y) in enumerate(zip(la, lb), start=1):
            if x != y:
                return f"{rel}: line {n}: {x.decode(errors='replace')!r} != " \
                       f"{y.decode(errors='replace')!r}"
        if len(la) != len(lb):
            return f"{rel}: {len(la)} lines != {len(lb)} lines"
    return None


def source_lines(tree: str) -> int:
    """The number of lines of ``src/hierdro/*.py`` under ``tree``, as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "hierdro", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def configs(out: str) -> dict:
    """The four pipeline configs, by name, written under ``out``, in the
    order they run: ``test_cli_csv`` reads the files ``test_cli`` wrote."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from test_cli import base_config

    with open(os.path.join(ROOT, "configs", "benchmark.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bench["seeds"] = [11, 12, 13, 14, 15]
    bench["solver"].update(iterations=500, checkpoint_every=50)
    bench["tuning"].update(iterations=1000, warmup_iterations=1000)
    csv = base_config(pathlib.Path(out))
    csv["dataset"]["csv"] = {split: f"test_cli/{split}.csv"
                             for split in ("train", "val", "test", "test_shifted")}
    mlp1 = base_config(pathlib.Path(out))
    mlp1["solver"]["architecture"] = "mlp1"
    paths = {}
    for name, raw in (("test_cli", base_config(pathlib.Path(out))), ("test_cli_csv", csv),
                      ("test_cli_mlp1", mlp1), ("benchmark", bench)):
        raw["output_dir"] = name
        paths[name] = os.path.join(out, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2)
    return paths


def run_side(tree: str, config_paths: dict, out: str) -> None:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    env.pop("HIERDRO_OUT", None)

    def python(*args) -> str:
        cmd = [sys.executable, *args]
        done = subprocess.run(cmd, cwd=out, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} exited {done.returncode} in {tree}:\n{done.stderr}")
        return done.stdout

    def hierdro(*args):
        python("-m", "hierdro", *args)

    for name, path in config_paths.items():
        common = ["--config", path, "--output-dir", os.path.join(out, name)]
        hierdro("generate", *common)
        hierdro("tune", *common)
        hierdro("run", *common, "--tuned-epsilon-from",
                os.path.join(out, name, "tune_result.json"))
    hierdro("verify", "--level", "fast", "--output", os.path.join(out, "verify.json"))
    study = python(os.path.join(ROOT, "scripts", "convergence_study.py"), *STUDY_ARGS)
    with open(os.path.join(out, "convergence_study.txt"), "w", encoding="utf-8") as fh:
        fh.write(study)


def main(argv=None) -> int:
    args = parse_args(argv)
    revision = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent], capture_output=True,
                              text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="parity_pair_") as tmp:
        parent_root = os.path.join(tmp, "parent")
        os.mkdir(parent_root)
        archive = subprocess.run(["git", "-C", ROOT, "archive", revision],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_root], input=archive, check=True)
        config_dir = os.path.join(tmp, "configs")
        os.makedirs(config_dir)
        config_paths = configs(config_dir)
        outs = {"parent": os.path.join(tmp, "parent_out"), "tree": os.path.join(tmp, "tree_out")}
        for side, tree in (("parent", parent_root), ("tree", ROOT)):
            os.makedirs(outs[side])
            print(f"running {side} ({tree})", file=sys.stderr)
            run_side(tree, config_paths, outs[side])
        difference = first_difference(outs["parent"], outs["tree"])
        count = sum(len(names) for _, _, names in os.walk(outs["tree"]))
        lines = f"src/hierdro/*.py {source_lines(parent_root)} -> {source_lines(ROOT)} lines"
    if difference:
        print(f"parent {revision[:12]} and this tree differ: {difference}; {lines}")
        return 1
    print(f"parent {revision[:12]} and this tree agree on all {count} files; {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
