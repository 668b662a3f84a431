#!/usr/bin/env python3
"""Run the CLI on a parent revision and on this tree and compare every artifact byte for byte.

    python3 scripts/parity_pair.py --parent HEAD
    python3 scripts/parity_pair.py --coretype Prescott
    python3 scripts/parity_pair.py --parent HEAD --coretype Prescott

Both sides run from a copy in one temporary directory, made as
``bench_pair.py`` makes its copies: the parent exported with ``git archive``,
and the files git tracks in this tree with their working-tree contents, so
that an untracked file neither runs nor counts.  In each copy this runs,
with that copy's ``src`` on ``PYTHONPATH`` and OpenBLAS on the kernel it
picks for this CPU (``OPENBLAS_CORETYPE`` unset):

* ``generate -> tune -> run --tuned-epsilon-from`` on the base config of
  ``tests/test_cli.py``; on the same config with a ``dataset.csv`` block
  naming ``test_cli/{train,val,test,test_shifted}.csv``, relative paths, so
  that each side's ``tune`` and ``run`` read the files its own ``test_cli``
  run wrote (the ``load_csv`` path), in place of the shifts, which no
  command applies to files; and on the same config with
  ``solver.architecture: "mlp1"``, whose tuning trains the ERM warm-up
  (a linear model's tuning orders on its raw features and trains none);
* the same on the ``configs/benchmark.json`` dataset block, shortened to
  1k tuning and warm-up steps and 500 run steps with a checkpoint every 50,
  seeds 11-15;
* ``hierdro verify --level fast --output verify.json``;
* ``scripts/convergence_study.py --horizons 20000 40000
  --reference-iterations 20000``, which prints the reference value and the
  gaps with ``repr``; its output is kept as ``convergence_study.txt``.

Both sides read the same config files; each runs its own copy of the study
script, which prints what its side's rate check returns, so the two outputs
agree only when the check and the script's printing both do.  Every file
the runs write is then compared byte for byte;
the only bytes ignored are the ``"seconds"`` lines of a JSON file, the
wall time of each verification check.  The first difference is printed
and the exit code is 1; with none it is 0.  Either way the final line also
gives the line count of ``src/hierdro/*.py`` in the parent and in this
tree, ``N -> M lines``.

``--coretype NAME`` runs this tree once more with ``OPENBLAS_CORETYPE=NAME``
(``Prescott``, ``Nehalem``, ``Haswell``, ...: another BLAS kernel on the same
machine; a name that leaves OpenBLAS on its own kernel is refused with exit
code 1) and prints the kernel each run used, which files are byte-identical
to the default kernel's, and, for each file that differs, the largest
relative and absolute differences between its numbers (text around the
numbers may differ in whitespace only).  The exit code is then 1 as well
when a file differs that should not depend on the kernel: every file but
those that print values at full precision, the parameters of a
``checkpoint_*.json``, the oracle residuals of ``verify.json`` and the
reference value and gaps of ``convergence_study.txt``, must be
byte-identical.
"""

import argparse
import filecmp
import glob
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pair import export_revision, export_worktree  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS_LINE = re.compile(rb'^\s*"seconds": [^,\n]*,?$')
STUDY_ARGS = ("--horizons", "20000", "40000", "--reference-iterations", "20000")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:Infinity|inf|NaN|nan)")
# The files whose bytes may depend on the BLAS kernel: values at full precision.
KERNEL_DEPENDENT = re.compile(r"(^|/)checkpoint_[^/]*\.json$|^verify\.json$|^convergence_study\.txt$")
# Prints the name of the OpenBLAS kernel that numpy loaded, or "unknown".
CORE_NAME = """
import ctypes, numpy
maps = [line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line]
name = b"unknown"
for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
               "openblas_get_corename"):
    fn = getattr(ctypes.CDLL(maps[0]), symbol, None) if maps else None
    if fn is not None:
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        name = fn()
        break
print(name.decode())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision of the other side")
    parser.add_argument("--coretype", help="an OPENBLAS_CORETYPE to run this tree again under")
    args = parser.parse_args(argv)
    if args.parent is None and args.coretype is None:
        parser.error("give --parent, --coretype or both")
    return args


def comparable_lines(path: str) -> list[bytes]:
    """The lines of ``path`` that must agree: all of them, but for the
    ``"seconds"`` lines of a JSON file."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if path.endswith(".json"):
        lines = [line for line in lines if not SECONDS_LINE.match(line)]
    return lines


def files(root: str) -> list[str]:
    """The paths of the files under directory ``root``, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def first_difference(left: str, right: str) -> str | None:
    """The first difference between the files under directories ``left`` and
    ``right``, in sorted path order, or ``None`` when they agree."""
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


def number_differences(left: str, right: str) -> tuple[float, float] | None:
    """The largest ``|a - b| / max(|a|, |b|)`` and the largest ``|a - b|`` over
    the numbers of two files, paired in order, when their comparable lines
    agree outside the numbers up to whitespace; ``None`` when they differ
    elsewhere too.  A pair that is not finite and differs counts as ``inf``."""
    texts, numbers = [], []
    for path in (left, right):
        data = b"\n".join(comparable_lines(path))
        texts.append([b" ".join(text.split()) for text in NUMBER.split(data)])
        numbers.append(NUMBER.findall(data))
    if texts[0] != texts[1]:
        return None
    relative = absolute = 0.0
    for a, b in zip(*numbers):
        x, y = float(a), float(b)
        if x == y:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf, math.inf
        relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
        absolute = max(absolute, abs(x - y))
    return relative, absolute


def kernel_report(default: str, other: str) -> tuple[list[str], dict[str, str]]:
    """``(identical, differing)``: the files under ``default`` and ``other``
    whose comparable lines agree, and how each other file differs, by path:
    its largest differences, or that it is on one side only."""
    left, right = set(files(default)), set(files(other))
    identical, differing = [], {rel: "only on one side" for rel in sorted(left ^ right)}
    for rel in sorted(left & right):
        a, b = os.path.join(default, rel), os.path.join(other, rel)
        if comparable_lines(a) == comparable_lines(b):
            identical.append(rel)
            continue
        worst = number_differences(a, b)
        differing[rel] = ("differs beyond its numbers" if worst is None else
                          f"largest difference {worst[0]:.3g} relative, {worst[1]:.3g} absolute")
    return identical, dict(sorted(differing.items()))


def source_lines(tree: str) -> int:
    """The number of lines of ``src/hierdro/*.py`` under ``tree``, as ``wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "hierdro", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def export_sides(root: str, tmp: str, revision: str | None) -> dict:
    """The copies the sides run from, by side, as new directories under
    ``tmp``: ``tree``, the files git tracks in ``root`` as they are in its
    working tree, and, unless ``revision`` is ``None``, ``parent``, the
    files of that revision."""
    trees = {"tree": os.path.join(tmp, "tree")}
    export_worktree(root, trees["tree"])
    if revision is not None:
        trees["parent"] = os.path.join(tmp, "parent")
        export_revision(root, revision, trees["parent"])
    return trees


def configs(out: str) -> dict:
    """The four pipeline configs, by name, written under ``out``, in the
    order they run: ``test_cli_csv`` reads the files ``test_cli`` wrote."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from test_cli import base_config, csv_config

    with open(os.path.join(ROOT, "configs", "benchmark.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bench["seeds"] = [11, 12, 13, 14, 15]
    bench["solver"].update(iterations=500, checkpoint_every=50)
    bench["tuning"].update(iterations=1000, warmup_iterations=1000)
    csv = csv_config(pathlib.Path(out), {split: f"test_cli/{split}.csv"
                                         for split in ("train", "val", "test", "test_shifted")})
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


def side_env(tree: str, coretype: str | None) -> dict:
    """The environment of one side's runs: ``tree``'s ``src`` first on the path,
    and OpenBLAS on ``coretype``, or on its own choice when that is ``None``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    env.pop("HIERDRO_OUT", None)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def blas_core(env: dict) -> str:
    """The OpenBLAS kernel a Python process started with ``env`` runs on."""
    return subprocess.run([sys.executable, "-c", CORE_NAME], env=env, capture_output=True,
                          text=True).stdout.strip() or "unknown"


def run_side(tree: str, config_paths: dict, out: str, coretype: str | None = None) -> None:
    env = side_env(tree, coretype)

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
    study = python(os.path.join(tree, "scripts", "convergence_study.py"), *STUDY_ARGS)
    with open(os.path.join(out, "convergence_study.txt"), "w", encoding="utf-8") as fh:
        fh.write(study)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.coretype is not None:
        cores = (blas_core(side_env(ROOT, None)), blas_core(side_env(ROOT, args.coretype)))
        if cores[0] == cores[1]:
            print(f"OPENBLAS_CORETYPE={args.coretype} leaves OpenBLAS on the kernel "
                  f"{cores[0]}, as without it: there is no second kernel to compare")
            return 1
    status = 0
    with tempfile.TemporaryDirectory(prefix="parity_pair_") as tmp:
        config_dir = os.path.join(tmp, "configs")
        os.makedirs(config_dir)
        config_paths = configs(config_dir)
        revision = None
        if args.parent is not None:
            revision = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent],
                                      capture_output=True, text=True, check=True).stdout.strip()
        trees = export_sides(ROOT, tmp, revision)
        sides = [("tree", trees["tree"], None)]
        if revision is not None:
            sides.insert(0, ("parent", trees["parent"], None))
        if args.coretype is not None:
            sides.append(("coretype", trees["tree"], args.coretype))
        outs = {}
        for side, tree, coretype in sides:
            outs[side] = os.path.join(tmp, f"{side}_out")
            os.makedirs(outs[side])
            print(f"running {side} ({tree})", file=sys.stderr)
            run_side(tree, config_paths, outs[side], coretype)
        count = sum(len(names) for _, _, names in os.walk(outs["tree"]))
        if revision is not None:
            difference = first_difference(outs["parent"], outs["tree"])
            lines = (f"src/hierdro/*.py {source_lines(trees['parent'])} -> "
                     f"{source_lines(trees['tree'])} lines")
            if difference:
                print(f"parent {revision[:12]} and this tree differ: {difference}; {lines}")
                status = 1
            else:
                print(f"parent {revision[:12]} and this tree agree on all {count} files; {lines}")
        if args.coretype is not None:
            identical, differing = kernel_report(outs["tree"], outs["coretype"])
            print(f"this tree on OpenBLAS kernel {cores[0]} and on OPENBLAS_CORETYPE="
                  f"{args.coretype} ({cores[1]}): {len(identical)} of {count} files "
                  f"byte-identical, {len(differing)} differ")
            for rel, how in differing.items():
                print(f"  {rel}: {how}")
            outside = [rel for rel in differing if not KERNEL_DEPENDENT.search(rel)]
            if outside:
                print(f"{len(outside)} of them should not depend on the kernel")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
