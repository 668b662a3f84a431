"""Each script in scripts/ runs to exit 0 on a tiny horizon, convergence_study.py
printing its reference value and gaps in full; bench_pair.py is
checked on canned run lines and does not run the benchmark here, and
parity_pair.py's comparison and line count on hand-made directories and
its copies of the two sides on a hand-made git repository."""

import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

from hierdro import cli, convergence
from hierdro.solver import MODE_LABELS
from test_cli import base_config, write_config

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


@pytest.mark.parametrize("name,args", [
    ("convergence_study.py", ["--horizons", "20000", "--reference-iterations", "2000"]),
    ("calibrate_benchmark.py", ["--quick", "--seeds", "1", "--iterations", "100"]),
])
def test_script_runs(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    if name == "convergence_study.py":
        assert_study_prints_every_bit(proc.stdout, reference_iterations=int(args[-1]))


def assert_study_prints_every_bit(stdout, reference_iterations):
    """The reference value, its bracket and the gaps are printed with ``repr``,
    so that parity_pair.py's byte comparison of two trees' outputs covers
    every bit."""
    ds, config = convergence.canonical_instance()
    reference = convergence.reference_optimum(ds, config.effective_epsilon,
                                              iterations=reference_iterations)
    lines = stdout.splitlines()
    assert f"reference min-max value: {reference.upper!r}" in lines
    assert any(line.startswith(f"reference bracket: [{reference.lower!r}, {reference.upper!r}]")
               for line in lines)
    gaps = [line.split()[1] for line in lines if line.split()[:1] == ["20000"]]
    assert len(gaps) == 1 and repr(float(gaps[0])) == gaps[0]


def test_convergence_study_exit_code_applies_the_check_criteria():
    """One dual round leaves the reference bracket wider than 1e-4: the
    study says which criterion failed and exits 2; a round cap below one is
    an ``error:`` line and exit 1, with no verdict printed."""
    proc = run_script("convergence_study.py", "--horizons", "20000", "--reference-iterations", "1")
    assert proc.returncode == 2, proc.stderr
    assert "bracket width <= 0.0001: False" in proc.stdout.splitlines()
    proc = run_script("convergence_study.py", "--reference-iterations", "-3")
    assert proc.returncode == 1
    assert proc.stderr.strip() == "error: reference_optimum needs at least one round, got -3"
    assert "True" not in proc.stdout


@pytest.mark.parametrize("horizons,message", [
    (["0", "20000"], "horizon 0 is below 1"),
    (["20001"], "horizon 20001 is not a multiple of checkpoint_every=20000"),
    (["20000", "20000"], "horizon 20000 is given twice"),
], ids=["zero", "not-a-multiple", "repeated"])
def test_convergence_study_refuses_a_bad_horizon_with_one_error_line(horizons, message):
    proc = run_script("convergence_study.py", "--horizons", *horizons,
                      "--reference-iterations", "1")
    assert proc.returncode == 1
    assert proc.stderr.strip() == f"error: {message}"
    assert "True" not in proc.stdout and "False" not in proc.stdout


def test_run_benchmark_script_runs(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    proc = run_script("run_benchmark.py", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "Hierarchical" in proc.stdout
    assert json.loads((tmp_path / "out" / "tune_result.json").read_text())["chosen_epsilon"] > 0


def test_calibrate_trains_the_cells_run_trains(tmp_path):
    """calibrate_benchmark.py's worst-group means, shifted and not, are
    those of the per-seed rows of ``results.csv`` for the same config."""
    raw = base_config(tmp_path)
    raw["solver"]["checkpoint_every"] = raw["solver"]["iterations"] // 10
    cfg = write_config(tmp_path, raw)
    config = cli.load_config(cfg)
    eps_scale = 0.2
    eps = eps_scale * math.sqrt(min(config.dataset.n_per_group_train))
    assert cli.main(["run", "--config", cfg, "--epsilon", repr(eps)]) == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()[2:]
    cells = [line.split(",") for line in lines if ",summary," not in line]
    ds = config.dataset
    means = load_script("calibrate_benchmark").bench(
        config, ds.spurious_strength, ds.noise_sd, ds.label_flip_p, ds.shifts[0].magnitude,
        eps_scale, config.solver.iterations, list(config.seeds))
    for mode, label in MODE_LABELS.items():
        rows = [cell for cell in cells if cell[0] == label]
        assert len(rows) == len(config.seeds)
        for column, mean in ((3, means[mode][0]), (5, means[mode][1])):
            assert statistics.fmean(float(row[column]) for row in rows) == \
                pytest.approx(mean, abs=1e-6)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_line(setup_s, round_s, peak_rss_mb, correct=True, failed=0):
    """The last stdout line of an untraced ``perfbench/run.py`` run."""
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "round_s": {"value": round_s, "unit": "s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics})


def pipeline_stderr(tune_s, run_s):
    """The stderr of an untraced pipeline run of ``perfbench/run.py``."""
    return ("2 rounds, median wall 4.5 s, reference loop median 1.000 ms over 9 samples\n"
            f"phases: tune_s {tune_s:.6g} s, run_s {run_s:.6g} s\n")


def test_bench_pair_writes_medians_of_canned_runs(tmp_path):
    bench_pair = load_script("bench_pair")
    runs = [("train", run_line(0.5, 0.40, 80.0), ""),
            ("pipeline", run_line(1.0, 4.0, 100.0), pipeline_stderr(3.0, 1.0)),
            ("train", run_line(0.7, 0.44, 81.0), ""), ("train", run_line(0.6, 0.50, 79.0), ""),
            ("pipeline", run_line(2.0, 5.0, 102.0, correct=False, failed=1),
             pipeline_stderr(3.5, 1.25))]
    summary = bench_pair.summarize(runs)
    assert summary["train"]["median"] == {"setup_s": 0.6, "round_s": 0.44, "peak_rss_mb": 80.0}
    assert summary["train"]["values"]["round_s"] == [0.40, 0.44, 0.50]
    assert summary["train"]["phase_median"] == {}
    assert (summary["train"]["runs"], summary["train"]["correct"]) == (3, True)
    assert summary["pipeline"]["median"] == {"setup_s": 1.5, "round_s": 4.5, "peak_rss_mb": 101.0}
    assert summary["pipeline"]["phase_values"] == {"tune_s": [3.0, 3.5], "run_s": [1.0, 1.25]}
    assert summary["pipeline"]["phase_median"] == {"tune_s": 3.25, "run_s": 1.125}
    assert (summary["pipeline"]["correct"], summary["pipeline"]["failed"]) == (False, 1)
    assert summary["pipeline"]["attempted"] == 20

    path = tmp_path / "BENCH_x.json"
    environment = {"cpu_model": "cpu", "nproc": 2, "python": "3", "numpy": "2",
                   "seconds": 20.0, "seeds": [1, 2, 3]}
    bench_pair.write_bench(path, "x", "abc123", summary, environment)
    written = json.loads(path.read_text())
    assert written == {"label": "x", "revision": "abc123", **environment, "workloads": summary}


def committed_repo(repo, files):
    """A new git repository at ``repo`` with one commit of ``files``, bodies by path."""
    for name, body in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(body)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)


def test_bench_pair_exports_the_working_tree_without_untracked_files(tmp_path):
    """This tree runs from a copy, as the parent does: tracked files with
    their uncommitted edits, no untracked file, no deleted file."""
    bench_pair = load_script("bench_pair")
    repo = tmp_path / "repo"
    committed_repo(repo, {name: "committed\n" for name in ("src/a.py", "b.txt", "gone.txt")})
    (repo / "src" / "a.py").write_text("edited\n")
    (repo / "gone.txt").unlink()
    (repo / "untracked.txt").write_text("new\n")
    bench_pair.export_worktree(str(repo), str(tmp_path / "out"))
    exported = sorted(p.relative_to(tmp_path / "out").as_posix()
                      for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert exported == ["b.txt", "src/a.py"]
    assert (tmp_path / "out" / "src" / "a.py").read_text() == "edited\n"


def test_parity_pair_finds_the_first_difference(tmp_path):
    parity_pair = load_script("parity_pair")
    report = '{\n  "checks": [\n    {\n      "name": "a",\n      "seconds": %s\n    }\n  ]\n}\n'
    for side, seconds in (("left", "1.5"), ("right", "2.25")):
        (tmp_path / side / "runs").mkdir(parents=True)
        (tmp_path / side / "runs" / "history.csv").write_text("iteration,loss\n1,0.5\n")
        (tmp_path / side / "verify.json").write_text(report % seconds)
    left, right = str(tmp_path / "left"), str(tmp_path / "right")
    assert parity_pair.first_difference(left, right) is None

    (tmp_path / "right" / "runs" / "history.csv").write_text("iteration,loss\n1,0.50000001\n")
    assert parity_pair.first_difference(left, right) == \
        "runs/history.csv: line 2: '1,0.5' != '1,0.50000001'"
    (tmp_path / "right" / "runs" / "history.csv").write_text("iteration,loss\n1,0.5\n2,0.4\n")
    assert parity_pair.first_difference(left, right) == \
        "runs/history.csv: line 3: '' != '2,0.4'"
    (tmp_path / "right" / "runs" / "history.csv").write_text("iteration,loss\n1,0.5\n")

    (tmp_path / "right" / "verify.json").write_text((report % "2.25").replace('"a"', '"b"'))
    assert parity_pair.first_difference(left, right).startswith("verify.json: line 4:")
    (tmp_path / "right" / "verify.json").write_text(report % "2.25")

    (tmp_path / "right" / "results.csv").write_text("x\n")
    assert parity_pair.first_difference(left, right) == "results.csv: only on the right side"

    (tmp_path / "left" / "src" / "hierdro").mkdir(parents=True)
    for name, body in (("a.py", "x = 1\ny = 2\n"), ("b.py", "z = 3\n"), ("c.txt", "no\n")):
        (tmp_path / "left" / "src" / "hierdro" / name).write_text(body)
    assert parity_pair.source_lines(left) == 3
    assert parity_pair.source_lines(right) == 0


def test_parity_pair_runs_and_counts_the_tracked_files_of_this_tree(tmp_path):
    """Each side runs from a copy: the parent's committed files, and this
    tree's tracked files with their uncommitted edits.  An untracked module
    is in neither, so it neither runs nor counts toward ``N -> M lines``."""
    parity_pair = load_script("parity_pair")
    repo = tmp_path / "repo"
    committed_repo(repo, {"src/hierdro/a.py": "x = 1\n"})
    (repo / "src" / "hierdro" / "a.py").write_text("x = 1\ny = 2\n")
    (repo / "src" / "hierdro" / "new.py").write_text("z = 3\n" * 5)
    trees = parity_pair.export_sides(str(repo), str(tmp_path), "HEAD")
    assert parity_pair.source_lines(trees["parent"]) == 1
    assert parity_pair.source_lines(trees["tree"]) == 2
    assert sorted(os.listdir(os.path.join(trees["tree"], "src", "hierdro"))) == ["a.py"]
    assert parity_pair.source_lines(str(repo)) == 7
    assert list(parity_pair.export_sides(str(repo), str(tmp_path / "alone"), None)) == ["tree"]


def test_parity_pair_kernel_report_gives_each_differing_files_largest_differences(
        tmp_path):
    parity_pair = load_script("parity_pair")
    files = {
        "results.csv": ("eps,acc\n0.5,0.25\n", "eps,acc\n0.5,0.25\n"),
        "run/checkpoint_hierarchical_seed1.json": ('{"w": [1.0, -2e-3]}', '{"w": [1.0, -2.000001e-3]}'),
        "run/history.csv": ("1,0.5,inf\n", "1,0.5,nan\n"),
        "study.txt": ("gap     0.25\nresidual 0.0\n", "gap    0.250001\nresidual 2e-16\n"),
        "verify.json": ('{\n  "seconds": 1.5,\n  "x": 2\n}', '{\n  "seconds": 9,\n  "x": 2\n}'),
        "notes.txt": ("a 1\n", "b 1\n"),
    }
    for side in (0, 1):
        for rel, bodies in files.items():
            path = tmp_path / str(side) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(bodies[side])
    (tmp_path / "1" / "extra.csv").write_text("x\n")
    identical, differing = parity_pair.kernel_report(str(tmp_path / "0"), str(tmp_path / "1"))
    assert identical == ["results.csv", "verify.json"]
    assert list(differing.items()) == [
        ("extra.csv", "only on one side"),
        ("notes.txt", "differs beyond its numbers"),
        ("run/checkpoint_hierarchical_seed1.json",
         "largest difference 5e-07 relative, 1e-09 absolute"),
        ("run/history.csv", "largest difference inf relative, inf absolute"),
        ("study.txt", "largest difference 1 relative, 1e-06 absolute"),
    ]
    for rel in ("run/checkpoint_hierarchical_seed1.json", "verify.json",
                "convergence_study.txt"):
        assert parity_pair.KERNEL_DEPENDENT.search(rel)
    for rel in ("run/history.csv", "results.csv", "run/verify.json.csv"):
        assert not parity_pair.KERNEL_DEPENDENT.search(rel)
    env = parity_pair.side_env(str(tmp_path), "Prescott")
    assert env["OPENBLAS_CORETYPE"] == "Prescott" and "HIERDRO_OUT" not in env
    assert "OPENBLAS_CORETYPE" not in parity_pair.side_env(str(tmp_path), None)
    with pytest.raises(SystemExit):
        parity_pair.parse_args([])


def test_parity_pair_csv_pipeline_reads_the_files_of_the_test_cli_pipeline(tmp_path, monkeypatch):
    """The ``dataset.csv`` config runs after ``test_cli`` and names that run's
    files relative to the working directory, so each side reads its own."""
    parity_pair = load_script("parity_pair")
    paths = parity_pair.configs(str(tmp_path))
    assert list(paths).index("test_cli") < list(paths).index("test_cli_csv")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--config", paths["test_cli"],
                     "--output-dir", "test_cli"]) == 0
    config = cli.load_config(paths["test_cli_csv"])
    read = cli._load_datasets(config)
    written = cli._load_datasets(cli.load_config(paths["test_cli"]))
    for split in cli.SPLITS:
        np.testing.assert_array_equal(read[split].features, written[split].features)
        np.testing.assert_array_equal(read[split].group_of, written[split].group_of)


def test_step_table_times_every_layout_and_finds_this_tree_bitwise_its_own_copy():
    """step_table.py with this tree's own ``src`` as the parent, imported
    under another package name, on a tiny run: one table row per layout,
    each with both sides' times and marked bitwise."""
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    proc = run_script("step_table.py", "--parent-src", src, "--steps", "3", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("|")[1:-1] for line in proc.stdout.splitlines()
            if line.startswith("| ") and not line.startswith("| layout")]
    names = [row[0].strip() for row in rows]
    assert len(names) == 15 and len(set(names)) == 15
    assert sum(name.startswith("canonical") for name in names) == 3
    assert sum(name.startswith("benchmark") for name in names) == 7
    assert sum(name.endswith("empirical sampling") for name in names) == 1
    assert [int(row[1]) for row in rows].count(1) == 10
    assert sorted(int(row[1]) for row in rows)[10:] == [4, 8, 8, 15, 15]
    for row in rows:
        assert float(row[2]) > 0 and float(row[3]) > 0
        assert row[5].strip() == "yes"
