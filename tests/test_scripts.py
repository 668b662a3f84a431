"""Smoke test: each script in scripts/ runs to exit 0 on a tiny horizon."""

import json
import os
import subprocess
import sys

import pytest

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


def test_run_benchmark_script_runs(tmp_path):
    cfg = write_config(tmp_path, base_config(tmp_path))
    proc = run_script("run_benchmark.py", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert "Hierarchical" in proc.stdout
    assert json.loads((tmp_path / "out" / "tune_result.json").read_text())["chosen_epsilon"] > 0
