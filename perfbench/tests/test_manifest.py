"""Every run reports exactly the metrics BENCHMARK.json names, in its units."""

import json
import os

import layers
from spans import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    MANIFEST = json.load(fh)


def test_untraced_run_reports_the_end_to_end_metrics():
    # run.py builds these three; a workload adds none of its own.
    assert [m["name"] for m in MANIFEST["end_to_end"]] == ["setup_s", "round_s", "peak_rss_mb"]


def test_traced_run_reports_every_per_layer_metric_on_any_workload():
    # An empty trace stands for a workload that calls none of the functions:
    # every metric is still reported, as 0.
    reported = {name: unit for name, (_, unit) in layers.layer_metrics(Tracer(), 1).items()}
    for workload in WORKLOADS.values():
        reported.update(workload.phases)
    assert reported == {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
