#!/usr/bin/env python3
"""End-to-end benchmark: generate data, tune the radius, train all modes, report.

Equivalent to:

    hierdro generate --config configs/benchmark.json
    hierdro tune     --config configs/benchmark.json
    hierdro run      --config configs/benchmark.json --tuned-epsilon-from <tune_result>
    hierdro report   --results <results.csv>

Takes about half a minute (30-37 s over three runs) on a 2-vCPU Intel Xeon
(Python 3.11, numpy 2.4).
"""

import argparse
import os
import sys

from hierdro import cli

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "benchmark.json")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args()

    config = cli.load_config(args.config)
    out = cli.resolve_output_dir(config, args.output_dir)
    for step in (
        ["generate", "--config", args.config, "--output-dir", out],
        ["tune", "--config", args.config, "--output-dir", out],
        ["run", "--config", args.config, "--output-dir", out,
         "--tuned-epsilon-from", os.path.join(out, "tune_result.json")],
        ["report", "--results", os.path.join(out, "results.csv")],
    ):
        print(f"$ hierdro {' '.join(step)}", flush=True)
        code = cli.main(step)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
