#!/usr/bin/env python3
"""Benchmark of hierdro: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload {pipeline,train,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  A run sets up once in this
process and eight more times in child interpreters, then repeats whole
rounds of the workload until ``--seconds`` have passed.  Every time is in
reference seconds (see ``meter.py``): wall time corrected by the machine's
speed, sampled while the program runs.  ``--trace 0`` reports the
end-to-end metrics: ``setup_s``, the median of the nine set-ups;
``round_s``, the median over rounds of one round's operations; and
``peak_rss_mb``, through set-up and the first round (how many rounds fit in
a run varies with the machine's speed, and a second verify round adds
several MB).  ``--trace 1`` wraps the package's functions and reports
the per-layer metrics instead, writing the spans to ``.perfbench_out/``.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

import time

START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

# One process, one BLAS thread: per-step arrays are 64 x 10.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "train", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark modules against this checkout's ``src/`` only."""
    required = (os.path.join(SRC, "hierdro", "__init__.py"),
                os.path.join(ROOT, "configs", "benchmark.json"))
    missing = [path for path in required if not os.path.isfile(path)]
    if missing:
        raise SystemExit(f"perfbench: not a hierdro checkout, missing {missing}")
    sys.path.insert(0, SRC)
    import hierdro
    if os.path.dirname(os.path.dirname(os.path.abspath(hierdro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported hierdro from {hierdro.__file__}, not {SRC}")
    import workloads
    return workloads


def setup_probe(args, meter) -> float:
    """One set-up in a child interpreter, in reference seconds: its wall time
    times the machine's speed sampled just before and just after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    meter.sample()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    meter.sample()
    n = len(meter.samples)
    return float(done.stdout.split()[-1]) * meter.speed(n - 2, n - 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall = time.perf_counter() - START
    if args.setup_probe:
        workload.close()
        print(repr(setup_wall))
        return 0
    from meter import Meter
    meter = Meter()
    meter.sample()
    setup_samples = [setup_wall * meter.speed(0, 0)]
    setup_samples += [setup_probe(args, meter) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer
        tracer = Tracer(clock=meter.clock)
        layers.install(tracer)

    rounds = []
    meter.start()
    start = time.perf_counter()
    try:
        while True:
            rounds.append(workload.run_round(meter))
            if len(rounds) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        meter.stop()
        workload.close()

    problems = [p for r in rounds for p in r.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    round_wall_s = statistics.median(r.wall_s for r in rounds)
    print(f"{len(rounds)} rounds, median wall {round_wall_s:.4f} s, reference loop median "
          f"{statistics.median(meter.samples) * 1e3:.3f} ms over {len(meter.samples)} samples",
          file=sys.stderr)
    phases = {}
    for workload_cls in workloads.WORKLOADS.values():
        for name, unit in workload_cls.phases.items():
            values = [r.phases[name] for r in rounds if name in r.phases]
            phases[name] = (statistics.median(values) if values else 0.0, unit)
    print("phases: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in phases.items()
                                 if name in workload.phases), file=sys.stderr)
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "round_s": (statistics.median(r.seconds for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    metrics = end_to_end
    if tracer is not None:
        metrics = {**phases, **layers.layer_metrics(tracer, len(rounds))}
        ascent = layers.ascent_totals(tracer)
        if ascent["violations"]:
            problems.append(f"{ascent['violations']} ascent endpoints left the ball or lowered the loss")
            print(f"check failed: {problems[-1]}", file=sys.stderr)
        os.makedirs(workloads.OUT_ROOT, exist_ok=True)
        path = os.path.join(workloads.OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {
            "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
            "round_wall_s": round_wall_s, "reference_loop_s": meter.samples,
            "trajectories": [e for r in rounds for e in r.extra],
        })
        print(f"trace written to {path}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
