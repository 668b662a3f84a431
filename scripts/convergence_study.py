#!/usr/bin/env python3
"""Rate study on the canonical convex instance.

Trains the hierarchical solver once to the largest horizon, then prints the
duality gap of the averaged iterate at each horizon next to the
measured-constant error bound ``2 m sqrt(10 (B_theta^2 B_grad^2 + B_loss^2 log m) / T)``.
The gap should contract by at least 4x every 4x horizon increase and stay
under the bound.
"""

import argparse
import sys

from hierdro import convergence


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[20_000, 80_000, 320_000])
    parser.add_argument("--reference-iterations", type=int,
                        default=convergence.REFERENCE_ITERATIONS)
    args = parser.parse_args()

    ds, config = convergence.canonical_instance()
    print(f"instance: n={ds.n}, groups={ds.n_g.tolist()}, radius parameter "
          f"{config.epsilon:.3f}", flush=True)
    print(f"solving reference ({args.reference_iterations} subgradient steps)...",
          flush=True)
    reference = convergence.reference_optimum(
        ds, config.effective_epsilon, iterations=args.reference_iterations)
    print(f"reference min-max value: {reference.value:.6f} "
          f"(tolerance {reference.tolerance})")

    report = convergence.rate_study(ds, config, args.horizons, reference)
    print(f"{'horizon':>9} {'gap':>10} {'bound':>10} {'B_theta':>8} {'B_grad':>8} {'B_loss':>8}")
    for h, gap, bound, consts in zip(report.horizons, report.gaps,
                                     report.bounds, report.constants):
        print(f"{h:>9} {gap:>10.5f} {bound:>10.4f} "
              f"{consts.b_theta:>8.3f} {consts.b_grad:>8.3f} {consts.b_loss:>8.3f}")
    for i in range(1, len(report.horizons)):
        ratio = report.gaps[i] / report.gaps[i - 1]
        print(f"gap({report.horizons[i]}) / gap({report.horizons[i-1]}) = {ratio:.3f}")
    ok = all(g <= b for g, b in zip(report.gaps, report.bounds))
    print(f"gaps within bounds: {ok}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
