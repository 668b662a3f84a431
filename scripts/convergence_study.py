#!/usr/bin/env python3
"""Rate study on the canonical convex instance.

Brackets the reference min-max value, trains the hierarchical solver once to
the largest horizon, then prints the duality gap of the averaged iterate at
each horizon next to the measured-constant error bound
``2 m sqrt(10 (B_theta^2 B_grad^2 + B_loss^2 log m) / T)``.  The criteria are
those of ``hierdro verify --level full`` (``verification.rate_criteria``):
each gap at most 0.75 times the one before it, under its bound and above
minus the bracket's width, which must be at most 1e-4.  The exit code is 0
when all hold, 2 when one fails and 1 on a bad argument, such as a horizon
below 1, given twice or not a multiple of the instance's checkpoint interval
(20 000), which is refused before any training step.  The reference value
and the gaps are printed with ``repr``, every bit of them, so that two
trees' outputs can be compared byte for byte (``scripts/parity_pair.py``).
"""

import argparse
import sys

from hierdro import convergence, verification
from hierdro.errors import ParameterError, UnsupportedDiagnosticError


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--horizons", type=int, nargs="+",
                        default=[20_000, 80_000, 320_000])
    parser.add_argument("--reference-iterations", type=int,
                        default=convergence.REFERENCE_ITERATIONS,
                        help="the cap on the reference solve's dual rounds")
    args = parser.parse_args()

    ds, config = convergence.canonical_instance()
    print(f"instance: n={ds.n}, groups={ds.n_g.tolist()}, radius parameter "
          f"{config.epsilon:.3f}", flush=True)
    try:
        reference = convergence.reference_optimum(
            ds, config.effective_epsilon, iterations=args.reference_iterations)
    except ParameterError as exc:
        sys.exit(f"error: {exc}")
    print(f"reference min-max value: {reference.upper!r}")

    try:
        report = convergence.rate_study(ds, config, args.horizons, reference)
    except UnsupportedDiagnosticError as exc:
        sys.exit(f"error: {exc}")
    print(f"{'horizon':>9} {'gap':>24} {'bound':>10} {'B_theta':>8} {'B_grad':>8} {'B_loss':>8}")
    for h, gap, bound, consts in zip(report.horizons, report.gaps,
                                     report.bounds, report.constants):
        print(f"{h:>9} {gap!r:>24} {bound:>10.4f} "
              f"{consts.b_theta:>8.3f} {consts.b_grad:>8.3f} {consts.b_loss:>8.3f}")
    print(f"reference bracket: [{reference.lower!r}, {reference.upper!r}], width "
          f"{reference.width:.2e} after {reference.rounds} dual rounds")
    ratios, verdicts = verification.rate_criteria(report.gaps, report.bounds, reference.width)
    for i, ratio in enumerate(ratios):
        print(f"gap({report.horizons[i + 1]}) / gap({report.horizons[i]}) = {ratio:.3f}")
    for name, holds in verdicts.items():
        print(f"{name}: {holds}")
    return 0 if all(verdicts.values()) else 2


if __name__ == "__main__":
    sys.exit(main())
