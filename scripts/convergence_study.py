#!/usr/bin/env python3
"""Rate study on the canonical convex instance: the rate check of
``hierdro verify --level full`` (``verification.check_convergence_rate``),
printed from its details.

The check brackets the reference min-max value and trains the hierarchical
solver once to the largest horizon; this prints the duality gap of the
averaged iterate at each horizon next to the measured-constant error bound
``2 m sqrt(10 (B_theta^2 B_grad^2 + B_loss^2 log m) / T)``, and the verdict
of each criterion of ``verification.rate_criteria``:
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
        check = verification.check_convergence_rate(
            args.horizons, reference_iterations=args.reference_iterations)
    except (ParameterError, UnsupportedDiagnosticError) as exc:
        sys.exit(f"error: {exc}")
    d = check.details
    print(f"reference min-max value: {d['reference_value']!r}")
    print(f"{'horizon':>9} {'gap':>24} {'bound':>10} {'B_theta':>8} {'B_grad':>8} {'B_loss':>8}")
    for h, gap, bound, consts in zip(d["horizons"], d["gaps"], d["bounds"],
                                     d["bound_constants"]):
        print(f"{h:>9} {gap!r:>24} {bound:>10.4f} "
              f"{consts['b_theta']:>8.3f} {consts['b_grad']:>8.3f} {consts['b_loss']:>8.3f}")
    print(f"reference bracket: [{d['reference_lower']!r}, {d['reference_value']!r}], width "
          f"{d['reference_width']:.2e} after {d['reference_rounds']} dual rounds")
    for i, ratio in enumerate(d["ratios"]):
        print(f"gap({d['horizons'][i + 1]}) / gap({d['horizons'][i]}) = {ratio:.3f}")
    for name, holds in d["criteria"].items():
        print(f"{name}: {holds}")
    return 0 if check.passed else 2


if __name__ == "__main__":
    sys.exit(main())
