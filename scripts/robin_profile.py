#!/usr/bin/env python3
"""Sweep the Robin function and its radial gradient over the annulus gap,
locate the critical radius, and write the profile to CSV for plotting.

Example:
    python scripts/robin_profile.py --n 3 --a 0.5 --points 400 --out robin_n3.csv
"""

import argparse
import csv
import sys

import numpy as np

from annulus_green import AnnulusGeometry, TruncationPolicy, find_critical_point
from annulus_green.green import _radial


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--a", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--margin", type=float, default=5e-3, help="standoff fraction of the gap")
    ap.add_argument("--out", default="robin_profile.csv")
    args = ap.parse_args()

    geom = AnnulusGeometry(args.n, args.a)
    policy = TruncationPolicy(abs_tol=1e-11, max_terms=300_000)
    span = 1.0 - args.a
    lo = args.a + args.margin * span
    hi = 1.0 - args.margin * span

    report = find_critical_point(geom, policy, solver_tol=1e-12)
    kind = "minimum" if report.is_radial_minimum else "maximum"
    print(f"critical radius r0 = {report.r0:.12f} ({kind}), residual {report.residual:.2e}")
    print(f"second derivative {report.second_derivative:.6f} "
          f"+- {report.second_derivative_uncertainty:.2e}")

    radii = lo + (hi - lo) * np.arange(args.points) / (args.points - 1)
    family = _radial(geom)
    val = family.value_grid(radii, policy)
    # r R'(r) in every dimension: the solved gradient times r / d(r)
    grad = family.gradient_grid(radii, policy).scaled(radii / family.d(radii))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r", "robin", "robin_tail", "radial_gradient", "gradient_tail"])
        for i, r in enumerate(radii.tolist()):
            writer.writerow(
                [f"{r:.17g}", f"{val.value[i]:.17g}", f"{val.tail_bound[i]:.3e}",
                 f"{grad.value[i]:.17g}", f"{grad.tail_bound[i]:.3e}"]
            )
    print(f"wrote {args.points} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
