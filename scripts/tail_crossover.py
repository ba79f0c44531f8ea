#!/usr/bin/env python3
"""Terms and time per call of the Robin family's two remainder routes.

For every (evaluator, n, a, r) the mode series and the image route (the
first M remainder modes, then rows of images) are timed on the same call,
at mid-gap and in both boundary layers (1e-3 of the gap from each sphere).
The table is what fixes green._HEAD_MODES (M) and green._SWITCH_MODES (T):
the image route is taken where abs_tol < a^(2T).  That gate was set when the
remainder's modes shrank by a^2; with the first image layer in the closed
part they shrink by a^4, so the mode series meets it after about T/2 modes,
and the image rows start at j = 2.  Each route is forced by setting T for
the duration of the call, so both columns time the public evaluators as they
run.

Example:
    python scripts/tail_crossover.py --n 3 6 --a 0.5 0.9 0.99 --head 16 24 32
"""

import argparse
import sys
import time

from annulus_green import (
    AnnulusGeometry,
    TruncationPolicy,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)
from annulus_green import green

SPATIAL = {
    "robin_eval": robin_eval,
    "robin_radial_gradient": robin_radial_gradient,
    "robin_radial_gradient_derivative": robin_radial_gradient_derivative,
}
PLANAR = {"robin2d_first": robin2d_first, "robin2d_second": robin2d_second}
POSITIONS = {"inner": 1e-3, "mid": 0.5, "outer": 1.0 - 1e-3}


def timed(call, repeat: int) -> tuple[int, float]:
    """(terms used, best microseconds per call over ``repeat`` calls)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = call()
        best = min(best, time.perf_counter() - t0)
    return res.terms_used, 1e6 * best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3, 4, 6])
    ap.add_argument(
        "--a", type=float, nargs="+", default=[0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 0.9999]
    )
    ap.add_argument("--head", type=int, nargs="+", default=[green._HEAD_MODES], help="M values")
    ap.add_argument("--tol", type=float, default=1e-10, help="abs_tol of the policy")
    ap.add_argument("--repeat", type=int, default=3, help="calls per timing; the best is kept")
    args = ap.parse_args()

    policy = TruncationPolicy(abs_tol=args.tol)
    head, switch = green._HEAD_MODES, green._SWITCH_MODES
    print("evaluator,n,a,r,M,mode_terms,mode_us,image_terms,image_us")
    try:
        for n in args.n:
            evaluators = PLANAR if n == 2 else SPATIAL
            for a in args.a:
                first = a if n == 2 else AnnulusGeometry(n, a)
                for name, fn in evaluators.items():
                    for where, frac in POSITIONS.items():
                        r = a + frac * (1.0 - a)
                        call = lambda: fn(first, r, policy)  # noqa: E731
                        green._SWITCH_MODES = 10**9
                        mode = timed(call, args.repeat)
                        green._SWITCH_MODES = 0
                        for m in args.head:
                            green._HEAD_MODES = m
                            image = timed(call, args.repeat)
                            print(
                                f"{name},{n},{a!r},{where},{m},"
                                f"{mode[0]},{mode[1]:.0f},{image[0]},{image[1]:.0f}",
                                flush=True,
                            )
    finally:
        green._HEAD_MODES, green._SWITCH_MODES = head, switch
    return 0


if __name__ == "__main__":
    sys.exit(main())
