#!/usr/bin/env python3
"""Terms and time per call of the Robin family's two remainder routes.

For every (evaluator, n, a, r, rel) the mode series and the image route (the
first M remainder modes, then rows of images) are timed on the same call,
at mid-gap and in both boundary layers (1e-3 of the gap from each sphere),
under a policy with abs_tol --tol and rel_tol rel (each of --rel).  The
table is what fixes green._HEAD_MODES (M), green._SWITCH_MODES (T) and
green._RELATIVE_MODES (N).  abs_tol sends a remainder to the image route
where abs_tol < a^(2T).  That gate was set when the remainder's modes shrank
by a^2; with the first image layer in the closed part they shrink by a^4,
so the mode series meets it after about T/2 modes, and the image rows start
at j = 2.  At one radius a relative target takes a gated remainder back to
the mode series where a bound on that series' tail after N modes meets
rel |closed part| (see green._relaxed_modes), so that the mode series
runs where its ``mode_terms`` stay below the count at which ``mode_us``
reaches ``image_us``; the ``route`` column says which route the evaluator
takes unforced.  Each route is forced by setting T (and N = 0 for the image
route) for the duration of the call, so both timed columns time the public
evaluators as they run.

Examples:
    python scripts/tail_crossover.py --n 3 6 --a 0.5 0.9 0.99 --head 16 24 32
    python scripts/tail_crossover.py --tol 5e-14 --rel 0.05 1e-3 1e-6 \
        --n 2 3 4 5 6 --a 0.8 0.85 0.9 0.93 0.95
"""

import argparse
import itertools
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


def timed(call, repeat: int) -> tuple[int, float, object]:
    """(terms used, best microseconds per call over ``repeat`` calls, result)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        res = call()
        best = min(best, time.perf_counter() - t0)
    return res.terms_used, 1e6 * best, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[2, 3, 4, 6])
    ap.add_argument(
        "--a", type=float, nargs="+", default=[0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99, 0.999, 0.9999]
    )
    ap.add_argument("--head", type=int, nargs="+", default=[green._HEAD_MODES], help="M values")
    ap.add_argument("--tol", type=float, default=1e-10, help="abs_tol of the policy")
    ap.add_argument("--rel", type=float, nargs="+", default=[0.0], help="rel_tol values")
    ap.add_argument("--repeat", type=int, default=3, help="calls per timing; the best is kept")
    args = ap.parse_args()

    saved = green._HEAD_MODES, green._SWITCH_MODES, green._RELATIVE_MODES
    print("evaluator,n,a,r,rel,M,mode_terms,mode_us,image_terms,image_us,route")
    try:
        for rel, n in itertools.product(args.rel, args.n):
            policy = TruncationPolicy(abs_tol=args.tol, rel_tol=rel)
            evaluators = PLANAR if n == 2 else SPATIAL
            for a in args.a:
                first = a if n == 2 else AnnulusGeometry(n, a)
                for name, fn in evaluators.items():
                    for where, frac in POSITIONS.items():
                        r = a + frac * (1.0 - a)
                        call = lambda: fn(first, r, policy)  # noqa: E731
                        taken = call()
                        green._SWITCH_MODES = 10**9
                        mode = timed(call, args.repeat)
                        route = "modes" if taken == mode[2] else "images"
                        green._SWITCH_MODES, green._RELATIVE_MODES = 0, 0
                        for m in args.head:
                            green._HEAD_MODES = m
                            image = timed(call, args.repeat)
                            print(
                                f"{name},{n},{a!r},{where},{rel!r},{m},"
                                f"{mode[0]},{mode[1]:.0f},{image[0]},{image[1]:.0f},{route}",
                                flush=True,
                            )
                        green._HEAD_MODES, green._SWITCH_MODES, green._RELATIVE_MODES = saved
    finally:
        green._HEAD_MODES, green._SWITCH_MODES, green._RELATIVE_MODES = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
