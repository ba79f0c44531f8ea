#!/usr/bin/env python3
"""Nanoseconds per series term and terms per call of the table-backed evaluators.

Every evaluator whose series reads a mode table (specfun._mode_table: the
Gegenbauer tables of the generating series and of both Green routes, and the
Robin-family tables) is called at a mid-gap radius and at a boundary-layer
radius, 1e-3 of the gap from the sphere its series converges slowest
toward; the split remainders of green_eval and the Robin family shrink by
a^4 per mode there as mid-gap, the others far more slowly next to their
poles.  For each call the script prints terms_used and the time per term,
cold (every mode table cleared just before the call) and warm (the median of
``--repeat`` calls with the tables filled).  Term counts sit next to the
times, so an algorithmic change shows even where timings are noisy.

Point-pair evaluators take x = r e1 and a second point at a quarter of the
gap at angle 1 rad; the Newtonian expansions take their series variable at
r (newtonian_series_inner its source on the inner sphere, so its layer lies
next to a); gegenbauer_generating_sum runs at lam = (n - 2)/2, t = 0.3 and
its variable q = r.  newtonian_series_outer and gegenbauer_generating_sum
also run with their series variable at 0.98 and 0.99 (the rows q0.98 and
q0.99): series of 1 000 to 4 000 terms for n = 3 and 4, which read up to
1 024 stored rows of their table and build the rest.

A second table times the grid twins that export-grid runs, on its default
window of radii: robin_eval_grid, robin_radial_gradient_grid,
robin2d_eval_grid and robin2d_first_grid over 200 radii standing off both
spheres by 1e-3 of the gap, and grid._green_slice over 200 radii from wall
to wall, with the point-pair evaluators' second point as its source.  For
each it prints the mean terms_used per row and the median over ``--repeat``
warm calls of the time per row, in microseconds.

A third table lists the store that one more call of each evaluator and
grid twin above leaves, the store emptied first: each cached shape, as its
row builder and arguments, and the number of rows it holds (a source tree
whose tables are not kept in specfun._TABLES lists none).

Example:
    python scripts/mode_cost.py --n 3 --a 0.5 --repeat 51
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
GRID_ROWS = 200  # radii per grid call, as the benchmark's export-grid requests


def _calls(ag, n: int, a: float):
    """(evaluator, call, {label: r}) per table-backed evaluator."""
    geom, pol = ag.AnnulusGeometry(n, a), ag.TruncationPolicy()
    gap = 1.0 - a
    mid, outer, inner = a + 0.5 * gap, 1.0 - 1e-3 * gap, a + 1e-3 * gap
    s = a + 0.25 * gap

    def point(radius, angle=0.0):
        x = [0.0] * n
        x[0], x[1] = radius * math.cos(angle), radius * math.sin(angle)
        return x

    e1 = point(1.0)
    spatial = {
        "newtonian_series_outer": lambda r: ag.newtonian_series_outer(geom, e1, point(r, 1.0), pol),
        "newtonian_series_inner": lambda r: ag.newtonian_series_inner(geom, e1, point(r, 1.0), pol),
        "newtonian_series_exterior": (
            lambda r: ag.newtonian_series_exterior(geom, point(1.0), point(r, 1.0), pol)
        ),
        "gegenbauer_generating_sum": (
            lambda r: ag.gegenbauer_generating_sum(0.5 * (n - 2), 0.3, r, pol)
        ),
        "green_eval": lambda r: ag.green_eval(geom, point(r), point(s, 1.0), pol),
        "green_piecewise_eval": (
            lambda r: ag.green_piecewise_eval(geom, point(r), point(s, 1.0), pol)
        ),
        "robin_eval": lambda r: ag.robin_eval(geom, r, pol),
        "robin_radial_gradient": lambda r: ag.robin_radial_gradient(geom, r, pol),
        "robin_radial_gradient_derivative": (
            lambda r: ag.robin_radial_gradient_derivative(geom, r, pol)
        ),
    }
    planar = {
        "robin2d_eval": lambda r: ag.robin2d_eval(a, r, pol),
        "robin2d_first": lambda r: ag.robin2d_first(a, r, pol),
        "robin2d_second": lambda r: ag.robin2d_second(a, r, pol),
    }
    deep = {"q0.98": 0.98, "q0.99": 0.99}
    for name, call in {**spatial, **planar}.items():
        layer = inner if name == "newtonian_series_inner" else outer
        radii = {"mid": mid, "layer": layer}
        if name in ("newtonian_series_outer", "gegenbauer_generating_sum"):
            radii.update(deep)
        yield name, call, radii


def _grid_calls(ag, n: int, a: float):
    """(grid evaluator, call, radii) for export-grid's default windows."""
    from annulus_green import grid

    geom, pol, gap = ag.AnnulusGeometry(n, a), ag.TruncationPolicy(), 1.0 - a
    window = np.linspace(a + 1e-3 * gap, 1.0 - 1e-3 * gap, GRID_ROWS)
    s = a + 0.25 * gap
    y = [s * math.cos(1.0), s * math.sin(1.0)] + [0.0] * (n - 2)
    for name in ("robin_eval_grid", "robin_radial_gradient_grid"):
        yield name, lambda r, f=getattr(ag, name): f(geom, r, pol), window
    for name in ("robin2d_eval_grid", "robin2d_first_grid"):
        yield name, lambda r, f=getattr(ag, name): f(a, r, pol), window
    wall_to_wall = np.linspace(a, 1.0, GRID_ROWS)
    yield "_green_slice", lambda r: grid._green_slice(geom, r, y, pol)[1], wall_to_wall


def _timed(call, r, clear) -> tuple[int, float]:
    """(terms used, ns per term) of one call, after ``clear()``."""
    clear()
    t0 = time.perf_counter_ns()
    res = call(r)
    return res.terms_used, (time.perf_counter_ns() - t0) / res.terms_used


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", type=Path, default=SRC, help="source tree holding annulus_green")
    ap.add_argument("--n", type=int, default=3, help="dimension of the spatial evaluators")
    ap.add_argument("--a", type=float, default=0.5, help="inner radius")
    ap.add_argument("--repeat", type=int, default=21, help="calls per timing")
    args = ap.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import annulus_green as ag
    from annulus_green import specfun

    # the mode tables' store: _TABLES, or the cache of _stored_rows or of
    # _mode_table in an older source tree; a source tree without mode tables
    # times every call as warm
    if hasattr(specfun, "_TABLES"):
        store, clear = specfun._TABLES, specfun._TABLES.clear
    else:
        cache = getattr(specfun, "_stored_rows", None) or getattr(specfun, "_mode_table", None)
        store, clear = {}, getattr(cache, "cache_clear", lambda: None)
    print(f"{'evaluator':<34} {'radius':<6} {'r':>8} {'terms':>6} {'cold_ns':>9} {'warm_ns':>9}")
    for name, call, radii in _calls(ag, args.n, args.a):
        for label, r in radii.items():
            cold = [_timed(call, r, clear) for _ in range(args.repeat)]
            call(r)
            warm = [_timed(call, r, lambda: None) for _ in range(args.repeat)]
            terms = warm[0][0]
            assert all(t == terms for t, _ in cold + warm), f"{name}: terms_used varies"
            cold_ns = statistics.median(ns for _, ns in cold)
            warm_ns = statistics.median(ns for _, ns in warm)
            print(f"{name:<34} {label:<6} {r:>8.6g} {terms:>6} {cold_ns:>9.1f} {warm_ns:>9.1f}")
    print(f"{'grid_evaluator':<34} {'rows':>6} {'terms_per_row':>13} {'us_per_row':>10}")
    for name, call, radii in _grid_calls(ag, args.n, args.a):
        terms = float(np.mean(call(radii).terms_used))
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter_ns()
            call(radii)
            times.append((time.perf_counter_ns() - t0) / 1e3 / radii.size)
        print(f"{name:<34} {radii.size:>6} {terms:>13.2f} {statistics.median(times):>10.2f}")
    clear()
    for _, call, radii in _calls(ag, args.n, args.a):
        for r in radii.values():
            call(r)
    for _, call, radii in _grid_calls(ag, args.n, args.a):
        call(radii)
    print(f"{'mode_table':<34} {'rows':>6}  shape")
    for (build, *shape), rows in store.items():
        print(f"{build.__name__:<34} {len(rows):>6}  {', '.join(map(str, shape))}")
    clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
