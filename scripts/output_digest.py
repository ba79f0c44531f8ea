#!/usr/bin/env python3
"""SHA-256 digests of the evaluators' outputs over a seeded draw.

Imports annulus_green from the source tree ``--src``, evaluates each group of
evaluators below over a seeded draw of geometries, radii and policies, and
prints one SHA-256 per group over the exact outputs: value, tail_bound,
terms_used and converged of every result, every field of every
CriticalPointReport, and the type and message of every error.  Two source
trees that print the same digests give bit-identical outputs on the draw, so
running the script on a change and on its parent checks a refactor that
should change no number.  The "critical_values" group digests the same
reports without ``evaluations`` and ``phases``: a change to the solver's
search that moves no reported value leaves it equal while "critical" moves.

The draw takes n in {2..6, 9, 20}; a uniform in [0.05, 0.95] or 1 - a
log-uniform down to 1e-4, where the deep modes are summed as images; radii
1e-6 of the gap from either sphere and one in between; and the default
policy beside one with rel_tol 0.05.  The "errors" group adds the typed
errors at n = 456 (where omega underflows), in the plane for the spatial
evaluators, at r = 0 and where r^2 underflows.  The "green" group holds
green_eval and grid._green_slice, and "green_piecewise" holds
green_piecewise_eval on the same pairs, so a change to one Green route moves
its own group only.

Two more draws, from a second generator so that the groups above keep their
records, reach past the 1 024 modes that a mode table stores at most:
"robin2d" adds planar annuli with a uniform in [0.99, 0.999], and the
"gegenbauer" group sums the three newtonian_series_* and
gegenbauer_generating_sum with the series variable q either uniform in
[0, 0.9] or 1 - q log-uniform down to 1e-3, at n in {3..6, 9, 20}, under both
policies.  At --count 150 --seed 7, 722 of the 1 800 robin2d_eval records
and 445 of the 1 200 "gegenbauer" records sum more than 1 024 modes.

A third generator draws two more groups.  "harmonic" runs harmonic_extension
at n = 3 with seeded boundary data, policies and points 10 to 60 % of the way
across the gap, against quadratures exact for 16 and for 48 modes; the first
mostly raises QuadratureDegreeError, the second mostly converges.  "frames"
reaches the Robin family's binary frame (_FRAME_BELOW in green.py) through
the public evaluators with abs_tol 0 and max_terms 300: robin2d_eval and
robin2d_first with their grid twins at a uniform in [0.01, 0.06], robin_eval
and robin_radial_gradient with theirs at a uniform in [1e-3, 3e-3].

Example:
    python scripts/output_digest.py --src src --count 150 --seed 7
"""

import argparse
import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SPATIAL_DIMS = (3, 4, 5, 6, 9, 20)
FIELDS = ("value", "tail_bound", "terms_used", "converged")


def _exact(res):
    """An output as plain Python numbers, whose repr is exact: tolist turns
    numpy scalars and arrays into floats, where numpy's own repr prints 8
    significant digits.  A tuple that is not a result, such as the
    (distances, rows) pair of grid._green_slice, is taken field by field."""
    if all(hasattr(res, f) for f in FIELDS):
        return tuple(np.asarray(getattr(res, f)).tolist() for f in FIELDS)
    if isinstance(res, tuple):
        return tuple(_exact(x) for x in res)
    if isinstance(res, np.ndarray):
        return res.tolist()
    return repr(res)


def _record(fn, *args):
    """The exact outputs of fn(*args), or its error's type and message."""
    try:
        res = fn(*args)
    except Exception as exc:  # every error is an output here
        return type(exc).__name__, str(exc)
    return _exact(res)


def _critical_records(ag, geom) -> tuple:
    """The record of find_critical_point at geom, and its record without the
    counts ``evaluations`` and ``phases``; an error is both records."""
    try:
        report = ag.find_critical_point(geom)
    except Exception as exc:  # every error is an output here
        error = type(exc).__name__, str(exc)
        return error, error
    values = {k: v for k, v in report._asdict().items() if k not in ("evaluations", "phases")}
    return repr(report), repr(values)


def _thickness(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.uniform(0.05, 0.95)
    return 1.0 - 10.0 ** rng.uniform(-4.0, -1.0)


def _radii(rng: random.Random, a: float) -> list[float]:
    return [a + f * (1.0 - a) for f in (1e-6, rng.uniform(0.0, 1.0), 1.0 - 1e-6)]


def _boundary_data(ag, rng: random.Random):
    """Smooth boundary data with seeded coefficients on both spheres."""
    c = [rng.uniform(-1.0, 1.0) for _ in range(8)]
    return ag.BoundaryData(
        outer=lambda xi: c[0] + c[1] * xi[0] + c[2] * xi[1] * xi[2] + c[3] * math.exp(xi[2]),
        inner=lambda xi: c[4] + c[5] * xi[1] + c[6] * xi[0] * xi[0] + c[7] * math.cos(3 * xi[0]),
    )


def _harmonic_draw(ag, rng: random.Random, quads) -> list:
    """harmonic_extension at one seeded point, data and policy, per rule."""
    geom, data = ag.AnnulusGeometry(3, rng.uniform(0.05, 0.5)), _boundary_data(ag, rng)
    direction = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
    r = geom.a + rng.uniform(0.1, 0.6) * (1.0 - geom.a)
    x = r * direction / np.linalg.norm(direction)
    pol = ag.TruncationPolicy(
        abs_tol=10.0 ** rng.uniform(-8.0, -1.0), rel_tol=rng.choice((0.0, 0.05))
    )
    return [_record(ag.harmonic_extension, geom, data, x, pol, q) for q in quads]


def _frames_draw(ag, rng: random.Random) -> list:
    """A planar and a spatial annulus with a small inner radius, whose deep
    modes are formed in the binary frame: each evaluator at three radii, and
    its grid twin at all three."""
    pol = ag.TruncationPolicy(abs_tol=0.0, max_terms=300)
    planar = ((ag.robin2d_eval, ag.robin2d_eval_grid), (ag.robin2d_first, ag.robin2d_first_grid))
    spatial = (
        (ag.robin_eval, ag.robin_eval_grid),
        (ag.robin_radial_gradient, ag.robin_radial_gradient_grid),
    )
    records = []
    a = rng.uniform(0.01, 0.06)
    geom = ag.AnnulusGeometry(rng.choice(SPATIAL_DIMS), rng.uniform(1e-3, 3e-3))
    for first, pairs, inner in ((a, planar, a), (geom, spatial, geom.a)):
        radii = _radii(rng, inner)
        for fn, grid_fn in pairs:
            records += [_record(fn, first, r, pol) for r in radii]
            records.append(_record(grid_fn, first, np.array(radii), pol))
    return records


def _groups(ag, count: int, seed: int) -> dict:
    """Group name -> list of records, in the draw's order."""
    from annulus_green import green, grid

    rng = random.Random(seed)
    policies = (ag.TruncationPolicy(), ag.TruncationPolicy(rel_tol=0.05))
    spatial = (
        ag.robin_eval,
        ag.robin_radial_gradient,
        ag.robin_radial_gradient_derivative,
        ag.critical_equation_eval,
    )
    spatial_grid = (ag.robin_eval_grid, ag.robin_radial_gradient_grid)
    planar = (ag.robin2d_eval, ag.robin2d_first, ag.robin2d_second)
    planar_grid = (ag.robin2d_eval_grid, ag.robin2d_first_grid)
    out = {
        name: []
        for name in ("robin", "robin_grid", "robin2d", "robin2d_grid", "radial_closed",
                     "green", "green_piecewise", "gegenbauer", "harmonic", "frames",
                     "critical", "critical_values", "errors")
    }
    for _ in range(count):
        n, a = rng.choice(SPATIAL_DIMS), _thickness(rng)
        geom, radii = ag.AnnulusGeometry(n, a), _radii(rng, a)
        for pol in policies:
            out["robin"] += [_record(fn, geom, r, pol) for fn in spatial for r in radii]
            out["robin_grid"] += [_record(fn, geom, np.array(radii), pol) for fn in spatial_grid]
        out["radial_closed"] += [_record(green._radial(geom).closed, r) for r in radii]

        a = _thickness(rng)
        radii = _radii(rng, a)
        for pol in policies:
            out["robin2d"] += [_record(fn, a, r, pol) for fn in planar for r in radii]
            out["robin2d_grid"] += [_record(fn, a, np.array(radii), pol) for fn in planar_grid]
        out["radial_closed"] += [
            _record(green._radial(ag.AnnulusGeometry(2, a)).closed, r) for r in radii
        ]

        n, a = rng.choice(SPATIAL_DIMS), rng.uniform(0.05, 0.95)
        geom = ag.AnnulusGeometry(n, a)
        r, s = _radii(rng, a)[1], a + rng.uniform(0.0, 1.0) * (1.0 - a)
        angle = rng.uniform(0.0, math.pi)
        x, y = np.zeros(n), np.zeros(n)
        x[0], y[0], y[1] = r, s * math.cos(angle), s * math.sin(angle)
        for pol in policies:
            out["green"] += [
                _record(ag.green_eval, geom, x, y, pol),
                _record(grid._green_slice, geom, np.linspace(a, 1.0, 5), y, pol),
            ]
            out["green_piecewise"].append(_record(ag.green_piecewise_eval, geom, x, y, pol))

        geom = ag.AnnulusGeometry(rng.choice((2, *SPATIAL_DIMS)), _thickness(rng))
        report, values = _critical_records(ag, geom)
        out["critical"].append(report)
        out["critical_values"].append(values)

    deep = random.Random(f"deep modes {seed}")
    for _ in range(count):
        a = deep.uniform(0.99, 0.999)
        radii = _radii(deep, a)
        for pol in policies:
            out["robin2d"] += [_record(fn, a, r, pol) for fn in planar for r in radii]

        n = deep.choice(SPATIAL_DIMS)
        q = deep.uniform(0.0, 0.9) if deep.random() < 0.5 else 1.0 - 10.0 ** deep.uniform(-3, -1)
        s, angle, t = deep.uniform(0.5, 1.0), deep.uniform(0.0, math.pi), deep.uniform(-1, 1)
        xi, y = np.zeros(n), np.zeros(n)
        xi[0], y[0], y[1] = 1.0, math.cos(angle), math.sin(angle)
        # the series variable is q in each: |y| = q, a / |y| = q, |y| / |x| = q
        for pol in policies:
            out["gegenbauer"] += [
                _record(ag.newtonian_series_outer, ag.AnnulusGeometry(n, 0.5), xi, q * y, pol),
                _record(ag.newtonian_series_inner, ag.AnnulusGeometry(n, q * s), xi, s * y, pol),
                _record(ag.newtonian_series_exterior, ag.AnnulusGeometry(n, 0.5), s * xi,
                        q * s * y, pol),
                _record(ag.gegenbauer_generating_sum, 0.5 * (n - 2), t, q, pol),
            ]

    more = random.Random(f"harmonic and frames {seed}")
    # a rule of degree 2M integrates M modes (see harmonic_extension)
    quads = [ag.build_sphere_quadrature(2 * modes) for modes in (16, 48)]
    for _ in range(count):
        out["harmonic"] += _harmonic_draw(ag, more, quads)
        out["frames"] += _frames_draw(ag, more)

    # omega underflows at n = 456; r^2 underflows at r = 2e-300
    pol, pair = policies[0], np.array([0.6, 0.75])
    far, plane = ag.AnnulusGeometry(456, 0.5), ag.AnnulusGeometry(2, 0.5)
    mid = ag.AnnulusGeometry(3, 0.5)
    errors = out["errors"]
    for fn in spatial:
        errors += [_record(fn, g, r, pol) for g, r in ((far, 0.75), (plane, 0.75), (mid, 0.0))]
    for fn in spatial_grid:
        errors += [_record(fn, far, pair, pol), _record(fn, plane, pair, pol)]
    for fn in planar:
        errors += [_record(fn, 0.5, 0.0, pol), _record(fn, 1e-300, 2e-300, pol)]
    for fn in planar_grid:
        errors.append(_record(fn, 1e-300, np.array([2e-300]), pol))
    errors.append(_record(ag.find_critical_point, far))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", type=Path, default=SRC, help="source tree holding annulus_green")
    ap.add_argument("--count", type=int, default=150, help="draws per group")
    ap.add_argument("--seed", type=int, default=7, help="seed of the draw")
    args = ap.parse_args()

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import annulus_green as ag

    if src not in Path(ag.__file__).resolve().parents:
        print(f"annulus_green was already imported from {ag.__file__}", file=sys.stderr)
        return 2
    for name, records in _groups(ag, args.count, args.seed).items():
        digest = hashlib.sha256()
        for record in records:
            digest.update(repr(record).encode() + b"\n")
        print(f"{name:<15} {len(records):>6} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
