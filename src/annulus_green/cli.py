"""Command-line front end.

Subcommands: eval-green, eval-robin, critical-point, verify, export-grid.
Every numeric record carries its tail bound or solver residual, CSV output
is full-precision with LF line endings, and exit codes follow a stable
contract: 0 success, 1 verification failure, 2 validation error, 3
non-convergence.  The solver, json, csv, numpy and the verify suites are
imported by the commands and formats that use them, not with this module.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import (
    AnnulusError,
    AnnulusGeometry,
    DomainValidationError,
    EvalGrid,
    TruncationPolicy,
)
from .green import (
    NEAR_DIAGONAL,
    _radial,
    green_eval,
    green_piecewise_eval,
)

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3

# eval-green reports the green_piecewise_eval cross-check (the piecewise_*
# and path_difference keys) only where the radii satisfy lo <= this * hi
PIECEWISE_RATIO = 0.99

# export-grid refuses more radii than this before it allocates any of them
_MAX_GRID_POINTS = 1_000_000

# the names of verify.SUITES, sorted, which --suite accepts: verify, and with
# it numpy, is imported only when the verify command runs
_SUITES = (
    "critical-point",
    "distance-series",
    "green-function",
    "modal-oracle",
    "poisson-extension",
    "robin-derivatives",
    "special-functions",
)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="annulus-green",
        description=(
            "Green and Robin functions of the annulus {a < |x| < 1} via "
            "zonal-harmonic series with certified truncation tails"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, default=3, help="space dimension")
        p.add_argument("--a", type=float, default=0.5, help="inner radius in (0, 1)")
        p.add_argument("--tol", type=float, default=1e-10, help="target absolute tail bound")
        p.add_argument("--max-terms", type=int, default=100_000, help="series term cap")
        p.add_argument(
            "--tail-safety",
            type=int,
            default=2,
            help="consecutive certified-tail successes required before stopping",
        )
        output(p)

    p_green = sub.add_parser("eval-green", help="evaluate the Green function at a pair")
    common(p_green)
    p_green.add_argument(
        "coords",
        type=float,
        nargs="+",
        help="2n floats: the n coordinates of x followed by the n coordinates of y",
    )

    p_robin = sub.add_parser("eval-robin", help="evaluate the Robin function at a radius")
    common(p_robin)
    p_robin.add_argument("radius", type=float, help="radius strictly inside (a, 1)")

    p_crit = sub.add_parser("critical-point", help="locate the radial critical point")
    common(p_crit)
    p_crit.add_argument(
        "--solver-tol",
        type=float,
        default=1e-12,
        help=(
            "residual budget: Anderson-Bjorck regula falsi, then bisection to "
            "adjacent doubles, certifies the root when |gradient| + tail "
            "bound there is within it, or else when certain opposite signs "
            "lie within 128 ulps on both sides (certificate sign-pinned)"
        ),
    )

    p_verify = sub.add_parser(
        "verify", help="run the verification suites, each check at its own truncation policy"
    )
    output(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p_verify.add_argument(
        "--suite",
        action="append",
        choices=_SUITES,
        help="restrict to the named suite (repeatable; default all)",
    )

    p_grid = sub.add_parser("export-grid", help="export plot data over a radial grid")
    common(p_grid)
    p_grid.add_argument(
        "quantity", choices=("green-slice", "robin", "gradient", "modal-coefficient")
    )
    p_grid.add_argument("--grid-points", type=int, default=1000)
    p_grid.add_argument("--r-min", type=float, default=None)
    p_grid.add_argument("--r-max", type=float, default=None)
    p_grid.add_argument(
        "--y", type=str, default=None, help="comma-separated source point for green-slice"
    )
    p_grid.add_argument("--mode", type=int, default=0, help="mode index for modal-coefficient")
    p_grid.add_argument(
        "--s-radius", type=float, default=None, help="second radius for modal-coefficient"
    )
    return parser


def _policy_from(args) -> TruncationPolicy:
    return TruncationPolicy(
        abs_tol=args.tol, max_terms=args.max_terms, tail_safety=args.tail_safety
    )


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_record(args, record: dict) -> None:
    if args.format == "json":
        import json

        _emit(args, json.dumps(record, sort_keys=True, indent=2) + "\n")
    else:
        import csv

        # quoted where a field holds a comma (the critical-point method does)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(record)
        writer.writerow(_fmt(v) if isinstance(v, float) else v for v in record.values())
        _emit(args, buf.getvalue())


# a CSV field by dtype kind, as _fmt or str writes it: '%.17g' % x equals
# format(x, '.17g') for every double, nan, inf and -0.0 included
_CSV_FIELDS = {"f": "%.17g", "i": "%d", "b": "%s"}


def _emit_table(args, header: list[str], columns: list[np.ndarray]) -> None:
    """The table whose columns are the 1-d arrays ``columns``, one row per entry."""
    rows = zip(*(c.tolist() for c in columns))
    if args.format == "csv":
        line = ",".join(_CSV_FIELDS[c.dtype.kind] for c in columns) + "\n"
        _emit(args, ",".join(header) + "\n" + "".join(map(line.__mod__, rows)))
    else:
        _emit_record(args, {"columns": header, "rows": [list(r) for r in rows]})


def _cmd_eval_green(args) -> int:
    geom = AnnulusGeometry(args.n, args.a)
    policy = _policy_from(args)
    coords = [float(c) for c in args.coords]
    if len(coords) != 2 * geom.n:
        raise DomainValidationError(
            f"expected {2 * geom.n} coordinates for n = {geom.n}, got {len(coords)}"
        )
    x, y = coords[: geom.n], coords[geom.n :]
    res = green_eval(geom, x, y, policy)
    record = {
        "command": "eval-green",
        "n": geom.n,
        "a": geom.a,
        "x": x,
        "y": y,
        "value": res.value,
        "terms_used": res.terms_used,
        "tail_bound": res.tail_bound,
        "converged": res.converged,
    }
    # green_piecewise_eval's radii before their clamp (see green._clamped)
    rx, ry = math.hypot(*x), math.hypot(*y)
    if min(rx, ry) <= PIECEWISE_RATIO * max(rx, ry):
        # reported cross-check only: the unsplit route contracts like lo/hi
        # per mode, so nearer radii would take it to max_terms where
        # green_eval converges in a few modes
        alt = green_piecewise_eval(geom, x, y, policy)
        record["piecewise_value"] = alt.value
        record["piecewise_tail_bound"] = alt.tail_bound
        record["piecewise_terms_used"] = alt.terms_used
        record["piecewise_converged"] = alt.converged
        record["path_difference"] = abs(alt.value - res.value)
    if args.format == "csv":
        flat = dict(record)
        flat["x"] = ";".join(_fmt(v) for v in x)
        flat["y"] = ";".join(_fmt(v) for v in y)
        _emit_record(args, flat)
    else:
        _emit_record(args, record)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_eval_robin(args) -> int:
    policy = _policy_from(args)
    res = _radial(AnnulusGeometry(args.n, args.a)).value(args.radius, policy)
    record = {
        "command": "eval-robin",
        "n": args.n,
        "a": args.a,
        "r": args.radius,
        "value": res.value,
        "terms_used": res.terms_used,
        "tail_bound": res.tail_bound,
        "converged": res.converged,
    }
    _emit_record(args, record)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


def _cmd_critical_point(args) -> int:
    # read from critical when the command runs, so that a wrapper put there
    # (a tracer's, a test's) is the function called
    from .critical import find_critical_point

    geom = AnnulusGeometry(args.n, args.a)
    policy = _policy_from(args)
    report = find_critical_point(geom, policy, solver_tol=args.solver_tol)
    record = {
        "command": "critical-point",
        "n": geom.n,
        "a": geom.a,
        "r0": report.r0,
        "bracket_lo": report.bracket[0],
        "bracket_hi": report.bracket[1],
        "residual": report.residual,
        "certificate": report.certificate,
        "second_derivative": report.second_derivative,
        "second_derivative_uncertainty": report.second_derivative_uncertainty,
        "is_radial_minimum": report.is_radial_minimum,
        "nondegenerate": report.nondegenerate,
        "method": report.method,
        "evaluations": report.evaluations,
    }
    _emit_record(args, record)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import render_summary, run_suites

    results = run_suites(args.suite, seed=args.seed)
    summary = render_summary(results, args.seed)
    _emit(args, summary)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAIL


def _radial_grid(args, geom: AnnulusGeometry, standoff: float = 1e-3) -> np.ndarray:
    """The requested radii; the default window stands off both spheres by
    ``standoff`` times the gap.  Its ends are checked by the geometry's rule
    (AnnulusGeometry.clamp_radius), the one green_eval applies: [a, 1] up to
    RADIUS_SLACK."""
    import numpy as np

    span = 1.0 - geom.a
    lo = args.r_min if args.r_min is not None else geom.a + standoff * span
    hi = args.r_max if args.r_max is not None else 1.0 - standoff * span
    if args.grid_points < 2:
        raise DomainValidationError("need at least 2 grid points")
    if args.grid_points > _MAX_GRID_POINTS:
        raise DomainValidationError(
            f"at most {_MAX_GRID_POINTS} grid points, got {args.grid_points}"
        )
    for end in (lo, hi):
        geom.clamp_radius(end)
    if not lo < hi:
        raise DomainValidationError(f"grid window [{lo}, {hi}] must have r-min < r-max")
    return np.linspace(lo, hi, args.grid_points)


def _interior_rows(evaluate, radii: np.ndarray, a: float) -> EvalGrid:
    """``evaluate`` over the radii, which it refuses if one lies outside
    (a, 1); the rows before that radius are evaluated first, so that their
    errors come first, as they would one row at a time."""
    import numpy as np

    inside = (a < radii) & (radii < 1.0)
    if not inside.all():
        evaluate(radii[: int(np.argmin(inside))])
    return evaluate(radii)


def _cmd_export_grid(args) -> int:
    import numpy as np

    geom = AnnulusGeometry(args.n, args.a)
    policy = _policy_from(args)

    if args.quantity == "modal-coefficient":
        if args.s_radius is None:
            raise DomainValidationError("modal-coefficient needs --s-radius")
        from .kernels import _modal_coefficient

        radii = _radial_grid(args, geom)
        # a closed form: its bound is a first-order rounding bound
        rows = [_modal_coefficient(geom, args.mode, r, args.s_radius) for r in radii.tolist()]
        columns = [radii, *np.array(rows).T]
        _emit_table(args, ["r", "coefficient", "tail_bound"], columns)
        return EXIT_OK

    if args.quantity in ("robin", "gradient"):
        radii = _radial_grid(args, geom)
        family = _radial(geom)
        column = "robin" if args.quantity == "robin" else "radial_gradient"

        def evaluate(r: np.ndarray) -> EvalGrid:
            if args.quantity == "robin":
                return family.value_grid(r, policy)
            return family.gradient_grid(r, policy).scaled(r / family.d(r))  # r R'(r)

        res = _interior_rows(evaluate, radii, geom.a)
        settled = res.converged
    else:  # green-slice
        if args.y is None:
            raise DomainValidationError("green-slice needs --y with n comma-separated floats")
        y = geom.coordinates(args.y.split(","))
        radii = _radial_grid(args, geom, standoff=0.0)  # the slice reaches both walls
        column = "green"
        from .grid import _green_slice

        # near-singular points are refused: their rows hold NaNs, not bad data
        d, res = _green_slice(geom, radii, y, policy)
        settled = res.converged | (d < NEAR_DIAGONAL)
    _emit_table(
        args,
        ["r", column, "tail_bound", "terms_used", "converged"],
        [radii, res.value, res.tail_bound, res.terms_used, res.converged],
    )
    return EXIT_OK if settled.all() else EXIT_NO_CONVERGENCE


_COMMANDS = {
    "eval-green": _cmd_eval_green,
    "eval-robin": _cmd_eval_robin,
    "critical-point": _cmd_critical_point,
    "verify": _cmd_verify,
    "export-grid": _cmd_export_grid,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else 0
    # exit 2 for every ValueError, DomainValidationError, SingularityError and
    # SeriesDivergenceError among them
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        _report_error(args, exc)
        return EXIT_VALIDATION
    except AnnulusError as exc:
        _report_error(args, exc)
        return EXIT_NO_CONVERGENCE


def _report_error(args, exc: Exception) -> None:
    if getattr(args, "format", "json") == "json":
        import json

        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
