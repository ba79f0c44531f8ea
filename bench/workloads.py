"""Seeded inputs, request runners and reference checks for the three workloads.

A workload is a stream of blocks.  Block ``i`` of a stream is a pure function
of (workload, stream, seed, i), and each block is stratified over the
dimension n and the inner radius a, so that every block has the same mix of
cheap and expensive geometries and seeds differ only inside the strata.  Runs
complete whole blocks, so every run measures a balanced mix.

A request is one call the single closed-loop caller makes and times; it
covers one or more operations (ops).  Every op ends as ok or as a failure of
a named kind; nothing is dropped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

# the README quick-start policy; the CLI defaults are the same numbers
ABS_TOL = 1e-10
MAX_TERMS = 100_000

# a checked value is "correct" when it agrees with the reference to this
# relative accuracy; the finer question (is the error inside the reported
# bound?) is the cert check, which is a metric, not a gate
GROSS_REL_TOL = 1e-6

GRID_POINTS = 200


def _rng(workload: str, stream: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}/{stream}/{seed}/{block}")


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi), shuffled."""
    vals = [lo + (hi - lo) * (j + rng.random()) / count for j in range(count)]
    rng.shuffle(vals)
    return vals


def _antithetic_strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """Two draws from each of ``count`` equal slices of [lo, hi), at shares u
    and 1 - u of the slice, shuffled.  Each draw is still uniform on its
    slice; the pairing cancels most of the seed-to-seed spread of a cost
    that rises steeply with the drawn value, as the cost of a thin annulus does."""
    vals = []
    for j in range(count):
        u = rng.random()
        vals += [lo + (hi - lo) * (j + u) / count, lo + (hi - lo) * (j + 1.0 - u) / count]
    rng.shuffle(vals)
    return vals


def _mid_radius(rng: random.Random, a: float, lo: float = 0.1, hi: float = 0.9) -> float:
    """A radius at a uniform share in [lo, hi) of the gap (a, 1); by default
    the middle 80 %."""
    return a + (lo + (hi - lo) * rng.random()) * (1.0 - a)


def _direction(rng: random.Random, n: int) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return [c / norm for c in v]


def _point(rng: random.Random, n: int, radius: float) -> list[float]:
    return [radius * c for c in _direction(rng, n)]


@dataclass
class Op:
    """Outcome of one operation."""

    failure: str | None  # None when ok, else an exception type or a failure kind
    check: tuple | None = None  # what the reference needs, for a checkable ok op
    value: float = math.nan
    bound: float = math.nan


@dataclass
class Request:
    latency_ns: int
    ops: list[Op]
    exit_code: int | None = None


@dataclass
class Checked:
    """Reference-check totals."""

    checked: int = 0
    violations: int = 0
    gross_errors: list[str] = field(default_factory=list)

    def add(self, label: str, cert_ok: bool, gross_ok: bool) -> None:
        self.checked += 1
        self.violations += not cert_ok
        if not gross_ok:
            self.gross_errors.append(label)

    def add_value(self, ref, label: str, value: float, bound: float, want) -> None:
        """A value with a reported error bound against its reference."""
        err = ref.error(value, want)
        gross_ok = err <= GROSS_REL_TOL * max(1.0, abs(float(want)))
        self.add(f"{label}: {value!r} vs reference {float(want)!r}", err <= bound, gross_ok)


def _eval_outcome(res, check) -> Op:
    if not math.isfinite(res.value):
        return Op("NonFinite")
    if not res.converged:
        return Op("NotConverged")
    return Op(None, check, res.value, res.tail_bound)


# --------------------------------------------------------------------- interior-evals

INTERIOR_FNS = (
    "green_eval",
    "green_piecewise_eval",
    "robin_eval",
    "robin_radial_gradient",
    "robin_radial_gradient_derivative",
    "robin2d_eval",
    "robin2d_first",
    "robin2d_second",
    "newtonian_series_outer",
    "newtonian_series_inner",
    "newtonian_series_exterior",
)
INTERIOR_REPS = 8  # calls per function per block, one per stratum of a
INTERIOR_CHECKS = 4  # calls per function checked against the reference


class InteriorEvals:
    """Library calls one at a time, each on a fresh geometry."""

    name = "interior-evals"
    trace_blocks = 100
    # p99.9 and above of ~1e5 calls are set by scheduler pauses, not by the
    # calls; p99 keeps about a thousand samples beyond it
    tail_percentile = 99.0

    def __init__(self, ag, _workdir: str):
        self.ag = ag
        self.policy = ag.TruncationPolicy(abs_tol=ABS_TOL, max_terms=MAX_TERMS)

    def block(self, seed: int, stream: str, index: int) -> list[tuple]:
        rng = _rng(self.name, stream, seed, index)
        calls = []
        for fn in INTERIOR_FNS:
            dims = [3 + j % 4 for j in range(INTERIOR_REPS)]
            rng.shuffle(dims)
            for n, a in zip(dims, _strata(rng, INTERIOR_REPS, 0.1, 0.9)):
                if fn.startswith("robin2d"):
                    n = 2
                if fn == "green_eval":
                    args = (_point(rng, n, _mid_radius(rng, a)), _point(rng, n, _mid_radius(rng, a)))
                elif fn in ("green_piecewise_eval", "newtonian_series_exterior"):
                    # these series shrink like (s/r)^m: keep the two radii in
                    # separate bands so no call nears the coincident-radius regime
                    outer = _point(rng, n, _mid_radius(rng, a, 0.6, 0.9))
                    inner = _point(rng, n, _mid_radius(rng, a, 0.1, 0.4))
                    swap = fn == "green_piecewise_eval" and rng.random() < 0.5
                    args = (inner, outer) if swap else (outer, inner)
                elif fn.startswith("newtonian"):
                    args = (_direction(rng, n), _point(rng, n, _mid_radius(rng, a)))
                else:
                    args = (_mid_radius(rng, a),)
                calls.append((fn, n, a, args))
        rng.shuffle(calls)
        return calls

    def runner(self):
        ag, policy = self.ag, self.policy
        geometry = ag.AnnulusGeometry
        modules = {fn: ag.kernels if fn.startswith("newtonian") else ag.green for fn in INTERIOR_FNS}
        clock = time.perf_counter_ns

        def run(call) -> Request:
            fn, n, a, args = call
            f = getattr(modules[fn], fn)  # looked up per call: tracing swaps it
            t0 = clock()
            try:
                if n == 2:
                    res = f(a, args[0], policy)
                else:
                    res = f(geometry(n, a), *args, policy)
            except Exception as exc:  # counted by type, never dropped
                t1 = clock()
                return Request(t1 - t0, [Op(type(exc).__name__)])
            t1 = clock()
            return Request(t1 - t0, [_eval_outcome(res, call)])

        return run

    def check_plan(self, seed: int, block: list[tuple]) -> set[tuple[int, int]]:
        """(request, op) indices of block 0 checked against the reference:
        a seeded sample of INTERIOR_CHECKS calls per function."""
        rng = _rng(self.name, "check", seed, 0)
        by_fn: dict[str, list[int]] = {}
        for i, (fn, *_rest) in enumerate(block):
            by_fn.setdefault(fn, []).append(i)
        return {(i, 0) for idx in by_fn.values() for i in rng.sample(idx, INTERIOR_CHECKS)}

    def check(self, ref, op: Op, out: Checked) -> None:
        fn, n, a, args = op.check
        if fn == "green_eval" or fn == "green_piecewise_eval":
            want = ref.green(n, a, *args)
        elif fn == "newtonian_series_outer":
            want = ref.distance_power(n, args[0], args[1])
        elif fn == "newtonian_series_inner":
            want = ref.distance_power(n, args[0], args[1], x_scale=a)
        elif fn == "newtonian_series_exterior":
            want = ref.distance_power(n, args[0], args[1])
        else:
            want = {
                "robin_eval": lambda r: ref.robin(n, a, r),
                "robin_radial_gradient": lambda r: ref.robin_gradient(n, a, r),
                "robin_radial_gradient_derivative": lambda r: ref.robin_gradient_derivative(n, a, r),
                "robin2d_eval": lambda r: ref.robin2d(a, r),
                "robin2d_first": lambda r: ref.robin2d_first(a, r),
                "robin2d_second": lambda r: ref.robin2d_second(a, r),
            }[fn](args[0])
        out.add_value(ref, f"{fn} n={n} a={a!r} args={args!r}", op.value, op.bound, want)


# --------------------------------------------------------------------- CLI workloads


class _CliWorkload:
    """Shared runner: one in-process ``annulus_green.cli.main`` call per request."""

    # a timed run completes at least two blocks of 50 or more requests, so
    # at least 10 samples lie beyond p90 however many blocks fit
    tail_percentile = 90.0

    def __init__(self, ag, workdir: str):
        self.ag = ag
        self.out_path = os.path.join(workdir, "out")

    def runner(self):
        cli = self.ag.cli
        clock = time.perf_counter_ns

        def run(req) -> Request:
            if os.path.exists(self.out_path):
                os.remove(self.out_path)
            argv = self.argv(req) + ["--out", self.out_path]
            sink = io.StringIO()
            main = cli.main  # looked up per call: tracing swaps it
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = clock()
                code = main(argv)
                t1 = clock()
            return Request(t1 - t0, self.ops(req, code, sink.getvalue()), exit_code=code)

        return run


RADIAL_STRATA = 3  # strata of a per dimension in one block, two draws each


class RadialProfile(_CliWorkload):
    """``export-grid robin | gradient | green-slice`` over seeded geometries."""

    name = "radial-profile"
    trace_blocks = 1

    def block(self, seed: int, stream: str, index: int) -> list[tuple]:
        rng = _rng(self.name, stream, seed, index)
        geoms = [(n, a) for n in range(2, 7) for a in _antithetic_strata(rng, RADIAL_STRATA, 0.1, 0.9)]
        rng.shuffle(geoms)
        reqs = []
        for n, a in geoms:
            reqs.append(("robin", n, a, None))
            reqs.append(("gradient", n, a, None))
            if n >= 3:
                # source point off the slice axis, so no grid point nears it
                s = a + (0.2 + 0.6 * rng.random()) * (1.0 - a)
                theta = rng.uniform(0.3, math.pi - 0.3)
                w = _direction(rng, n - 1)
                y = [s * math.cos(theta)] + [s * math.sin(theta) * c for c in w]
                reqs.append(("green-slice", n, a, tuple(y)))
        return reqs

    def argv(self, req) -> list[str]:
        quantity, n, a, y = req
        argv = ["export-grid", quantity, "--n", str(n), "--a", repr(a)]
        argv += ["--grid-points", str(GRID_POINTS), "--format", "csv"]
        if y is not None:
            # one token, so that a leading minus sign is not read as an option
            argv.append("--y=" + ",".join(repr(c) for c in y))
        return argv

    def ops(self, req, code: int, _output: str) -> list[Op]:
        if not os.path.exists(self.out_path):
            return [Op(f"exit{code}") for _ in range(GRID_POINTS)]
        with open(self.out_path) as fh:
            lines = fh.read().splitlines()[1:]
        ops = []
        for line in lines:
            r, value, tail, _terms, converged = line.split(",")
            value, tail = float(value), float(tail)
            if not math.isfinite(value):
                ops.append(Op("NonFinite"))
            elif converged != "True":
                ops.append(Op("NotConverged"))
            else:
                ops.append(Op(None, (req, float(r)), value, tail))
        return ops

    def check_plan(self, seed: int, block: list[tuple]) -> set[tuple[int, int]]:
        """Rows checked per block-0 request: both end rows, where the series
        is deepest, and two seeded rows from the rest of the grid."""
        rng = _rng(self.name, "check", seed, 0)
        plan = set()
        for i in range(len(block)):
            for row in (0, GRID_POINTS - 1, *rng.sample(range(1, GRID_POINTS - 1), 2)):
                plan.add((i, row))
        return plan

    def check(self, ref, op: Op, out: Checked) -> None:
        (quantity, n, a, y), r = op.check
        if quantity == "robin":
            want = ref.robin2d(a, r) if n == 2 else ref.robin(n, a, r)
        elif quantity == "gradient":
            want = r * ref.robin2d_first(a, r) if n == 2 else ref.robin_gradient(n, a, r)
        else:
            want = ref.green(n, a, [r] + [0.0] * (n - 1), y)
        out.add_value(ref, f"{quantity} n={n} a={a!r} r={r!r}", op.value, op.bound, want)


CRITICAL_STRATA = 5  # strata of a per dimension in one block, two draws each


class CriticalPoint(_CliWorkload):
    """``critical-point`` with its defaults over seeded geometries."""

    name = "critical-point"
    trace_blocks = 1

    def block(self, seed: int, stream: str, index: int) -> list[tuple]:
        rng = _rng(self.name, stream, seed, index)
        reqs = [(n, a) for n in range(2, 7) for a in _antithetic_strata(rng, CRITICAL_STRATA, 0.05, 0.95)]
        rng.shuffle(reqs)
        return reqs

    def argv(self, req) -> list[str]:
        n, a = req
        return ["critical-point", "--n", str(n), "--a", repr(a), "--format", "json"]

    def ops(self, req, code: int, output: str) -> list[Op]:
        if code != 0:
            try:
                kind = json.loads(output.strip().splitlines()[-1])["error"]
            except (ValueError, KeyError, IndexError):
                kind = f"exit{code}"
            return [Op(kind)]
        with open(self.out_path) as fh:
            record = json.load(fh)
        if not all(math.isfinite(record[k]) for k in ("r0", "residual", "second_derivative")):
            return [Op("NonFinite")]
        return [Op(None, (req, record), record["r0"], record["residual"])]

    def check_plan(self, seed: int, block: list[tuple]) -> set[tuple[int, int]]:
        """Every request of block 0 (the failed ones have nothing to check)."""
        return {(i, 0) for i in range(len(block))}

    def check(self, ref, op: Op, out: Checked) -> None:
        (n, a), record = op.check
        r0_ref, slope = ref.critical_radius(n, a, record["r0"])
        # |f(r0)| <= residual certifies |r0 - root| <= residual / |f'|
        err = ref.error(record["r0"], r0_ref)
        right_class = record["is_radial_minimum"] == (n == 2)
        cert_ok = right_class and err <= record["residual"] / abs(float(slope))
        roots = [record["r0"], record.get("concentration_root", record["r0"])]
        gross_ok = right_class and all(ref.error(v, r0_ref) <= GROSS_REL_TOL for v in roots)
        out.add(f"critical-point n={n} a={a!r}: r0 {record['r0']!r} vs reference {float(r0_ref)!r}",
                cert_ok, gross_ok)


WORKLOADS = {w.name: w for w in (InteriorEvals, RadialProfile, CriticalPoint)}
