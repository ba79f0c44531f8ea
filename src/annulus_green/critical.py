"""Locating the unique radial critical point of the Robin function.

For n >= 3 the zero of the strictly decreasing radial gradient r R'(r) is
bracketed by a geometric sweep out of both boundary layers (where its signs
are guaranteed), located by Brent-Dekker to within about two ulps, and then
bisected to adjacent doubles; for n = 2 the same procedure runs on the
planar R'(r), which is strictly increasing.  green.py owns that choice:
green._radial gives the gradient, its slope and its closed part for the
geometry's dimension, and this module never branches on it.  The root is
the end of that pair with the smaller |value|, and it carries one of two
certificates: ``"residual"`` when |value| + tail_bound is within the solver
tolerance, or ``"sign-pinned"`` when a steep gradient moves by more than
that tolerance from one double to the next but certain opposite signs lie
within 128 ulps on both sides.  The report carries the second derivative
from the slope series, a bound on its error that rests on that series' own
certified tail and on the residual, and the resulting minimum/maximum
classification as evidence rather than assumption, and the evaluations and
terms of each phase.  concentration_root returns the same r0 as the root of
the concentration-radius equation, the gradient times -omega/2.

Brent-Dekker is aimed with the family's closed part.  Its first iterate
is the root of the series' closed part (the Kelvin images; for n = 2 the
planar closed forms), found by a float-only Newton iteration, and its
interpolation and |value| comparisons read g = f w with
w = ((1 - r)(r - a)/(1 - a)^2)^(n - 1), which has f's sign and root but not
its poles of order n - 1 at the spheres.  Its sign decisions, its zero test
and the results it returns stay f's.  On a draw of 1 500 geometries over
n = 2..6, a in [0.05, 0.95] this takes Brent from 10.2 evaluations per solve
to 6.2, and a solve from 17.0 to 13.0; bounding the second derivative from
its slope series alone takes it to 11.0 (scripts/solver_phases.py).

The sweep and Brent-Dekker only decide signs, so they sum each gradient to a
relative target: until its tail is within _SIGN_REL_TOL of its value, or
abs_tol if that is larger (see summation.sum_series).  That saves the deep
modes of the large values away from the root.  Brent's iterates tighten the
target to the relative size of the step that reached them, so that its
interpolation reads values as accurate as its steps are short.  A certain
sign of a relaxed result is the sign of the true value, and a relaxed result
whose sign is not certain is summed again to the absolute policy, so the
sweep stops, and raises BracketingError, where an absolute sweep does.
Bisection, the sign-pinned certificate and the slope series keep the
absolute policy, and so do Brent's final ends, which bisection reuses.
Every number the report carries (r0, bracket, residual, certificate, second
derivative and its uncertainty) is therefore computed from absolute sums,
at the midpoints of the sweep bracket that plain bisection visits; Brent's
bracket, which the relaxed values, the seed and the weight may move, only
decides which of them are evaluated.  On 20 000 seeded geometries every
field of the report except ``evaluations`` and ``phases`` matched an
all-absolute solve, and on 2 521 (n = 2..7, a up to 0.98) it matched an
unseeded, unweighted one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    AnnulusGeometry,
    BracketingError,
    DomainValidationError,
    EvalResult,
    TruncationPolicy,
    require_integer,
)
from .green import _radial
from .summation import _U

# the gradient diverges at both boundaries; stand off before sweeping
DEFAULT_STANDOFF_FACTOR = 1e-3

# the sweep and Brent-Dekker only decide signs: they sum each series until
# its tail is within this share of its value (or abs_tol, if larger), so a
# converged result has |value| >= 20 tail and, rounding aside, a certain sign
_SIGN_REL_TOL = 0.05

# the solver phases, in the order they run; the second-derivative phase
# sums the slope series once, at r0
PHASES = ("sweep", "brent", "bisection", "pinning", "second_derivative")


@dataclass(frozen=True)
class PhaseCounts:
    """Series evaluations made by one solver phase and the terms they summed."""

    phase: str
    evaluations: int
    terms: int


@dataclass(frozen=True)
class CriticalPointReport:
    """Root location plus the evidence used to certify it.

    ``second_derivative`` is R''(r0) read from the slope series at the
    reported double r0, and ``second_derivative_uncertainty`` bounds its
    error against the exact R''(r0) at that double: the slope's tail bound
    (truncation and rounding) over d(r0), plus ``residual`` / (r0 d(r0)) for
    the gradient not vanishing exactly at r0, plus the rounding of the
    quotient and of that sum.  ``nondegenerate`` holds where |R''(r0)| is
    certainly positive.  ``evaluations`` counts every series evaluation of
    the solve, the slope series included; ``phases`` splits it, and the
    terms summed, over PHASES.
    """

    r0: float
    bracket: tuple[float, float]
    residual: float
    certificate: str
    second_derivative: float
    second_derivative_uncertainty: float
    is_radial_minimum: bool
    method: str
    evaluations: int
    phases: tuple[PhaseCounts, ...]

    @property
    def nondegenerate(self) -> bool:
        return abs(self.second_derivative) > self.second_derivative_uncertainty


class _CountedSeries:
    """Wraps a series evaluator fn(r, policy), counting its evaluations and
    their terms per phase of PHASES; ``phase`` names the current one.

    ``result`` sums to the absolute policy.  ``sign_result`` sums to a
    relative target, _SIGN_REL_TOL or a smaller one.  Where that target
    cannot have stopped the sum early (the sum ran to max_terms, or
    rel |value| stayed below abs_tol on every row of the stopping streak) the
    result is the absolute one; otherwise it is kept where its sign is
    certain and replaced by ``result`` where not.  ``settled`` swaps a kept
    relaxed result for the absolute one.
    """

    def __init__(
        self, fn: Callable[[float, TruncationPolicy], EvalResult], policy: TruncationPolicy
    ):
        self._fn = fn
        self._policy = policy
        self._sign_policy = replace(policy, rel_tol=_SIGN_REL_TOL)
        self._exact_limit = self._limit(_SIGN_REL_TOL)
        self._relaxed: dict[int, EvalResult] = {}
        self.phase = PHASES[0]
        self._counts = {name: [0, 0] for name in PHASES}

    def tally(self, res: EvalResult) -> EvalResult:
        """Count ``res`` as an evaluation of the current phase."""
        count = self._counts[self.phase]
        count[0] += 1
        count[1] += res.terms_used
        return res

    def result(self, r: float) -> EvalResult:
        return self.tally(self._fn(r, self._policy))

    def _limit(self, rel: float) -> float:
        # a term is at most the tail certified on the row before it, so the
        # running sum moves by at most the larger of abs_tol and rel |sum| per
        # row; where rel |final sum| is at most this, rel |sum| <= abs_tol held
        # on every row of the stopping streak, and the relaxed sum stopped
        # where the absolute one does (one spare rel covers rounding)
        return self._policy.abs_tol * max(0.0, 1.0 - self._policy.tail_safety * rel)

    def sign_result(self, r: float, rel: float | None = None) -> EvalResult:
        policy, exact_limit = self._sign_policy, self._exact_limit
        if rel is None or rel >= policy.rel_tol:
            rel = policy.rel_tol
        else:
            p = self._policy
            policy = TruncationPolicy(p.abs_tol, p.max_terms, p.tail_safety, rel)
            exact_limit = self._limit(rel)
        res = self.tally(self._fn(r, policy))
        if not res.converged or rel * abs(res.value) <= exact_limit:
            return res  # summed as the absolute policy sums it
        if _certain_sign(res) is None:
            return self.result(r)
        self._relaxed[id(res)] = res
        return res

    def settled(self, r: float, res: EvalResult) -> EvalResult:
        # by identity: a result is relaxed by how it was summed, not by its
        # fields (the dict keeps it alive, so its id is not reused)
        return self.result(r) if id(res) in self._relaxed else res

    @property
    def calls(self) -> int:
        return sum(count[0] for count in self._counts.values())

    def phase_counts(self) -> tuple[PhaseCounts, ...]:
        return tuple(PhaseCounts(name, *self._counts[name]) for name in PHASES)


def _certain_sign(res: EvalResult) -> int | None:
    """Sign of the true series value, or None if the tail could flip it."""
    if not res.converged:
        return None
    if abs(res.value) <= 10.0 * res.tail_bound:
        return None
    return 1 if res.value > 0.0 else -1


def _sweep_bracket(
    f: _CountedSeries, a: float, standoff: float
) -> tuple[float, EvalResult, float, EvalResult, int]:
    """Shrink offsets geometrically toward both boundaries until the series
    shows certain opposite signs; the strict monotonicity of the gradient
    guarantees this succeeds once the offsets pass the root.  Each end is
    summed to the relative sign target first.  Returns both ends with their
    results and the sign at the low end."""
    off = standoff
    for _ in range(48):
        lo = a + off
        hi = 1.0 - off
        if not (a < lo < hi < 1.0) or off < 1e-14 * (1.0 - a):
            break
        res_lo = f.sign_result(lo)
        res_hi = f.sign_result(hi)
        sign_lo = _certain_sign(res_lo)
        sign_hi = _certain_sign(res_hi)
        if sign_lo is None or sign_hi is None:
            raise BracketingError(
                "series sign uncertain in the boundary layer; tighten abs_tol or "
                "raise max_terms in the truncation policy"
            )
        if sign_lo != sign_hi:
            return lo, res_lo, hi, res_hi, sign_lo
        off *= 0.5
    raise BracketingError(
        "no sign change found while sweeping toward the boundaries; this would "
        "contradict uniqueness of the radial critical point and is reported, "
        "not resolved"
    )


# Brent-Dekker stops once its bracket is within tol = 2**-52 |b| of its best
# point b on either side, one to two ulps; no step is shorter than tol
_BRENT_REL_TOL = 2.0**-52


def _pole_weight(a: float, order: int) -> Callable[[float], float]:
    """w(r) = ((1 - r)(r - a) / (1 - a)^2)^order, positive on (a, 1).

    The gradient has poles of order n - 1 at both spheres, so f w has f's
    sign and root but no poles.  Normalised by the gap, w is at most
    4^-order, and next to a sphere f w tends to a finite limit.  For n up
    to 130 a weighted solve ends where an unweighted one does: on the same
    root, or on the series' own TailEnvelopeError.
    """
    span2 = (1.0 - a) * (1.0 - a)
    return lambda r: ((1.0 - r) * (r - a) / span2) ** order


# _closed_root stops once a Newton step is within this share of the sweep
# bracket: the next would move the seed by about its square, far less than
# the closed part's root lies from the series' root
_SEED_TOL = 1e-6
_SEED_MAX_ITER = 40


def _closed_root(
    closed: Callable[[float], tuple[float, float]], lo: float, hi: float, sign_lo: int
) -> float:
    """Root in (lo, hi) of the closed part of the series, in floats only.

    ``closed(r)`` gives the closed part's value and slope, scaled as the
    series is, so that its sign at lo is ``sign_lo`` as the series' is.
    Newton's method runs from the middle of the bracket; a step that leaves
    the bracket of the signs seen so far bisects it instead.
    """
    tol = _SEED_TOL * (hi - lo)
    x = 0.5 * (lo + hi)
    for _ in range(_SEED_MAX_ITER):
        value, slope = closed(x)
        if (value > 0.0) == (sign_lo > 0):
            lo = x
        else:
            hi = x
        step = value / slope
        x -= step
        if abs(step) <= tol:
            break
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
    return x


def _first_iterate(seed: Callable[[], float], lo: float, hi: float) -> float | None:
    """``seed()`` where it lies strictly inside (lo, hi); None where it does
    not, is not finite, or cannot be computed."""
    try:
        x = seed()
    except (ArithmeticError, ValueError):
        return None
    return x if lo < x < hi else None


def _brent(
    f: _CountedSeries,
    lo: float,
    res_lo: EvalResult,
    hi: float,
    res_hi: EvalResult,
    weight: Callable[[float], float],
    seed: Callable[[], float],
) -> tuple[float, EvalResult, float, EvalResult]:
    """Brent-Dekker (zeroin) on a bracket with opposite computed signs.

    Secant, inverse quadratic and bisection steps as in Brent, Algorithms for
    Minimization without Derivatives (1973), ch. 4.  They, and the choice of
    the best point, read the values times ``weight(r) > 0`` (_pole_weight:
    without the poles at the ends, f's secants aim far from its root); the
    zero test and every sign decision read f's own values.  ``seed()``, where
    it lies strictly inside (lo, hi), is the first iterate and replaces the
    end of its sign as any iterate does; one that is not finite or raises
    ArithmeticError or ValueError is skipped.  Every iterate is summed to a
    relative sign target first: _SIGN_REL_TOL, or the step's length relative
    to the iterate where that is smaller, since an interpolation step moves
    by about that share of its value's error.  Returns the final bracket, low
    end first, with its results settled to the absolute policy; its ends
    keep the computed signs of ``lo`` and ``hi``.  It is one point twice
    where the computed value is exactly zero.

    Whatever the weight and the seed, the result is a bracket of opposite
    computed signs within about two ulps, which is all _bisect reads of it:
    they change how many series Brent sums, not the reported root.
    """
    # b is the best point, c the contrapoint of opposite sign, a the previous
    # b; fa, fb, fc are their weighted values
    b, rb, c, rc = hi, res_hi, lo, res_lo
    fb, fc = rb.value * weight(b), rc.value * weight(c)
    a, ra, fa = c, rc, fc
    d = e = b - a
    x = _first_iterate(seed, lo, hi)
    while True:
        if abs(fc) < abs(fb):
            a, ra, fa = b, rb, fb
            b, rb, fb, c, rc, fc = c, rc, fc, b, rb, fb
        if rb.value == 0.0:
            return b, rb, b, rb
        tol = _BRENT_REL_TOL * abs(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol:
            rb, rc = f.settled(b, rb), f.settled(c, rc)
            return (b, rb, c, rc) if b < c else (c, rc, b, rb)
        if x is not None:  # the seed, as the first step
            d = e = x - b
        elif abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * xm * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                t = fb / fc
                p = s * (2.0 * xm * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * xm * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, ra, fa = b, rb, fb
        if x is None:
            b += d if abs(d) > tol else (tol if xm > 0.0 else -tol)
        else:
            b, x = x, None
        rb = f.sign_result(b, min(_SIGN_REL_TOL, abs(d / b)))
        fb = rb.value * weight(b)
        if rb.value != 0.0 and (rb.value > 0.0) == (rc.value > 0.0):
            c, rc, fc = a, ra, fa
            d = e = b - a


def _bisect(
    f: _CountedSeries,
    lo: float,
    hi: float,
    sign_lo: int,
    p: float,
    res_p: EvalResult,
    q: float,
    res_q: EvalResult,
) -> tuple[float, EvalResult, float, EvalResult]:
    """Bisection of the sweep bracket [lo, hi] to adjacent doubles, given
    Brent's final bracket [p, q].

    The midpoints are those of plain bisection of [lo, hi].  Only midpoints
    within half a bracket width of [p, q] are evaluated; one farther out
    takes the side of the nearer end.  Rounding can flip the computed sign
    within a few ulps of the root, so the window reaches past [p, q]; where
    no flip lies beyond it, the end pair is the one plain bisection reaches.
    Returns the ends, low end first, with their results: adjacent doubles
    with opposite computed signs, or one point twice where the computed value
    is exactly zero.
    """
    margin = 0.5 * (q - p)
    res_lo = res_hi = None
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid < p - margin:
            lo, res_lo = mid, None
        elif mid > q + margin:
            hi, res_hi = mid, None
        else:
            res = res_p if mid == p else res_q if mid == q else f.result(mid)
            if res.value == 0.0:
                return mid, res, mid, res
            if (1 if res.value > 0.0 else -1) == sign_lo:
                lo, res_lo = mid, res
            else:
                hi, res_hi = mid, res
    # an end settled without an evaluation is one double outside the
    # evaluated window; it still needs its value
    return lo, res_lo or f.result(lo), hi, res_hi or f.result(hi)


# the sign-pinned certificate steps out from each end by 1, 2, 4, ... ulps
_PIN_MAX_ULPS = 128


def _pinned(f: _CountedSeries, x: float, res: EvalResult, step: float, want: int) -> bool:
    """Whether the series certainly has sign ``want`` at x or at x + k step
    for the first k in 1, 2, 4, ..., 128 where its sign is certain."""
    k = 0
    while True:
        sign = _certain_sign(res)
        if sign is not None:
            return sign == want
        k = 2 * k or 1
        if k > _PIN_MAX_ULPS:
            return False
        res = f.result(x + k * step)


def _solve(
    f: _CountedSeries,
    a: float,
    solver_tol: float,
    order: int,
    closed: Callable[[float], tuple[float, float]],
) -> tuple[float, float, str, tuple[float, float]]:
    """Certified root of the monotone series f in (a, 1).

    Sweep a bracket, run Brent-Dekker and bisection to adjacent doubles, and
    take the end with the smaller |value| as the root.  Its residual
    |f(r0)| + tail_bound is reported either way.  The ``"residual"``
    certificate holds when that residual is within ``solver_tol``.  Where a
    steep gradient moves by more than ``solver_tol`` from one double to the
    next, the ``"sign-pinned"`` certificate holds instead when certain
    opposite signs are found within 128 ulps outside both ends, so the root
    is pinned to a few ulps.  Brent's interpolation reads f times
    _pole_weight(a, order), ``order`` being that of f's poles at the spheres,
    and it starts from the root of ``closed``, the value and slope of f's
    closed part (see _closed_root).  Returns (r0, residual, certificate,
    sweep bracket).
    """
    standoff = DEFAULT_STANDOFF_FACTOR * (1.0 - a)
    f.phase = "sweep"
    lo, res_lo, hi, res_hi, sign_lo = _sweep_bracket(f, a, standoff)
    f.phase = "brent"
    seed = lambda: _closed_root(closed, lo, hi, sign_lo)  # noqa: E731
    weight = _pole_weight(a, order)
    p, res_p, q, res_q = _brent(f, lo, res_lo, hi, res_hi, weight, seed)
    f.phase = "bisection"
    x_lo, r_lo, x_hi, r_hi = _bisect(f, lo, hi, sign_lo, p, res_p, q, res_q)
    root, res = (x_lo, r_lo) if abs(r_lo.value) <= abs(r_hi.value) else (x_hi, r_hi)
    residual = abs(res.value) + res.tail_bound
    if residual <= solver_tol:
        return root, residual, "residual", (lo, hi)
    ulp = x_hi - x_lo or 2.0**-52 * x_hi
    f.phase = "pinning"
    if _pinned(f, x_lo, r_lo, -ulp, sign_lo) and _pinned(f, x_hi, r_hi, ulp, -sign_lo):
        return root, residual, "sign-pinned", (lo, hi)
    raise BracketingError(
        f"residual {residual} exceeds solver tolerance {solver_tol} at adjacent "
        f"doubles and no certain sign change lies within {_PIN_MAX_ULPS} ulps; "
        "tighten the truncation policy"
    )


def _series_policy(policy: TruncationPolicy | None, solver_tol: float) -> TruncationPolicy:
    """The caller's policy with abs_tol within the residual budget and an
    absolute target: the reported numbers are summed to it.  The budget must
    be positive and finite."""
    if not 0.0 < solver_tol < math.inf:
        raise DomainValidationError(f"solver_tol must be positive and finite, got {solver_tol!r}")
    base = policy if policy is not None else TruncationPolicy()
    return replace(base, abs_tol=min(base.abs_tol, 0.05 * solver_tol), rel_tol=0.0)


def find_critical_point(
    geom: AnnulusGeometry,
    policy: TruncationPolicy | None = None,
    solver_tol: float = 1e-12,
) -> CriticalPointReport:
    """Locate the unique radial critical point of the Robin function.

    Uses the radial gradient r R'(r) for n >= 3 and the planar R'(r) for
    n = 2.  The second derivative comes from one sum of the gradient's slope
    series at r0, and its uncertainty from that sum's certified tail bound
    and the root's residual (see CriticalPointReport), so nondegeneracy can
    be judged from the report alone.
    """
    pol = _series_policy(policy, solver_tol)
    a = geom.a
    # the series f solved for is R'(r) times d(r)
    family = _radial(geom)
    f = _CountedSeries(family.gradient, pol)
    r0, residual, certificate, bracket = _solve(f, a, solver_tol, geom.n - 1, family.closed)

    f.phase = "second_derivative"
    slope_res = f.tally(family.slope(r0, pol))
    d0 = family.d(r0)
    second = slope_res.value / d0  # R'' = f'(r0)/d(r0) at the zero of f
    # R''(r0) = f'(r0)/d - f(r0) d'/d^2, with |f(r0)| <= residual and
    # |d'| <= d/r (d = r, or 1).  The quotient errs by at most
    # u/(1 - u) |second| < 2u |second|, and the bound's own four roundings
    # by at most 4u of it.
    bound = slope_res.tail_bound / d0 + residual / (r0 * d0)
    uncertainty = (1.0 + 4.0 * _U) * bound + 2.0 * _U * abs(second)

    return CriticalPointReport(
        r0=r0,
        bracket=bracket,
        residual=residual,
        certificate=certificate,
        second_derivative=second,
        second_derivative_uncertainty=uncertainty,
        is_radial_minimum=second > 0.0,
        method=(
            f"Brent-Dekker then bisection to adjacent doubles on {family.name}, "
            "series second derivative"
        ),
        evaluations=f.calls,
        phases=f.phase_counts(),
    )


def concentration_root(
    geom: AnnulusGeometry,
    policy: TruncationPolicy | None = None,
    solver_tol: float = 1e-12,
) -> float:
    """Root of the concentration-radius equation (n >= 3): find_critical_point's r0.

    The equation is the radial gradient times -omega/2
    (green.critical_equation_eval), so it shares the gradient's unique zero;
    the root is found, and certified, as find_critical_point finds it.
    """
    geom.require_series_dim()
    return find_critical_point(geom, policy, solver_tol).r0


def count_gradient_sign_changes(
    geom: AnnulusGeometry,
    policy: TruncationPolicy | None = None,
    num: int = 2000,
) -> tuple[int, list[float]]:
    """Count sign changes of the radial gradient on a standoff grid, evaluated
    as one table.

    Returns the count and the change locations.  Anything other than exactly
    one change contradicts uniqueness of the critical point and should be
    treated as a reported defect by callers, never silently fixed.
    """
    require_integer(num, "num", 3)
    pol = policy if policy is not None else TruncationPolicy(abs_tol=1e-8)
    a = geom.a
    delta = DEFAULT_STANDOFF_FACTOR * (1.0 - a)
    lo = a + delta
    hi = 1.0 - delta
    step = (hi - lo) / (num - 1)
    radii = lo + np.arange(num) * step
    values = _radial(geom).gradient_grid(radii, pol).value
    changes: list[float] = []
    prev_sign = 0
    prev_r = lo
    for r, v in zip(radii.tolist(), values.tolist()):
        sign = 1 if v > 0 else (-1 if v < 0 else 0)
        if sign != 0:
            if prev_sign != 0 and sign != prev_sign:
                changes.append(0.5 * (prev_r + r))
            prev_sign = sign
            prev_r = r
    return len(changes), changes
