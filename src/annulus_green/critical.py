"""Locating the unique radial critical point of the Robin function.

For n >= 3 the zero of the strictly decreasing radial gradient r R'(r) is
bracketed by a geometric sweep out of both boundary layers (where its signs
are guaranteed), located by Anderson-Bjorck regula falsi to within about two
ulps, and then bisected to adjacent doubles; for n = 2 the same procedure
runs on the planar R'(r), which is strictly increasing.  green.py owns that
choice: green._radial gives the gradient, its slope and its closed part for
the geometry's dimension, and this module never branches on it.  The root
is the end of that pair with the smaller |value|, and it carries one of two
certificates: ``"residual"`` when |value| + tail_bound is within the solver
tolerance, or ``"sign-pinned"`` when a steep gradient moves by more than
that tolerance from one double to the next but certain opposite signs lie
within 128 ulps on both sides.  The report carries the second derivative
from the slope series, a bound on its error that rests on that series' own
certified tail and on the residual, and the resulting minimum/maximum
classification as evidence rather than assumption, and the evaluations and
terms of each phase.  concentration_root returns the same r0 as the root of
the concentration-radius equation, the gradient times -omega/2.

One routine, _interpolate, finds both the series' root and the seed it
starts from.  The seed is the root of the series' closed form (the Kelvin
images, without the first image layer that the series adds to them; for
n = 2 the planar closed forms), found in floats only.  Both
runs' secants read g = f w with w = ((1 - r)(r - a)/(1 - a)^2)^(n - 1),
which has f's sign and root but not its poles of order n - 1 at the
spheres; their sign decisions, their zero test and the brackets they return
stay f's.  On a draw of 1 500 geometries over n = 2..6, a in [0.05, 0.95]
the seed and the weight take the interpolation from 11.1 evaluations per
solve to 6.4, and a solve from 16.0 to 11.1 (scripts/solver_phases.py).

The sweep and the interpolation only decide signs, so they sum each
gradient to a relative target: until its tail is within _SIGN_REL_TOL of
its value, or abs_tol if that is larger (see summation.sum_series).  That
saves the deep modes of the large values away from the root.  The
interpolation tightens the target to an iterate's distance from its bracket
relative to the iterate, so that it reads values as accurate as its steps
are short.  A certain sign of a relaxed result is the sign of the true
value, and a relaxed result whose sign is not certain is summed again to
the absolute policy, so the sweep stops, and raises BracketingError, where
an absolute sweep does.  Bisection, the sign-pinned certificate and the
slope series keep the absolute policy.  A solve keeps one store of absolute
sums keyed by radius (_CountedSeries), so its phases pass radii alone and
no radius is summed to the absolute policy twice: the pinning phase reads
the points bisection summed, and a relaxed sum that provably stopped where
the absolute one does is filed as absolute.  Every number the report
carries (r0, bracket, residual, certificate, second derivative and its
uncertainty) is therefore computed from absolute sums, at the midpoints of
the sweep bracket that plain bisection visits; the interpolation's bracket,
which of them are evaluated.  On 20 000 seeded geometries (n = 2..6, a in
[0.05, 0.95]) every field of the report except ``evaluations`` and
``phases`` matched an all-absolute solve, as it did on 8 000 (n = 2..7, a in
[0.787, 0.99]) where a relative target may take the gradient off the image
route (green._relaxed_modes), and on 2 500 (n = 2..7, a up to 0.98) it
matched an unseeded, unweighted one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable

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

# the sweep and the interpolation only decide signs: they sum each series
# until its tail is within this share of its value (or abs_tol, if larger),
# so a converged result has |value| >= 20 tail and, rounding aside, a
# certain sign
_SIGN_REL_TOL = 0.05

# the solver phases, in the order they run; the second-derivative phase
# sums the slope series once, at r0
PHASES = ("sweep", "interpolation", "bisection", "pinning", "second_derivative")


class PhaseCounts(namedtuple("PhaseCounts", "phase evaluations terms")):
    """Series evaluations made by one solver phase and the terms they summed."""

    __slots__ = ()


class CriticalPointReport(
    namedtuple(
        "CriticalPointReport",
        "r0 bracket residual certificate second_derivative second_derivative_uncertainty "
        "is_radial_minimum method evaluations phases",
    )
):
    """Root location plus the evidence used to certify it.

    ``second_derivative`` is R''(r0) read from the slope series at the
    reported double r0, and ``second_derivative_uncertainty`` bounds its
    error against the exact R''(r0) at that double: the slope's tail bound
    (truncation and rounding) over d(r0), plus ``residual`` / (r0 d(r0)) for
    the gradient not vanishing exactly at r0, plus the rounding of the
    quotient and of that sum.  ``nondegenerate`` holds where |R''(r0)| is
    certainly positive.  ``evaluations`` counts every series evaluation of
    the solve, the slope series included; ``phases`` splits it, and the
    terms summed, over PHASES.  ``bracket`` is a (lo, hi) pair of floats and
    ``phases`` a PhaseCounts per phase.
    """

    __slots__ = ()

    @property
    def nondegenerate(self) -> bool:
        return abs(self.second_derivative) > self.second_derivative_uncertainty


class _CountedSeries:
    """Wraps a series evaluator fn(r, policy), counting its evaluations and
    their terms per phase of PHASES; ``phase`` names the current one.

    It keeps one store of absolute sums per solve, keyed by radius.
    ``result`` sums to the absolute policy where the store has no sum at r.
    ``sign_result`` returns the stored sum where there is one, and otherwise
    sums to a relative target, _SIGN_REL_TOL or a smaller one.  Where that
    target cannot have stopped the sum early (the sum ran to max_terms, or
    rel |value| stayed below abs_tol on every row of the stopping streak) the
    result is the absolute one and is stored; otherwise it is kept where its
    sign is certain and replaced by ``result`` where not.
    """

    def __init__(
        self, fn: Callable[[float, TruncationPolicy], EvalResult], policy: TruncationPolicy
    ):
        self._fn = fn
        self._policy = policy
        self._sign_policy = policy._replace(rel_tol=_SIGN_REL_TOL)
        self._exact_limit = self._limit(_SIGN_REL_TOL)
        self._sums: dict[float, EvalResult] = {}
        self.phase = PHASES[0]
        self._counts = {name: [0, 0] for name in PHASES}

    def tally(self, res: EvalResult) -> EvalResult:
        """Count ``res`` as an evaluation of the current phase."""
        count = self._counts[self.phase]
        count[0] += 1
        count[1] += res.terms_used
        return res

    def result(self, r: float) -> EvalResult:
        res = self._sums.get(r)
        if res is None:
            res = self._sums[r] = self.tally(self._fn(r, self._policy))
        return res

    def _limit(self, rel: float) -> float:
        # a term is at most the tail certified on the row before it, so the
        # running sum moves by at most the larger of abs_tol and rel |sum| per
        # row; where rel |final sum| is at most this, rel |sum| <= abs_tol held
        # on every row of the stopping streak, and the relaxed sum stopped
        # where the absolute one does (one spare rel covers rounding).  The
        # rows are the absolute policy's too: a relative target takes a
        # series off the image route only where rel |value| > abs_tol
        # (green._relaxed_modes)
        return self._policy.abs_tol * max(0.0, 1.0 - self._policy.tail_safety * rel)

    def sign_result(self, r: float, rel: float | None = None) -> EvalResult:
        if r in self._sums:
            return self._sums[r]
        policy, exact_limit = self._sign_policy, self._exact_limit
        if rel is None or rel >= policy.rel_tol:
            rel = policy.rel_tol
        else:
            p = self._policy
            policy = TruncationPolicy(p.abs_tol, p.max_terms, p.tail_safety, rel)
            exact_limit = self._limit(rel)
        res = self.tally(self._fn(r, policy))
        if not res.converged or rel * abs(res.value) <= exact_limit:
            self._sums[r] = res  # summed as the absolute policy sums it
            return res
        return res if _certain_sign(res) is not None else self.result(r)

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
) -> tuple[float, float, float, float]:
    """Shrink offsets geometrically toward both boundaries until the series
    shows certain opposite signs; the strict monotonicity of the gradient
    guarantees this succeeds once the offsets pass the root.  Each end is
    summed to the relative sign target first.  Returns both ends, low end
    first, and the computed values there, whose signs are certain."""
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
            return lo, hi, res_lo.value, res_hi.value
        off *= 0.5
    raise BracketingError(
        "no sign change found while sweeping toward the boundaries; this would "
        "contradict uniqueness of the radial critical point and is reported, "
        "not resolved"
    )


# the interpolation stops once its bracket is at most 2 tol wide, with
# tol = 2**-52 |b| (b its larger end), one to two ulps; every iterate lies at
# least tol inside the bracket
_BRACKET_REL_TOL = 2.0**-52


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


def _interpolate(
    value: Callable[[float, float], float],
    lo: float,
    hi: float,
    v_lo: float,
    v_hi: float,
    weight: Callable[[float], float],
    x: float | None = None,
) -> tuple[float, float]:
    """Anderson-Bjorck regula falsi on a bracket [lo, hi] whose values v_lo
    and v_hi have opposite signs.

    ``value(r, step)`` is the value at r, ``step`` being r's distance from
    the nearer end of the bracket.  Secant steps read the values times
    ``weight(r) > 0`` (_pole_weight: without the poles at the ends, f's
    secants aim far from its root); the zero test and every sign decision
    read the values themselves.  Where the same end is kept twice in a row,
    its weighted value is scaled by m = 1 - g_x/g_b, g_x and g_b being the
    new and the replaced weighted values, or by 1/2 where m <= 0 (Anderson
    and Bjorck, BIT 13, 1973): without it regula falsi keeps one end for
    good on a one-sided function and converges linearly.  ``x``, where
    given, is the first iterate.  An iterate is moved to at least tol inside
    the bracket, and one that is not a number, a secant through a weight
    that underflowed to 0 among them, is the midpoint.  Returns the final
    bracket, at most 2 tol wide; its ends keep the signs of ``lo`` and
    ``hi``.  It is one point twice where the value is exactly zero.

    Whatever the weight and the first iterate, the result is a bracket of
    opposite computed signs within about two ulps, which is all _bisect
    reads of it: they change how many series the solver sums, not the
    reported root.
    """
    # the values are never 0 here, so a weighted value of 0 is a weight that
    # underflowed and says nothing of the root: it is read as NaN, which
    # makes a secant through it the midpoint
    positive = v_lo > 0.0
    g_lo, g_hi = v_lo * weight(lo) or math.nan, v_hi * weight(hi) or math.nan
    kept = 0  # the end the last iterate left in place: -1 lo, 1 hi
    while True:
        tol = _BRACKET_REL_TOL * max(abs(lo), abs(hi))
        if hi - lo <= 2.0 * tol:
            return lo, hi
        if x is None:
            x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        x = min(max(x, lo + tol), hi - tol) if x == x else 0.5 * (lo + hi)
        v = value(x, min(x - lo, hi - x))
        if v == 0.0:
            return x, x
        g = v * weight(x) or math.nan
        if (v > 0.0) == positive:
            if kept > 0:
                m = 1.0 - g / g_lo
                g_hi *= m if m > 0.0 else 0.5
            lo, g_lo, kept = x, g, 1
        else:
            if kept < 0:
                m = 1.0 - g / g_hi
                g_lo *= m if m > 0.0 else 0.5
            hi, g_hi, kept = x, g, -1
        x = None


def _seed(
    closed: Callable[[float], float],
    lo: float,
    hi: float,
    sign_lo: int,
    weight: Callable[[float], float],
) -> float | None:
    """The root in (lo, hi) of the series' closed part, in floats only, or
    None where there is none to take.

    ``closed(r)`` is the closed part's value, scaled as the series is.  It
    is solved by _interpolate with the series' weight.  There is no seed
    where the closed part does not have the series' signs at lo and hi,
    where it raises ArithmeticError or ValueError, or where its root is not
    strictly inside (lo, hi).
    """
    try:
        c_lo, c_hi = closed(lo), closed(hi)
        if not c_lo * sign_lo > 0.0 > c_hi * sign_lo:
            return None
        x = _interpolate(lambda r, step: closed(r), lo, hi, c_lo, c_hi, weight)[0]
    except (ArithmeticError, ValueError):
        return None
    return x if lo < x < hi else None


def _bisect(
    f: _CountedSeries, lo: float, hi: float, sign_lo: int, p: float, q: float
) -> tuple[float, float]:
    """Bisection of the sweep bracket [lo, hi] to adjacent doubles, given
    the interpolation's final bracket [p, q].

    The midpoints are those of plain bisection of [lo, hi].  Only midpoints
    within half a bracket width of [p, q] are evaluated, to the absolute
    policy; one farther out takes the side of the nearer end.  Rounding can
    flip the computed sign within a few ulps of the root, so the window
    reaches past [p, q], by at least the next double on each side: half a
    one-ulp bracket is an exact tie, which rounds to p or q or past them by
    their last bit.  Where no flip lies beyond the window, the end pair is
    the one plain bisection reaches.  Returns the ends, low end first:
    adjacent doubles with opposite computed signs, or one point twice where
    the computed value is exactly zero.
    """
    margin = 0.5 * (q - p)
    below = min(p - margin, math.nextafter(p, -math.inf))
    above = max(q + margin, math.nextafter(q, math.inf))
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        if mid < below:
            lo = mid
        elif mid > above:
            hi = mid
        else:
            value = f.result(mid).value
            if value == 0.0:
                return mid, mid
            if (value > 0.0) == (sign_lo > 0):
                lo = mid
            else:
                hi = mid


# the sign-pinned certificate steps out from each end by 1, 2, 4, ... ulps
_PIN_MAX_ULPS = 128


def _pinned(f: _CountedSeries, x: float, step: float, want: int) -> bool:
    """Whether the series certainly has sign ``want`` at x or at x + k step
    for the first k in 1, 2, 4, ..., 128 where its sign is certain."""
    k = 0
    while True:
        sign = _certain_sign(f.result(x + k * step))
        if sign is not None:
            return sign == want
        k = 2 * k or 1
        if k > _PIN_MAX_ULPS:
            return False


def _solve(
    f: _CountedSeries,
    a: float,
    solver_tol: float,
    order: int,
    closed: Callable[[float], float],
) -> tuple[float, float, str, tuple[float, float]]:
    """Certified root of the monotone series f in (a, 1).

    Sweep a bracket, run Anderson-Bjorck regula falsi and bisection to
    adjacent doubles, and take the end with the smaller |value| as the root.
    Its residual |f(r0)| + tail_bound is reported either way.  The
    ``"residual"`` certificate holds when that residual is within
    ``solver_tol``.  Where a steep gradient moves by more than ``solver_tol``
    from one double to the next, the ``"sign-pinned"`` certificate holds
    instead when certain opposite signs are found within 128 ulps outside
    both ends, so the root is pinned to a few ulps.  The interpolation reads
    f times _pole_weight(a, order), ``order`` being that of f's poles at the
    spheres, and it starts from the root of ``closed``, f's closed part (see
    _seed).  Returns (r0, residual, certificate, sweep bracket).
    """
    standoff = DEFAULT_STANDOFF_FACTOR * (1.0 - a)
    f.phase = "sweep"
    lo, hi, v_lo, v_hi = _sweep_bracket(f, a, standoff)
    sign_lo = 1 if v_lo > 0.0 else -1
    f.phase = "interpolation"
    weight = _pole_weight(a, order)
    # an iterate is summed to a relative sign target of its distance from
    # the bracket relative to itself, since a secant step moves by about
    # that share of its value's error
    value = lambda r, step: f.sign_result(r, abs(step / r)).value  # noqa: E731
    x = _seed(closed, lo, hi, sign_lo, weight)
    p, q = _interpolate(value, lo, hi, v_lo, v_hi, weight, x)
    f.phase = "bisection"
    x_lo, x_hi = _bisect(f, lo, hi, sign_lo, p, q)
    # an end that bisection reached without evaluating it is summed here
    res_lo, res_hi = f.result(x_lo), f.result(x_hi)
    root, res = (x_lo, res_lo) if abs(res_lo.value) <= abs(res_hi.value) else (x_hi, res_hi)
    residual = abs(res.value) + res.tail_bound
    if residual <= solver_tol:
        return root, residual, "residual", (lo, hi)
    ulp = x_hi - x_lo or 2.0**-52 * x_hi
    f.phase = "pinning"
    if _pinned(f, x_lo, -ulp, sign_lo) and _pinned(f, x_hi, ulp, -sign_lo):
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
    return base._replace(abs_tol=min(base.abs_tol, 0.05 * solver_tol), rel_tol=0.0)


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
            "Anderson-Bjorck regula falsi then bisection to adjacent doubles on "
            f"{family.name}, series second derivative"
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
    import numpy as np

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
