"""Locating the unique radial critical point of the Robin function.

For n >= 3 the zero of the strictly decreasing radial gradient r R'(r) is
bracketed by a geometric sweep out of both boundary layers (where its signs
are guaranteed) and then bisected; for n = 2 the same procedure runs on the
planar R'(r), which is strictly increasing.  The report carries the observed
second-derivative value, its cross-check uncertainty, and the resulting
minimum/maximum classification as evidence rather than assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    AnnulusGeometry,
    BracketingError,
    DomainValidationError,
    EvalResult,
    TruncationPolicy,
)
from .green import (
    critical_equation_eval,
    robin2d_first,
    robin2d_second,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)

# the gradient diverges at both boundaries; stand off before sweeping
DEFAULT_STANDOFF_FACTOR = 1e-3


@dataclass(frozen=True)
class CriticalPointReport:
    """Root location plus the evidence used to certify it."""

    r0: float
    bracket: tuple[float, float]
    residual: float
    second_derivative: float
    second_derivative_uncertainty: float
    is_radial_minimum: bool
    method: str
    evaluations: int

    @property
    def second_derivative_sign(self) -> int:
        return 1 if self.second_derivative > 0 else -1

    @property
    def nondegenerate(self) -> bool:
        return abs(self.second_derivative) > self.second_derivative_uncertainty


class _CountedSeries:
    """Wraps a series evaluator, counting calls and exposing bare values."""

    def __init__(self, fn: Callable[[float], EvalResult]):
        self._fn = fn
        self.calls = 0

    def result(self, r: float) -> EvalResult:
        self.calls += 1
        return self._fn(r)

    def value(self, r: float) -> float:
        return self.result(r).value


def _certain_sign(res: EvalResult) -> int | None:
    """Sign of the true series value, or None if the tail could flip it."""
    if not res.converged:
        return None
    if abs(res.value) <= 10.0 * res.tail_bound:
        return None
    return 1 if res.value > 0.0 else -1


def _sweep_bracket(
    f: _CountedSeries, a: float, standoff: float
) -> tuple[float, float, int, int]:
    """Shrink offsets geometrically toward both boundaries until the series
    shows certain opposite signs; the strict monotonicity of the gradient
    guarantees this succeeds once the offsets pass the root."""
    off = standoff
    for _ in range(48):
        lo = a + off
        hi = 1.0 - off
        if not (a < lo < hi < 1.0) or off < 1e-14 * (1.0 - a):
            break
        res_lo = f.result(lo)
        res_hi = f.result(hi)
        sign_lo = _certain_sign(res_lo)
        sign_hi = _certain_sign(res_hi)
        if sign_lo is None or sign_hi is None:
            raise BracketingError(
                "series sign uncertain in the boundary layer; tighten abs_tol or "
                "raise max_terms in the truncation policy"
            )
        if sign_lo != sign_hi:
            return lo, hi, sign_lo, sign_hi
        off *= 0.5
    raise BracketingError(
        "no sign change found while sweeping toward the boundaries; this would "
        "contradict uniqueness of the radial critical point and is reported, "
        "not resolved"
    )


def _bisect(
    f: _CountedSeries, lo: float, hi: float, sign_lo: int, solver_tol: float
) -> tuple[float, float]:
    """Bisection to floating-point width, then a residual certificate.

    The bracket shrinks until its ends are adjacent doubles; the root is the
    end with the smaller |value|, since a steep gradient can change by more
    than the solver tolerance from one double to the next.
    """
    flo_sign = sign_lo
    a_, b_ = lo, hi
    while True:
        mid = 0.5 * (a_ + b_)
        if mid <= a_ or mid >= b_:
            break
        v = f.value(mid)
        if v == 0.0:
            a_ = b_ = mid
            break
        if (1 if v > 0 else -1) == flo_sign:
            a_ = mid
        else:
            b_ = mid
    res_a, res_b = f.result(a_), f.result(b_)
    root, res = (a_, res_a) if abs(res_a.value) <= abs(res_b.value) else (b_, res_b)
    residual = abs(res.value) + res.tail_bound
    if residual > solver_tol:
        raise BracketingError(
            f"residual {residual} exceeds solver tolerance {solver_tol} at the "
            "bisection limit; tighten the truncation policy"
        )
    return root, residual


def _series_policy(policy: TruncationPolicy | None, solver_tol: float) -> TruncationPolicy:
    base = policy if policy is not None else TruncationPolicy()
    return TruncationPolicy(
        abs_tol=min(base.abs_tol, 0.05 * solver_tol),
        max_terms=base.max_terms,
        tail_safety=base.tail_safety,
    )


def find_critical_point(
    geom: AnnulusGeometry,
    policy: TruncationPolicy | None = None,
    solver_tol: float = 1e-12,
) -> CriticalPointReport:
    """Locate the unique radial critical point of the Robin function.

    Uses the radial gradient r R'(r) for n >= 3 and the planar R'(r) for
    n = 2.  The second derivative is evaluated from its own series and
    cross-checked against a central difference of the gradient; the reported
    uncertainty is the discrepancy between the two routes plus the series
    tails, so nondegeneracy can be judged from the report alone.
    """
    if solver_tol <= 0.0:
        raise DomainValidationError(f"solver_tol must be positive, got {solver_tol!r}")
    pol = _series_policy(policy, solver_tol)
    a = geom.a

    if geom.n >= 3:
        f = _CountedSeries(lambda r: robin_radial_gradient(geom, r, pol))
    else:
        f = _CountedSeries(lambda r: robin2d_first(a, r, pol))

    standoff = DEFAULT_STANDOFF_FACTOR * (1.0 - a)
    lo, hi, sign_lo, _ = _sweep_bracket(f, a, standoff)
    r0, residual = _bisect(f, lo, hi, sign_lo, solver_tol)

    h = 1e-4 * (1.0 - a)
    if geom.n >= 3:
        slope = robin_radial_gradient_derivative(geom, r0, pol)
        second = slope.value / r0  # R'' = f'(r0)/r0 at the zero of f = r R'
        plus = f.result(r0 + h)
        minus = f.result(r0 - h)
        fd = (plus.value / (r0 + h) - minus.value / (r0 - h)) / (2.0 * h)
        fd_tail = (plus.tail_bound + minus.tail_bound) / (2.0 * h * (r0 - h))
        uncertainty = abs(second - fd) + fd_tail + slope.tail_bound / r0
        method = "bisection on r*R'(r), series second derivative"
    else:
        second_res = robin2d_second(a, r0, pol)
        second = second_res.value
        plus = f.result(r0 + h)
        minus = f.result(r0 - h)
        fd = (plus.value - minus.value) / (2.0 * h)
        fd_tail = (plus.tail_bound + minus.tail_bound) / (2.0 * h)
        uncertainty = abs(second - fd) + fd_tail + second_res.tail_bound
        method = "bisection on R'(r), series second derivative"

    return CriticalPointReport(
        r0=r0,
        bracket=(lo, hi),
        residual=residual,
        second_derivative=second,
        second_derivative_uncertainty=uncertainty,
        is_radial_minimum=second > 0.0,
        method=method,
        evaluations=f.calls,
    )


def refine_critical_point(
    geom: AnnulusGeometry,
    r_start: float,
    policy: TruncationPolicy | None = None,
    solver_tol: float = 1e-12,
    max_iter: int = 30,
) -> float:
    """Derivative-based refinement of a critical-radius estimate.

    Newton iteration on the gradient with its own derivative series (the
    planar pair for n = 2); a route independent of bisection, kept for
    cross-method agreement checks.  The start must lie inside the gap and
    close enough that the iterates stay there.
    """
    if solver_tol <= 0.0:
        raise DomainValidationError(f"solver_tol must be positive, got {solver_tol!r}")
    pol = _series_policy(policy, solver_tol)
    a = geom.a
    if geom.n >= 3:
        fun = lambda r: robin_radial_gradient(geom, r, pol).value
        slope = lambda r: robin_radial_gradient_derivative(geom, r, pol).value
    else:
        fun = lambda r: robin2d_first(a, r, pol).value
        slope = lambda r: robin2d_second(a, r, pol).value
    r = float(r_start)
    if not (a < r < 1.0):
        raise DomainValidationError(f"start {r} outside the open gap ({a}, 1)")
    for _ in range(max_iter):
        fv = fun(r)
        if abs(fv) <= solver_tol:
            return r
        sv = slope(r)
        if sv == 0.0:
            break
        step = fv / sv
        nxt = r - step
        if not (a < nxt < 1.0):
            nxt = 0.5 * (r + (a if step > 0 else 1.0))
        if abs(nxt - r) < 1e-16:
            r = nxt
            break
        r = nxt
    if abs(fun(r)) > solver_tol:
        raise BracketingError(
            f"derivative refinement stalled at residual {abs(fun(r))} > {solver_tol}"
        )
    return r


def concentration_root(
    geom: AnnulusGeometry,
    policy: TruncationPolicy | None = None,
    solver_tol: float = 1e-12,
) -> float:
    """Root of the concentration-radius equation (n >= 3).

    The equation is the radial-gradient series stripped of its constant
    prefactor, so the returned radius coincides with the critical point of
    find_critical_point up to the combined solver tolerances.
    """
    geom.require_series_dim()
    if solver_tol <= 0.0:
        raise DomainValidationError(f"solver_tol must be positive, got {solver_tol!r}")
    pol = _series_policy(policy, solver_tol)
    f = _CountedSeries(lambda r: critical_equation_eval(geom, r, pol))
    standoff = DEFAULT_STANDOFF_FACTOR * (1.0 - geom.a)
    lo, hi, sign_lo, _ = _sweep_bracket(f, geom.a, standoff)
    # the root equation is -(omega/2) times the gradient, so the residual
    # budget scales by the same factor
    root, _ = _bisect(f, lo, hi, sign_lo, solver_tol * geom.omega / 2.0)
    return root


def count_gradient_sign_changes(
    geom: AnnulusGeometry,
    policy: TruncationPolicy | None = None,
    num: int = 2000,
    standoff_factor: float = DEFAULT_STANDOFF_FACTOR,
) -> tuple[int, list[float]]:
    """Count sign changes of the radial gradient on a standoff grid.

    Returns the count and the change locations.  Anything other than exactly
    one change contradicts uniqueness of the critical point and should be
    treated as a reported defect by callers, never silently fixed.
    """
    if num < 3:
        raise DomainValidationError(f"need at least 3 grid points, got {num!r}")
    pol = policy if policy is not None else TruncationPolicy(abs_tol=1e-8)
    a = geom.a
    delta = standoff_factor * (1.0 - a)
    lo = a + delta
    hi = 1.0 - delta
    step = (hi - lo) / (num - 1)
    changes: list[float] = []
    prev_sign = 0
    prev_r = lo
    for i in range(num):
        r = lo + i * step
        if geom.n >= 3:
            v = robin_radial_gradient(geom, r, pol).value
        else:
            v = robin2d_first(a, r, pol).value
        sign = 1 if v > 0 else (-1 if v < 0 else 0)
        if sign != 0:
            if prev_sign != 0 and sign != prev_sign:
                changes.append(0.5 * (prev_r + r))
            prev_sign = sign
            prev_r = r
    return len(changes), changes
