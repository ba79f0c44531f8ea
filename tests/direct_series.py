"""Direct (unsplit) diagonal series of the Robin family, kept as a test oracle.

These are the series exactly as the package summed them before the two-image
split: every mode keeps its full denominator 1 - a^(2m+n-2), so the term
ratio tends to max(r^2, a^2/r^2) and the cost grows like 1/dist(r, boundary).
They share no closed form with the split evaluators in
``annulus_green.green``, which is what makes them an independent check at
interior radii.  The values are bit-for-bit those of the old evaluators; the
reported ``tail_bound`` adds a first-order allowance for their rounding
(``_certified``) to the truncation tail, which is all the old code reported.
"""

from __future__ import annotations

import math

from annulus_green.core import AnnulusGeometry, DomainValidationError, EvalResult, TruncationPolicy
from annulus_green.summation import sum_series


_U = 2.0**-53


def _certified(
    triples, policy: TruncationPolicy, a: float, k: int, first_mode: int = 0
) -> EvalResult:
    """sum_series, with a first-order bound on the rounding of the terms
    added to the tail.

    Mode m's radial products take up to 4m + k + 3 roundings in their
    incremental updates and the binomial 2m more; 1 - A_m inherits the
    2m + 1 roundings of A_m = a^(k+2m), amplified by A_m / (1 - A_m); the
    mode's own arithmetic, the prefactor (omega included) and the compensated
    sum add fewer than 48.  Every envelope below is at least half the sum of
    the absolute values of its mode's parts.
    """
    rounding = [0.0]

    def tallied():
        for i, (term, env, rho) in enumerate(triples):
            m = i + first_mode
            big_a = a ** (k + 2 * m)
            rounding[0] += 2.0 * env * (6 * m + k + 48 + (2 * m + 1) * big_a / (1.0 - big_a))
            yield term, env, rho

    res = sum_series(tallied(), policy)
    return EvalResult(res.value, res.terms_used, res.tail_bound + _U * rounding[0], res.converged)


def _radial_state(n: int, a: float, r: float):
    """Shared per-mode radial products for the diagonal (Robin) series.

    Yields (m, binom, one_minus_A, t1, t2, t4) with
      t1 = r^(2m), t2 = a^(2m+n-2) / r^(n-2), t4 = a^(2m+n-2) / r^(2m+2n-4),
    and binom = C(n+m-3, m); all advance by per-step factors in (0, 1).
    """
    t1 = 1.0
    t2 = (a / r) ** (n - 2)
    t4 = a ** (n - 2) / r ** (2 * (n - 2))
    big_a = a ** (n - 2)
    binom = 1.0
    q1 = r * r
    q2 = a * a
    q4 = (a / r) ** 2
    m = 0
    while True:
        yield m, binom, 1.0 - big_a, t1, t2, t4
        t1 *= q1
        t2 *= q2
        t4 *= q4
        big_a *= a * a
        binom *= (n + m - 2) / (m + 1)
        m += 1


def robin_eval(geom: AnnulusGeometry, r: float, policy: TruncationPolicy) -> EvalResult:
    """Robin function (diagonal regular part of the Green function) at radius r.

    Negative on (a, 1) and divergent toward both boundary spheres; near the
    boundaries the policy budget decides how deep the series goes, and an
    exhausted budget is reported through converged = False.
    """
    geom.require_series_dim()
    geom.require_interior_radius(r)
    n, a, omega = geom.n, geom.a, geom.omega
    env_k = 1.0 / ((n - 2) * omega * (1.0 - a ** (n - 2)))
    qmax = max(r * r, (a / r) ** 2)

    def triples():
        for m, binom, one_minus_a, t1, t2, t4 in _radial_state(n, a, r):
            # numerator as a sum of two nonnegative pieces: no cancellation blowup
            term = -binom * ((t1 - t2) + (t4 - t2)) / ((n - 2) * one_minus_a * omega)
            env = env_k * binom * (t1 + t4)
            rho = (n + m - 2) / (m + 1) * qmax
            yield term, env, rho

    return _certified(triples(), policy, a, n - 2)


def robin_radial_gradient(
    geom: AnnulusGeometry, r: float, policy: TruncationPolicy
) -> EvalResult:
    """The radial combination r * R'(r) of the Robin function.

    Strictly decreasing in r, +inf toward the inner sphere and -inf toward
    the outer sphere, so its unique zero is the radial critical point.
    """
    geom.require_series_dim()
    geom.require_interior_radius(r)
    n, a, omega = geom.n, geom.a, geom.omega
    return _certified(_gradient_triples(n, a, r, scale=-2.0 / omega), policy, a, n - 2)


def _gradient_triples(n: int, a: float, r: float, scale: float):
    q1 = r * r
    q4 = (a / r) ** 2
    env_k = abs(scale) / ((n - 2) * (1.0 - a ** (n - 2)))
    for m, binom, one_minus_a, t1, t2, t4 in _radial_state(n, a, r):
        bracket = (2 - m - n) * t4 + m * t1 + (n - 2) * t2
        term = scale * binom * bracket / ((n - 2) * one_minus_a)
        env = env_k * binom * ((m + n - 2) * t4 + m * t1 + (n - 2) * t2)
        if m == 0:
            rho = math.inf
        else:
            rho = (n + m - 2) / (m + 1) * max(
                (m + n - 1) / (m + n - 2) * q4, (m + 1) / m * q1, a * a
            )
        yield term, env, rho


def critical_equation_eval(
    geom: AnnulusGeometry, r: float, policy: TruncationPolicy
) -> EvalResult:
    """The concentration-radius root equation: the gradient series without its
    -2/omega prefactor.  Shares its unique zero with robin_radial_gradient."""
    geom.require_series_dim()
    geom.require_interior_radius(r)
    return _certified(
        _gradient_triples(geom.n, geom.a, r, scale=1.0), policy, geom.a, geom.n - 2
    )


def robin_radial_gradient_derivative(
    geom: AnnulusGeometry, r: float, policy: TruncationPolicy
) -> EvalResult:
    """Derivative in r of the radial gradient r * R'(r); negative on (a, 1)."""
    geom.require_series_dim()
    geom.require_interior_radius(r)
    n, a, omega = geom.n, geom.a, geom.omega
    q1 = r * r
    q4 = (a / r) ** 2
    env_k = 2.0 / (omega * (n - 2) * (1.0 - a ** (n - 2)) * r)

    def triples():
        for m, binom, one_minus_a, t1, t2, t4 in _radial_state(n, a, r):
            c4 = m + n - 2
            bracket = (2.0 * c4 * c4 * t4 + 2.0 * m * m * t1 - (n - 2) ** 2 * t2) / r
            term = -2.0 * binom * bracket / (omega * (n - 2) * one_minus_a)
            env = env_k * binom * (2.0 * c4 * c4 * t4 + 2.0 * m * m * t1 + (n - 2) ** 2 * t2)
            if m == 0:
                rho = math.inf
            else:
                rho = (n + m - 2) / (m + 1) * max(
                    ((m + n - 1) / (m + n - 2)) ** 2 * q4,
                    ((m + 1) / m) ** 2 * q1,
                    a * a,
                )
            yield term, env, rho

    return _certified(triples(), policy, a, n - 2)


def _check_planar(a: float, r: float) -> None:
    if not (0.0 < a < 1.0):
        raise DomainValidationError(f"inner radius must satisfy 0 < a < 1, got {a!r}")
    if not (a < r < 1.0):
        raise DomainValidationError(f"radius {r} must lie strictly between a = {a} and 1")


def robin2d_eval(a: float, r: float, policy: TruncationPolicy) -> EvalResult:
    """Planar Robin function: -log^2 r / log a plus the mode series.

    Divergent (to +inf) toward both circles; strictly convex inside, so its
    unique critical point is a radial minimum.
    """
    _check_planar(a, r)
    closed = -math.log(r) ** 2 / math.log(a)
    qmax = max(r * r, (a / r) ** 2)

    def triples():
        r2m = 1.0
        a2m = 1.0
        ar2m = 1.0
        m = 0
        while True:
            m += 1
            r2m *= r * r
            a2m *= a * a
            ar2m *= (a / r) ** 2
            term = (r2m - 2.0 * a2m + ar2m) / (m * (1.0 - a2m))
            env = (r2m + 2.0 * a2m + ar2m) / (m * (1.0 - a * a))
            yield term, env, qmax

    res = _certified(triples(), policy, a, 0, first_mode=1)
    return EvalResult(closed + res.value, res.terms_used, res.tail_bound, res.converged)


def robin2d_first(a: float, r: float, policy: TruncationPolicy) -> EvalResult:
    """Derivative of the planar Robin function; -inf at the inner circle,
    +inf at the outer circle, with a single interior zero."""
    _check_planar(a, r)
    closed = -2.0 * math.log(r) / (r * math.log(a))
    qmax = max(r * r, (a / r) ** 2)

    def triples():
        r_odd = 1.0 / r  # r^(2m-1)
        a2m = 1.0
        ar_odd = 1.0 / r  # a^(2m) r^(-2m-1)
        q4 = (a / r) ** 2
        while True:
            r_odd *= r * r
            a2m *= a * a
            ar_odd *= q4
            term = 2.0 * (r_odd - ar_odd) / (1.0 - a2m)
            env = 2.0 * (r_odd + ar_odd) / (1.0 - a * a)
            yield term, env, qmax

    res = _certified(triples(), policy, a, 0, first_mode=1)
    return EvalResult(closed + res.value, res.terms_used, res.tail_bound, res.converged)


def robin2d_second(a: float, r: float, policy: TruncationPolicy) -> EvalResult:
    """Second derivative of the planar Robin function; positive on all of (a, 1)."""
    _check_planar(a, r)
    closed = -2.0 * (1.0 - math.log(r)) / (r * r * math.log(a))
    q1 = r * r
    q4 = (a / r) ** 2

    def triples():
        r_even = 1.0 / (r * r)  # r^(2m-2)
        a2m = 1.0
        ar_even = 1.0 / (r * r)  # a^(2m) r^(-2m-2)
        m = 0
        while True:
            m += 1
            r_even *= r * r
            a2m *= a * a
            ar_even *= q4
            term = 2.0 * ((2 * m - 1) * r_even + (2 * m + 1) * ar_even) / (1.0 - a2m)
            env = 2.0 * ((2 * m - 1) * r_even + (2 * m + 1) * ar_even) / (1.0 - a * a)
            rho = max((2 * m + 1) / (2 * m - 1) * q1, (2 * m + 3) / (2 * m + 1) * q4)
            yield term, env, rho

    res = _certified(triples(), policy, a, 0, first_mode=1)
    return EvalResult(closed + res.value, res.terms_used, res.tail_bound, res.converged)
