"""Direct (unsplit) series of the Robin family and of the Green correction,
kept as a test oracle.

These are the series exactly as the package summed them before the two-image
and four-image splits: every mode keeps its full denominator
1 - a^(2m+n-2), so the term ratio tends to max(r^2, a^2/r^2) (max(rs,
a^2/(rs)) for the Green function) and the cost grows like 1/dist(r, boundary).
They share no closed form with the split evaluators in
``annulus_green.green``, which is what makes them an independent check at
interior radii.  The values are bit-for-bit those of the old evaluators; the
reported ``tail_bound`` adds a first-order allowance for their rounding
(``_certified``) to the truncation tail, which is all the old code reported.
"""

from __future__ import annotations

import math

import numpy as np

from annulus_green.core import (
    AnnulusGeometry,
    ArrayLike,
    DomainValidationError,
    EvalResult,
    SingularityError,
    TruncationPolicy,
    newtonian_potential,
)
from annulus_green.green import NEAR_DIAGONAL
from annulus_green.specfun import _clamp_argument, iter_gegenbauer
from annulus_green.summation import sum_series


_U = 2.0**-53


def _certified(
    triples, policy: TruncationPolicy, a: float, k: int, first_mode: int = 0, dim: int = 0
) -> EvalResult:
    """sum_series over ``triples``, each row carrying a first-order bound on
    the rounding of its term as its rounding allowance.

    Mode m's radial products take up to 4m + k + 3 roundings in their
    incremental updates and the binomial 2m more; 1 - A_m inherits the
    2m + 1 roundings of A_m = a^(k+2m), amplified by A_m / (1 - A_m); the
    mode's own arithmetic, the prefactor (omega included) and the compensated
    sum add fewer than 48.  Every envelope below is at least half the sum of
    the absolute values of its mode's parts.

    A Green series in R^dim (dim > 0) also carries the radii's rounding
    (np.linalg.norm, under dim/2 + 2 units each) into its m-th powers, and a
    Gegenbauer factor whose forward recurrence errs by under 2 (m+1)^2 units
    of its envelope, plus (m+1)^2 units per unit of error in its argument
    (under 2 dim + 8 units).
    """
    green_linear = 2 * dim + 8
    green_quadratic = 2 * dim + 10 if dim else 0

    def rows():
        for i, (term, env, rho) in enumerate(triples):
            m = i + first_mode
            big_a = a ** (k + 2 * m)
            units = 6 * m + k + 48 + (2 * m + 1) * big_a / (1.0 - big_a)
            if dim:
                units += green_linear * m + green_quadratic * (m + 1) ** 2
            yield term, env, rho, 2.0 * env * units

    return sum_series(rows(), policy)


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


def _correction_triples(n: int, a: float, r: float, s: float, t: float, omega: float):
    """Modes of the regular-part series subtracted from the fundamental solution.

    The mode coefficient divided by (rs)^(m+n-2) splits into four products
    g1 - g2 - g3 + g4 whose per-step ratios all lie in (0, 1) for interior
    radii, which is what makes deep sums underflow-safe.  The envelope keeps
    only the two outer products (the subtracted ones are positive).
    """
    lam = 0.5 * (n - 2)
    lo, hi = (r, s) if r <= s else (s, r)
    q1 = lo * hi
    q2 = a * a * lo / hi
    q3 = a * a * hi / lo
    q4 = a * a / (lo * hi)
    g1 = 1.0
    g2 = (a / hi) ** (n - 2)
    g3 = (a / lo) ** (n - 2)
    g4 = (a / (lo * hi)) ** (n - 2)
    big_a = a ** (n - 2)
    binom = 1.0
    env_k = 1.0 / ((n - 2) * omega * (1.0 - a ** (n - 2)))
    qmax = max(q1, q4)
    m = 0
    for p in iter_gegenbauer(lam, t):
        beta = 2 * m + n - 2
        z = (beta / (n - 2)) * p
        coeff = (g1 - g2 - g3 + g4) / (beta * (1.0 - big_a))
        yield coeff * z / omega, env_k * binom * (g1 + g4), (n + m - 2) / (m + 1) * qmax
        g1 *= q1
        g2 *= q2
        g3 *= q3
        g4 *= q4
        big_a *= a * a
        binom *= (n + m - 2) / (m + 1)
        m += 1


def green_eval(
    geom: AnnulusGeometry, x: ArrayLike, y: ArrayLike, policy: TruncationPolicy
) -> EvalResult:
    """Dirichlet Green function: fundamental solution minus the direct
    correction series.

    The tail bound adds the fundamental solution's rounding (|x - y| to
    dim/2 + 3 units, raised to the power n - 2, plus 4 units) to _certified's.
    """
    geom.require_series_dim()
    xv = geom.point(x)
    yv = geom.point(y)
    r = geom.clamp_radius(float(np.linalg.norm(xv)))
    s = geom.clamp_radius(float(np.linalg.norm(yv)))
    d = float(np.linalg.norm(xv - yv))
    if d < NEAR_DIAGONAL:
        raise SingularityError(f"|x - y| = {d} is inside the near-diagonal guard")
    newt = newtonian_potential(geom, xv, yv)
    t = _clamp_argument(float(xv @ yv) / (r * s))
    n = geom.n
    res = _certified(
        _correction_triples(n, geom.a, r, s, t, geom.omega), policy, geom.a, n - 2, dim=n
    )
    newt_rounding = _U * newt * ((n - 2) * (0.5 * n + 3) + 4)
    return EvalResult(
        value=newt - res.value,
        terms_used=res.terms_used,
        tail_bound=res.tail_bound + newt_rounding,
        converged=res.converged,
    )
