"""Relations that two certified results for the same exact quantity must
satisfy, with no reference: their intervals, widened by the rounding of the
map between them, must overlap.  Each check is |lhs - rhs| <= b_lhs + b_rhs
+ the map's rounding, the difference and the sum rounded once each.

Route agreement: green_eval (closed-form images plus a split remainder) and
green_piecewise_eval (the unsplit radius-ordered modes) share the Gegenbauer
mode table and omega, but neither their series nor their summation.

Symmetry and exact orthogonal maps: G(y, x) and G(Qx, Qy), Q a coordinate
permutation with sign flips, equal G(x, y).  Q maps doubles to doubles, so
the map has no rounding; the two sides share the evaluator, and differ in
the order in which it sums the norms and the dot product.

Kelvin inversion: the inversion x -> a x / |x|^2 maps the annulus onto
itself, so the spatial Robin function satisfies R(a/r) = (r^2/a)^(n-2) R(r),
and with g = r R'(r) and k = n - 2 its gradient satisfies
g(a/r) = -(r^2/a)^k (2k R(r) + g(r)).  The planar Robin function satisfies
R(a/r) = R(r) + log(r^2/a), and so (a/r) R'(a/r) + r R'(r) = -2.  The two
sides share the evaluators at two radii whose series differ.

Every relation is checked on seeded draws of the wide probe's strata,
whether or not either side converged."""

import math
import random

import pytest

from annulus_green import (
    AnnulusError,
    AnnulusGeometry,
    EvalResult,
    TruncationPolicy,
    green_eval,
    green_piecewise_eval,
    robin2d_eval,
    robin2d_first,
    robin2d_second,
    robin_eval,
    robin_radial_gradient,
    robin_radial_gradient_derivative,
)

U = 2.0**-53
DIMENSIONS = (3, 4, 6, 9, 20)


def _unit(rng: random.Random, n: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.hypot(*v)
    return [c / norm for c in v]


def _turned(rng: random.Random, u: list[float], angle: float) -> list[float]:
    """A unit vector at ``angle`` from the unit vector u."""
    w = _unit(rng, len(u))
    dot = sum(p * q for p, q in zip(w, u))
    w = [p - dot * q for p, q in zip(w, u)]
    norm = math.hypot(*w)
    return [math.cos(angle) * q + math.sin(angle) * p / norm for p, q in zip(w, u)]


def _inner_radius(rng: random.Random, i: int) -> float:
    """a mid-range, toward 0 or toward 1, as i is 0, 1 or 2 modulo 3."""
    return (
        rng.uniform(0.05, 0.95),
        10.0 ** rng.uniform(-3.0, -1.3),
        1.0 - 10.0 ** rng.uniform(-3.0, -1.3),
    )[i % 3]


def _draws(count: int, seed: int):
    """(n, a, x, y): a in equal shares mid-range, toward 0 and toward 1; each
    radius at a uniform share of the gap or 1e-3 of it from its sphere; the
    directions 1e-3 apart in angle in 30 % of the pairs."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice(DIMENSIONS)
        a = _inner_radius(rng, i)
        inner = rng.uniform(0.001, 0.45) if rng.random() < 0.5 else 1e-3
        outer = rng.uniform(0.55, 0.999) if rng.random() < 0.5 else 1.0 - 1e-3
        u = _unit(rng, n)
        v = _turned(rng, u, 1e-3) if rng.random() < 0.3 else _unit(rng, n)
        x = [(a + inner * (1.0 - a)) * c for c in u]
        y = [(a + outer * (1.0 - a)) * c for c in v]
        yield (n, a, x, y) if rng.random() < 0.5 else (n, a, y, x)


def _overlap(lhs, rhs, rounding=0.0):
    """Whether the two results' intervals, widened by ``rounding``, overlap."""
    return abs(lhs.value - rhs.value) <= (1.0 + 2.0 * U) * (
        lhs.tail_bound + rhs.tail_bound + rounding
    )


@pytest.mark.parametrize(
    "policy",
    [
        TruncationPolicy(abs_tol=1e-16),
        TruncationPolicy(abs_tol=1e-10),
        # both routes capped short of their target: the bounds still hold
        TruncationPolicy(abs_tol=1e-16, max_terms=12),
    ],
    ids=["1e-16", "1e-10", "capped"],
)
def test_green_routes_agree_within_their_bounds(policy):
    disjoint, compared, capped = [], 0, 0
    for n, a, x, y in _draws(100, 32):
        geom = AnnulusGeometry(n, a)
        try:
            split = green_eval(geom, x, y, policy)
            modal = green_piecewise_eval(geom, x, y, policy)
        except AnnulusError:
            continue
        bound = split.tail_bound + modal.tail_bound
        compared += 1
        capped += not (split.converged and modal.converged) and math.isfinite(bound)
        if not _overlap(split, modal):
            disjoint.append((n, a, split, modal))
    assert not disjoint
    assert compared >= 90
    if policy.max_terms == 12:
        # the relation is tested on finite bounds of unconverged results
        assert capped >= 30


# capped, so that a thin annulus, where green_piecewise_eval runs toward
# 10^5 terms at 1e-16, stays cheap: the relations hold on capped results too
POLICIES = [TruncationPolicy(abs_tol=t, max_terms=10_000) for t in (1e-10, 1e-14, 1e-16)]


def _signed_permutation(rng: random.Random, n: int):
    """A random coordinate permutation with random sign flips, as a map of
    lists: an orthogonal map that is exact in floating point."""
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1.0, 1.0)) for _ in range(n)]
    return lambda v: [s * v[i] for s, i in zip(signs, order)]


@pytest.mark.parametrize(
    "evaluate", [green_eval, green_piecewise_eval], ids=["green_eval", "green_piecewise_eval"]
)
def test_green_is_symmetric_and_invariant_under_signed_permutations(evaluate):
    rng = random.Random(34)
    disjoint, compared = [], 0
    for i, (n, a, x, y) in enumerate(_draws(60, 34)):
        geom, policy, q = AnnulusGeometry(n, a), POLICIES[i % 3], _signed_permutation(rng, n)
        try:
            base = evaluate(geom, x, y, policy)
            swapped = evaluate(geom, y, x, policy)
            mapped = evaluate(geom, q(x), q(y), policy)
        except AnnulusError:
            continue
        compared += 1
        for relation, other in (("symmetry", swapped), ("signed permutation", mapped)):
            if not _overlap(base, other):
                disjoint.append((relation, n, a, policy.abs_tol, base, other))
    assert not disjoint
    assert compared >= 50


def _kelvin_draws(dimensions):
    """(n, a, r, policy): 200 draws of n, a in the strata of _inner_radius,
    r at a uniform share of the gap or 1e-3 of it from a sphere, and the
    policies in turn."""
    rng = random.Random(34)
    for i in range(200):
        n, a = rng.choice(dimensions), _inner_radius(rng, i)
        share = rng.uniform(0.001, 0.999) if rng.random() < 0.5 else rng.choice((1e-3, 1 - 1e-3))
        yield n, a, a + share * (1.0 - a), POLICIES[i % 3]


def test_spatial_robin_function_is_kelvin_invariant():
    """R(a/r) = f R(r) with f = (r^2/a)^k, k = n - 2.  s = a/r is rounded
    once, by at most u s, which moves R by |R'(s)| u s = |g(s)| u to first
    order, g being robin_radial_gradient's r R'(r).  f's base is rounded
    twice and raised to the k-th power, and pow and the product f R(r) round
    once each: (2k + 2) u |f R(r)| to first order, of which (2k + 4) u is
    charged."""
    disjoint = []
    for n, a, r, policy in _kelvin_draws((3, 4, 5, 6, 9)):
        s = a / r
        geom, k = AnnulusGeometry(n, a), n - 2
        inverted, direct = robin_eval(geom, s, policy), robin_eval(geom, r, policy)
        slope = robin_radial_gradient(geom, s, policy)
        f = (r * r / a) ** k
        scaled = direct._replace(value=f * direct.value, tail_bound=f * direct.tail_bound)
        rounding = (abs(slope.value) + slope.tail_bound) * U + (2 * k + 4) * U * abs(scaled.value)
        if not _overlap(inverted, scaled, rounding):
            disjoint.append((n, a, r, policy.abs_tol, inverted, scaled, rounding))
    assert not disjoint


def test_spatial_robin_gradient_is_kelvin_covariant():
    """g(a/r) = -f (2k R(r) + g(r)), g = r R'(r), f = (r^2/a)^k, k = n - 2.
    s = a/r is rounded once, which moves g by |g'(s)| u s to first order,
    g' being robin_radial_gradient_derivative.  2k R(r), the sum and the
    product with f round once each, and f by (2k + 1) u as in the Robin
    function's relation: u f |2k R| + u f |sum| + (2k + 2) u f |sum|, of
    which one u of f |sum| more is charged."""
    disjoint = []
    for n, a, r, policy in _kelvin_draws((3, 4, 5, 6, 9)):
        s = a / r
        geom, k = AnnulusGeometry(n, a), n - 2
        inverted = robin_radial_gradient(geom, s, policy)
        value, gradient = robin_eval(geom, r, policy), robin_radial_gradient(geom, r, policy)
        slope = robin_radial_gradient_derivative(geom, s, policy)
        f = (r * r / a) ** k
        twice_k = 2 * k * value.value
        total = twice_k + gradient.value
        mapped = EvalResult(-f * total, 0, f * (2 * k * value.tail_bound + gradient.tail_bound), True)
        rounding = (abs(slope.value) + slope.tail_bound) * s * U + f * U * (
            abs(twice_k) + (2 * k + 4) * abs(total)
        )
        if not _overlap(inverted, mapped, rounding):
            disjoint.append((n, a, r, policy.abs_tol, inverted, mapped, rounding))
    assert not disjoint


def test_planar_robin_function_and_gradient_are_kelvin_covariant():
    """R(a/r) = R(r) + L, L = log(r^2/a), and s R'(s) + r R'(r) = -2 at
    s = a/r.  Rounding s moves R(s) by |R'(s)| u s and s R'(s) by
    |R'(s) + s R''(s)| u s to first order.  L's argument rounds twice, which
    moves L by 2u, log by at most one ulp, 2u |L|, and the sum by u |R + L|.
    The products s R'(s) and r R'(r) and the difference -2 - r R'(r) round
    once each."""
    disjoint = []
    for _, a, r, policy in _kelvin_draws((2,)):
        s = a / r
        inverted, direct = robin2d_eval(a, s, policy), robin2d_eval(a, r, policy)
        first_s, first_r = robin2d_first(a, s, policy), robin2d_first(a, r, policy)
        second_s = robin2d_second(a, s, policy)
        log = math.log(r * r / a)
        mapped = direct._replace(value=direct.value + log)
        rounding = (abs(first_s.value) + first_s.tail_bound) * s * U + U * (
            2.0 + 2.0 * abs(log) + abs(mapped.value)
        )
        if not _overlap(inverted, mapped, rounding):
            disjoint.append(("R", a, r, policy.abs_tol, inverted, mapped, rounding))
        lhs = EvalResult(s * first_s.value, 0, s * first_s.tail_bound, True)
        rhs = EvalResult(-2.0 - r * first_r.value, 0, r * first_r.tail_bound, True)
        drift = abs(first_s.value) + first_s.tail_bound + s * (
            abs(second_s.value) + second_s.tail_bound
        )
        rounding = drift * s * U + U * (abs(lhs.value) + abs(r * first_r.value) + abs(rhs.value))
        if not _overlap(lhs, rhs, rounding):
            disjoint.append(("s R'", a, r, policy.abs_tol, lhs, rhs, rounding))
    assert not disjoint
