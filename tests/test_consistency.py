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
itself, so the spatial Robin function satisfies R(a/r) = (r^2/a)^(n-2) R(r).
The two sides share the evaluator at two radii whose series differ.

Every relation is checked on seeded draws of the wide probe's strata,
whether or not either side converged."""

import math
import random

import pytest

from annulus_green import (
    AnnulusError,
    AnnulusGeometry,
    TruncationPolicy,
    green_eval,
    green_piecewise_eval,
    robin_eval,
    robin_radial_gradient,
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


def test_spatial_robin_function_is_kelvin_invariant():
    """R(a/r) = f R(r) with f = (r^2/a)^k, k = n - 2.  s = a/r is rounded
    once, by at most u s, which moves R by |R'(s)| u s = |g(s)| u to first
    order, g being robin_radial_gradient's r R'(r).  f's base is rounded
    twice and raised to the k-th power, and pow and the product f R(r) round
    once each: (2k + 2) u |f R(r)| to first order, of which (2k + 4) u is
    charged."""
    rng = random.Random(34)
    disjoint = []
    for i in range(200):
        n, a = rng.choice((3, 4, 5, 6, 9)), _inner_radius(rng, i)
        share = rng.uniform(0.001, 0.999) if rng.random() < 0.5 else rng.choice((1e-3, 1 - 1e-3))
        r = a + share * (1.0 - a)
        s = a / r
        geom, policy, k = AnnulusGeometry(n, a), POLICIES[i % 3], n - 2
        inverted, direct = robin_eval(geom, s, policy), robin_eval(geom, r, policy)
        slope = robin_radial_gradient(geom, s, policy)
        f = (r * r / a) ** k
        scaled = direct._replace(value=f * direct.value, tail_bound=f * direct.tail_bound)
        rounding = (abs(slope.value) + slope.tail_bound) * U + (2 * k + 4) * U * abs(scaled.value)
        if not _overlap(inverted, scaled, rounding):
            disjoint.append((n, a, r, policy.abs_tol, inverted, scaled, rounding))
    assert not disjoint
