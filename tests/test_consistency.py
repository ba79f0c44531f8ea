"""Relations that two certified results for the same exact quantity must
satisfy, with no reference: their intervals must overlap.

Route agreement: green_eval (closed-form images plus a split remainder) and
green_piecewise_eval (the unsplit radius-ordered modes) share the Gegenbauer
mode table and omega, but neither their series nor their summation.  On
seeded draws of the wide probe's strata their difference, rounded once,
must stay within the sum of their tail bounds, whether or not either
converged."""

import math
import random

import pytest

from annulus_green import (
    AnnulusError,
    AnnulusGeometry,
    TruncationPolicy,
    green_eval,
    green_piecewise_eval,
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


def _draws(count: int, seed: int):
    """(n, a, x, y): a in equal shares mid-range, toward 0 and toward 1; each
    radius at a uniform share of the gap or 1e-3 of it from its sphere; the
    directions 1e-3 apart in angle in 30 % of the pairs."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice(DIMENSIONS)
        a = (
            rng.uniform(0.05, 0.95),
            10.0 ** rng.uniform(-3.0, -1.3),
            1.0 - 10.0 ** rng.uniform(-3.0, -1.3),
        )[i % 3]
        inner = rng.uniform(0.001, 0.45) if rng.random() < 0.5 else 1e-3
        outer = rng.uniform(0.55, 0.999) if rng.random() < 0.5 else 1.0 - 1e-3
        u = _unit(rng, n)
        v = _turned(rng, u, 1e-3) if rng.random() < 0.3 else _unit(rng, n)
        x = [(a + inner * (1.0 - a)) * c for c in u]
        y = [(a + outer * (1.0 - a)) * c for c in v]
        yield (n, a, x, y) if rng.random() < 0.5 else (n, a, y, x)


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
        gap = abs(split.value - modal.value)
        if not gap <= (1.0 + 2.0 * U) * bound:
            disjoint.append((n, a, split, modal, gap))
    assert not disjoint
    assert compared >= 90
    if policy.max_terms == 12:
        # the relation is tested on finite bounds of unconverged results
        assert capped >= 30
