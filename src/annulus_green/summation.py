"""Certified truncation of infinite series via geometric tail envelopes.

Every series in this package supplies, per index m, a triple
``(term, envelope, ratio)`` where ``envelope >= |term|`` and ``ratio`` is an
upper bound on ``envelope(k+1)/envelope(k)`` valid for every ``k >= m`` and
nonincreasing in m.  Once ``ratio < 1`` the discarded tail after index m is
at most ``envelope * ratio / (1 - ratio)``, which is what gets reported.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

from .core import EvalResult, TailEnvelopeError, TruncationPolicy

Triple = Tuple[float, float, float]


def sum_series(triples: Iterable[Triple], policy: TruncationPolicy) -> EvalResult:
    """Kahan-compensated summation with certified geometric tail bounds.

    Stops after ``policy.tail_safety`` consecutive indices whose certified
    tail is <= ``policy.abs_tol``, or when ``policy.max_terms`` terms have
    been consumed (converged = False in that case).  A term or envelope that
    is not a finite double raises TailEnvelopeError instead of poisoning the
    sum.
    """
    total = 0.0
    comp = 0.0
    used = 0
    tail = math.inf
    streak = 0
    converged = False
    contracting = False
    prev_env = math.inf

    isfinite = math.isfinite
    it = iter(triples)
    while used < policy.max_terms:
        try:
            term, env, rho = next(it)
        except StopIteration:
            raise TailEnvelopeError(
                "series stream exhausted before the policy allowed stopping"
            ) from None

        if not isfinite(term + env):
            raise TailEnvelopeError(
                f"non-finite term {term!r} or envelope {env!r} at index {used}"
            )
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        used += 1

        if contracting and env > prev_env * (1.0 + 1e-9):
            raise TailEnvelopeError(
                f"tail envelope increased after contraction started (index {used - 1})"
            )
        if rho < 1.0:
            contracting = True
            tail = env * rho / (1.0 - rho)
            if tail <= policy.abs_tol:
                streak += 1
                if streak >= policy.tail_safety:
                    converged = True
                    break
            else:
                streak = 0
        prev_env = env

    return EvalResult(value=total, terms_used=used, tail_bound=tail, converged=converged)
