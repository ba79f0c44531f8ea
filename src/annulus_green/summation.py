"""Certified truncation of infinite series via geometric tail envelopes.

Every series in this package supplies, per index m, a row
``(term, envelope, ratio, rounding)`` where ``envelope >= |term|`` and
``ratio`` is an upper bound on ``envelope(k+1)/envelope(k)`` valid for every
``k >= m`` and nonincreasing in m.  Once ``ratio < 1`` the discarded tail
after index m is at most ``envelope * ratio / (1 - ratio)``.  ``rounding``
bounds the row's rounding error to first order, in units of u = 2^-53.
A stream may yield a smaller envelope than the one its rounding allowance
is counted in (the off-pole envelopes of specfun): a row's rounding then
stays a multiple of the larger one.

Rounding enters a bound here alone: ``tail_bound`` is the truncation tail
plus u times the rounding of the rows consumed, summed in row order, while
stopping and ``converged`` judge the truncation tail.  The split remainders
of green_eval and the Robin family, the generating series
(gegenbauer_generating_sum and the three newtonian_series_*) and the modes
of green_piecewise_eval count their rounding; only the modes of
harmonic_extension still yield 0.0.

A tail is certified when it is at most the policy's target: ``abs_tol``, or
with ``rel_tol`` > 0 the larger of ``abs_tol`` and ``rel_tol`` times
|offset + running sum|, where ``offset`` is the closed part that a split
series adds to its remainder.  A relative target lets a caller that only
needs a sign or a few digits of a large value stop early.  With rel_tol = 0
the relative test is skipped on every row.

sum_series reads one row at a time.  Its column-wise twin,
grid.sum_series_table, sums many series at once by the same rule, one per
column of a table of radii; it lives with the other array code in the grid
module, which loads with numpy at the first grid evaluation.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Tuple

from .core import EvalResult, TailEnvelopeError, TruncationPolicy

# unit roundoff of binary64: a correctly rounded operation errs by at most
# this much relative to its exact result
_U = 2.0**-53

Row = Tuple[float, float, float, float]

# a contracting envelope may grow by this relative slack before it is a defect
_ENVELOPE_SLACK = 1.0 + 1e-9


def sum_series(rows: Iterable[Row], policy: TruncationPolicy, offset: float = 0.0) -> EvalResult:
    """Kahan-compensated summation with certified geometric tail bounds.

    Stops after ``policy.tail_safety`` consecutive indices whose certified
    tail is <= ``policy.abs_tol``, or when ``policy.max_terms`` terms have
    been consumed (converged = False in that case).  With ``policy.rel_tol``
    > 0 a tail also counts when it is <= rel_tol |offset + running sum|;
    ``offset`` is the closed part of a split series, which the returned value
    does not include.  A term or envelope that is not a finite double raises
    TailEnvelopeError instead of poisoning the sum, and so does a sum of the
    rows' rounding allowances that is not, or a stream that ends before
    ``max_terms`` rows without converging.
    """
    total = 0.0
    comp = 0.0
    used = 0
    tail = math.inf
    streak = 0
    converged = False
    contracting = False
    prev_env = math.inf
    units = 0.0

    abs_tol, rel_tol, max_terms = policy.abs_tol, policy.rel_tol, policy.max_terms
    isfinite = math.isfinite
    slack = _ENVELOPE_SLACK
    for term, env, rho, rounding in itertools.islice(rows, max_terms):
        if not isfinite(term + env):
            raise TailEnvelopeError(
                f"non-finite term {term!r} or envelope {env!r} at index {used}"
            )
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        units += rounding
        used += 1

        if contracting and env > prev_env * slack:
            raise TailEnvelopeError(
                f"tail envelope increased after contraction started (index {used - 1})"
            )
        if rho < 1.0:
            contracting = True
            tail = env * rho / (1.0 - rho)
            if tail <= abs_tol or (rel_tol and tail <= rel_tol * abs(offset + total)):
                streak += 1
                if streak >= policy.tail_safety:
                    converged = True
                    break
            else:
                streak = 0
        prev_env = env
    else:
        if used < max_terms:
            raise TailEnvelopeError("series stream exhausted before the policy allowed stopping")

    if not isfinite(units):
        raise TailEnvelopeError(
            f"the rounding allowance of the first {used} terms leaves the double range"
        )
    return EvalResult(
        value=total, terms_used=used, tail_bound=tail + _U * units, converged=converged
    )
