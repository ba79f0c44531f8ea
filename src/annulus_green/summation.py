"""Certified truncation of infinite series via geometric tail envelopes.

Every series in this package supplies, per index m, a row
``(term, envelope, ratio, rounding)`` where ``envelope >= |term|`` and
``ratio`` is an upper bound on ``envelope(k+1)/envelope(k)`` valid for every
``k >= m`` and nonincreasing in m.  Once ``ratio < 1`` the discarded tail
after index m is at most ``envelope * ratio / (1 - ratio)``.  ``rounding``
bounds the row's rounding error to first order, in units of u = 2^-53.

Rounding enters a bound here alone: ``tail_bound`` is the truncation tail
plus u times the rounding of the rows consumed, summed in row order, while
stopping and ``converged`` judge the truncation tail.  The split remainders
of green_eval and the Robin family and the generating series
(gegenbauer_generating_sum and the three newtonian_series_*) count their
rounding; the modes of green_piecewise_eval and harmonic_extension still
yield 0.0.

A tail is certified when it is at most the policy's target: ``abs_tol``, or
with ``rel_tol`` > 0 the larger of ``abs_tol`` and ``rel_tol`` times
|offset + running sum|, where ``offset`` is the closed part that a split
series adds to its remainder.  A relative target lets a caller that only
needs a sign or a few digits of a large value stop early.  The rule is
chosen once per call, so a sum to an absolute target does no per-row work
for it.

sum_series reads one row at a time.  Its column-wise twin sum_series_table
sums many series at once, one per column of a (modes x columns) table that
arrives in chunks of a few modes, and stops each column on its own row by the
same rule.  A grid of radii shares one mode loop that way, and no table is
ever larger than one chunk of one column block.  It takes absolute targets
only and refuses a policy with ``rel_tol`` > 0 rather than ignore it.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Tuple

import numpy as np

from .core import (
    DomainValidationError,
    EvalGrid,
    EvalResult,
    TailEnvelopeError,
    TruncationPolicy,
)

# unit roundoff of binary64: a correctly rounded operation errs by at most
# this much relative to its exact result
_U = 2.0**-53

Row = Tuple[float, float, float, float]
# the rows of one chunk as four arrays of shape (modes, columns)
Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# modes per chunk and columns per block of sum_series_table: a chunk holds at
# most TABLE_MODES x TABLE_COLUMNS doubles per array, whatever max_terms is
TABLE_MODES = 24
TABLE_COLUMNS = 2048

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
    TailEnvelopeError instead of poisoning the sum.
    """
    if policy.rel_tol > 0.0:
        return _sum_relative(rows, policy, offset)
    total = 0.0
    comp = 0.0
    used = 0
    tail = math.inf
    streak = 0
    converged = False
    contracting = False
    prev_env = math.inf
    units = 0.0

    isfinite = math.isfinite
    slack = _ENVELOPE_SLACK
    it = iter(rows)
    while used < policy.max_terms:
        try:
            term, env, rho, rounding = next(it)
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
        units += rounding
        used += 1

        if contracting and env > prev_env * slack:
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

    return EvalResult(
        value=total, terms_used=used, tail_bound=tail + _U * units, converged=converged
    )


def _sum_relative(rows: Iterable[Row], policy: TruncationPolicy, offset: float) -> EvalResult:
    """sum_series's loop with the target max(abs_tol, rel_tol |offset + total|)
    on each row, kept apart so that the absolute loop pays nothing for it."""
    total = 0.0
    comp = 0.0
    used = 0
    tail = math.inf
    streak = 0
    converged = False
    contracting = False
    prev_env = math.inf
    units = 0.0

    abs_tol, rel_tol = policy.abs_tol, policy.rel_tol
    isfinite = math.isfinite
    slack = _ENVELOPE_SLACK
    it = iter(rows)
    while used < policy.max_terms:
        try:
            term, env, rho, rounding = next(it)
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
        units += rounding
        used += 1

        if contracting and env > prev_env * slack:
            raise TailEnvelopeError(
                f"tail envelope increased after contraction started (index {used - 1})"
            )
        if rho < 1.0:
            contracting = True
            tail = env * rho / (1.0 - rho)
            if tail <= abs_tol or tail <= rel_tol * abs(offset + total):
                streak += 1
                if streak >= policy.tail_safety:
                    converged = True
                    break
            else:
                streak = 0
        prev_env = env

    return EvalResult(
        value=total, terms_used=used, tail_bound=tail + _U * units, converged=converged
    )


def sum_series_table(
    table: Callable[[slice], Iterator[Chunk]],
    width: int,
    policy: TruncationPolicy,
) -> EvalGrid:
    """sum_series applied to each of ``width`` series at once, one per column.

    ``table(cols)`` returns an iterator over the series of the columns in the
    slice ``cols``, in consecutive chunks of TABLE_MODES modes, read from this
    module when the iterator starts: the rows of sum_series as four arrays
    of shape (modes, columns).  The summer itself takes chunks of any length.

    Every column follows sum_series's rule: Kahan compensation, a streak of
    ``tail_safety`` certified tails <= ``abs_tol``, the ``max_terms`` cap, and
    TailEnvelopeError for a non-finite term or envelope, or a growing
    envelope, on a row the column consumes.  Each column stops on its own row
    and is read there; the streak, envelope and contraction state carry from
    one chunk to the next, and so does the sum of the rounding allowances,
    added in row order.  A column therefore gets bit for bit the value, terms
    used, tail bound and convergence that sum_series gives for its stream
    alone.  Columns are summed in blocks of TABLE_COLUMNS, each with its own
    ``table`` call.  A policy with ``rel_tol`` > 0 raises
    DomainValidationError: the table has no relative target.
    """
    if policy.rel_tol > 0.0:
        raise DomainValidationError(
            f"sum_series_table takes absolute targets only, got rel_tol = {policy.rel_tol!r}"
        )
    value = np.zeros(width)
    terms = np.zeros(width, dtype=np.int64)
    tail = np.full(width, math.inf)
    converged = np.zeros(width, dtype=bool)
    for start in range(0, width, TABLE_COLUMNS):
        cols = slice(start, min(start + TABLE_COLUMNS, width))
        _sum_columns(table(cols), policy, value[cols], terms[cols], tail[cols], converged[cols])
    return EvalGrid(value, terms, tail, converged)


def _sum_columns(
    chunks: Iterator[Chunk],
    policy: TruncationPolicy,
    value: np.ndarray,
    terms: np.ndarray,
    tail: np.ndarray,
    converged: np.ndarray,
) -> None:
    """sum_series_table on one block of columns, written into the block's
    views of the result arrays."""
    tol, safety = policy.abs_tol, policy.tail_safety
    width = value.size
    # state of the columns still summing; column live[j] is entry j
    live = np.arange(width)
    total = np.zeros(width)
    comp = np.zeros(width)
    units_sum = np.zeros(width)
    streak = np.zeros(width, dtype=np.int64)
    contracting = np.zeros(width, dtype=bool)
    prev_env = np.full(width, math.inf)
    last_tail = np.full(width, math.inf)
    used = 0
    with np.errstate(all="ignore"):  # rows past a column's stop may overflow
        while live.size:
            chunk = next(chunks, None)
            rows = 0 if chunk is None else min(len(chunk[0]), policy.max_terms - used)
            if rows <= 0:
                raise TailEnvelopeError(
                    "series stream exhausted before the policy allowed stopping"
                )
            term, env, rho, units = (x[:rows, live] for x in chunk)
            idx = np.arange(rows)[:, None]
            cols = np.arange(live.size)

            below = rho < 1.0
            tails = env * rho / (1.0 - rho)
            ok = below & (tails <= tol)
            # the streak on each row: certified tails since the last
            # uncertified one, or since the carried streak began
            hits = np.cumsum(ok, axis=0)
            reset = np.maximum.accumulate(np.where(below & ~ok, idx, -1), axis=0)
            start = np.where(
                reset >= 0, np.take_along_axis(hits, np.maximum(reset, 0), axis=0), -streak
            )
            run = hits - start
            done = ok & (run >= safety)
            first = np.where(done.any(axis=0), done.argmax(axis=0), rows)
            capped = used + rows >= policy.max_terms
            ends = (first < rows) | capped
            stop = np.minimum(first, rows - 1)  # the last row each column consumes

            seen = contracting | np.logical_or.accumulate(below, axis=0)
            before = np.vstack([contracting[None, :], seen[:-1]])
            prev = np.vstack([prev_env[None, :], env[:-1]])
            bad = ~np.isfinite(term + env)
            faulty = (bad | (before & (env > prev * _ENVELOPE_SLACK))) & (idx <= stop)
            if faulty.any():
                i, j = divmod(int(np.argmax(faulty)), live.size)
                if bad[i, j]:
                    raise TailEnvelopeError(
                        f"non-finite term {float(term[i, j])!r} or envelope {float(env[i, j])!r} "
                        f"at index {used + i}"
                    )
                raise TailEnvelopeError(
                    f"tail envelope increased after contraction started (index {used + i})"
                )

            depth = int(stop.max()) + 1
            partial = np.empty((depth, live.size))
            for i in range(depth):
                y = term[i] - comp
                t = total + y
                comp = (t - total) - y
                total = t
                partial[i] = t

            last = np.maximum.accumulate(np.where(below, idx, -1), axis=0)[stop, cols]
            tail_now = np.where(last >= 0, tails[np.maximum(last, 0), cols], last_tail)
            # cumsum runs down the rows one at a time, after the carried sum,
            # in sum_series's order of additions
            units_now = np.cumsum(np.vstack([units_sum[None, :], units]), axis=0)[stop + 1, cols]

            out = live[ends]
            value[out] = partial[stop, cols][ends]
            terms[out] = used + stop[ends] + 1
            tail[out] = tail_now[ends] + _U * units_now[ends]
            converged[out] = (first < rows)[ends]

            keep = ~ends
            live = live[keep]
            total, comp = total[keep], comp[keep]
            units_sum, last_tail = units_now[keep], tail_now[keep]
            streak = run[-1, keep]
            contracting = seen[-1, keep]
            prev_env = env[-1, keep]
            used += rows
