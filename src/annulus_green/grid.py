"""The grid twins: every piece of the series machinery that runs on arrays
of radii alone.

green._robin_series and green._green_split import this module, and numpy
with it, the first time they are handed an array; the package, its CLI and
every scalar request load neither.  Each twin names its scalar sibling, and
every formula outside the per-mode loops stays in green.py, written once for
a float radius and an array of radii alike.

sum_series_table is summation.sum_series's column-wise twin.  It sums many
series at once, one per column of a (modes x columns) table that arrives in
chunks of a few modes, and stops each column on its own row by the same
rule.  A grid of radii shares one mode loop that way, and no table is ever
larger than one chunk of one column block.  It takes absolute targets only
and refuses a policy with ``rel_tol`` > 0 rather than ignore it.  Along the
mode axis of a chunk it runs two scans, for the streaks, and the Kahan loop;
everything else is elementwise or a reduction per column.

_green_remainder_grid and _robin_remainder_grid are the twins of
green._green_remainder and green._robin_remainder: they yield rows of the
same shape, in chunks of TABLE_MODES modes, and count rounding with the same
named constants.  Only the powers and logs that depend on the radius are
numpy's, and each adds _NUMPY_EXTRA units to its piece.  A grid entry
therefore matches the scalar evaluator's terms used and convergence and
stays inside its bound, while its value may differ by ulps.  _imaged_grid
and _image_columns are green._imaged's splice and the image indices of
green._image_rows, in chunks.  TOOLS is the array counterpart of
green._SCALAR (see green._Tools).  _green_slice is green_eval along a ray,
as export-grid's green-slice writes it.

The helpers shared with green.py are read from that module, and Gegenbauer
polynomials from specfun.iter_gegenbauer, at each call, so that a wrapper
put there (a tracer's, a test's) sees the grid's calls too.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Tuple

import numpy as np

from . import green, specfun
from .core import (
    AnnulusGeometry,
    ArrayLike,
    DomainValidationError,
    EvalGrid,
    TailEnvelopeError,
    TruncationPolicy,
)
from .summation import _ENVELOPE_SLACK, _U

# the rows of one chunk as four arrays of shape (modes, columns)
Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

# modes per chunk and columns per block of sum_series_table: a chunk holds at
# most TABLE_MODES x TABLE_COLUMNS doubles per array, whatever max_terms is
TABLE_MODES = 24
TABLE_COLUMNS = 2048

# numpy's vectorised power and log may err by this many units more than the
# libm results the scalar counts allow for (tests/test_numpy_rounding.py
# measures both against mpmath); every factor taken that way adds it to its
# piece's count
_NUMPY_EXTRA = 2.0


def sum_series_table(
    table: Callable[[slice], Iterator[Chunk]],
    width: int,
    policy: TruncationPolicy,
) -> EvalGrid:
    """summation.sum_series applied to each of ``width`` series at once, one
    per column.

    ``table(cols)`` returns an iterator over the series of the columns in the
    slice ``cols``, in consecutive chunks of TABLE_MODES modes, read from this
    module when the iterator starts: the rows of sum_series as four arrays
    of shape (modes, columns).  The summer itself takes chunks of any length.

    Every column follows sum_series's rule: Kahan compensation, a streak of
    ``tail_safety`` certified tails <= ``abs_tol``, the ``max_terms`` cap, and
    TailEnvelopeError for a non-finite term or envelope, or a growing
    envelope, on a row the column consumes, or for a non-finite sum of the
    rounding allowances it consumed.  Each column stops on its own row
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
    views of the result arrays.

    Per chunk, a cumsum counts certified rows and a running maximum holds
    the count at the latest uncertified one: the streak is the difference.
    Onset of contraction, the last tail consumed and the stops are per-column
    reductions.  The chunk is read in place until a column stops."""
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
            pick = slice(None) if live.size == width else live
            term, env, rho, units = (x[:rows, pick] for x in chunk)
            idx = np.arange(rows)[:, None]
            cols = np.arange(live.size)

            below = rho < 1.0
            tails = env * rho / (1.0 - rho)
            ok = below & (tails <= tol)
            # the streak on each row: certified tails since the last
            # uncertified one, or since the carried streak began; a restart
            # is marked by the count of certified rows before it, plus one
            hits = np.cumsum(ok, axis=0)
            restart = np.maximum.accumulate(np.where(below & ~ok, hits + 1, 0), axis=0)
            run = hits + np.where(restart > 0, 1 - restart, streak)
            done = ok & (run >= safety)
            first = np.where(done.any(axis=0), done.argmax(axis=0), rows)
            capped = used + rows >= policy.max_terms
            ends = (first < rows) | capped
            stop = np.minimum(first, rows - 1)  # the last row each column consumes
            consumed = idx <= stop

            began = below.any(axis=0)
            before = contracting | (idx > np.where(began, below.argmax(axis=0), rows))
            prev = np.empty((rows, live.size))
            prev[0], prev[1:] = prev_env, env[:-1]
            bad = ~np.isfinite(term + env)
            faulty = (bad | (before & (env > prev * _ENVELOPE_SLACK))) & consumed
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

            last = np.where(below & consumed, idx, -1).max(axis=0)
            tail_now = np.where(last >= 0, tails[np.maximum(last, 0), cols], last_tail)
            # cumsum runs down the rows one at a time, after the carried sum,
            # in sum_series's order of additions
            acc = np.empty((depth + 1, live.size))
            acc[0], acc[1:] = units_sum, units[:depth]
            units_now = np.cumsum(acc, axis=0)[stop + 1, cols]
            if not np.isfinite(units_now[ends]).all():
                raise TailEnvelopeError(
                    "the rounding allowance of a column leaves the double range"
                )

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
            contracting = (contracting | began)[keep]
            prev_env = env[-1, keep]
            used += rows


def _column(values) -> np.ndarray:
    """Per-mode numbers as a column that broadcasts against a row of radii."""
    return np.fromiter(values, dtype=float)[:, None]


def _green_remainder_grid(k: int, a: float, lo, hi, t, scale: float):
    """green._green_remainder for arrays of radius pairs (lo, hi) and cosines
    t, in chunks of TABLE_MODES modes as sum_series_table reads them.

    The arithmetic is _green_remainder's, in the same order: the h_i are the
    same running products and P_m(t) the same recurrence, so a column differs
    from the scalar stream only through h2, h3 and h4's starting powers, which
    numpy takes; the rounding row adds _NUMPY_EXTRA for them (green._green_starts).
    """
    bs, hs, big_a, env_k, qmax, (quad, per_mode, fixed) = green._green_starts(
        k, a, lo, hi, scale, TOOLS
    )
    b = np.array(bs)
    h = np.array([np.full_like(lo, hs[0]), *hs[1:]])
    a2 = a * a
    modes = TABLE_MODES
    lam = 0.5 * k
    rows = zip(
        specfun._mode_table(specfun._gegenbauer_modes, lam), specfun.iter_gegenbauer(lam, t)
    )
    for m0 in itertools.count(0, modes):
        consts, p = zip(*itertools.islice(rows, modes))
        ratios, binoms, *_ = zip(*consts)
        one_minus_a = []
        for _ in consts:
            one_minus_a.append(1.0 - big_a)
            big_a *= a2
        # h_i carried as running products, as the scalar stream carries them
        products = np.empty((4, modes, lo.size))
        products[:, 0] = h
        for i in range(1, modes):
            np.multiply(products[:, i - 1], b, out=products[:, i])
        h1, h2, h3, h4 = products
        h = products[:, -1] * b
        env = env_k * _column(binoms) * (h1 + h4)
        m = _column(range(m0, m0 + modes))
        yield (
            scale * (((h1 - h2) - h3) + h4) * np.array(p) / _column(one_minus_a),
            env,
            _column(ratios) * qmax,
            2.0 * env * (quad * (m + 1.0) ** 2 + per_mode * m + fixed),
        )


def _robin_remainder_grid(k: int, a: float, r, scale, parts):
    """green._robin_remainder for an array of radii (and of scales, in the
    plane), in chunks of TABLE_MODES modes as sum_series_table reads them.

    The per-mode factors that do not depend on r (a^(6m), 1/(1 - A_m) and
    the shape table's rows) are _robin_remainder's own scalars; the powers
    b^(2m) and the starts s_2, s_4 of every radius are numpy's, in the same
    order of operations.  w_4 holds two of them, so the rounding row adds
    2 _NUMPY_EXTRA to _robin_remainder's count; in the plane, where the
    starts are 1, it adds one.  The entries below green._FRAME_BELOW are
    formed again in green._framed_images' frame, with TOOLS.
    """
    (c1, _, _), (c2, _, _), (c4, _, _) = parts
    abs_c1, abs_c2, abs_c4 = abs(c1), abs(c2), abs(c4)
    expm1 = math.expm1
    log_a = math.log(a)
    extra = (2.0 if k else 1.0) * _NUMPY_EXTRA
    b1, b4, (s1_0, s2_0, s4_0), env_k, step = green._robin_starts(k, a, r, TOOLS)
    rows = iter(specfun._mode_table(green._robin_modes, k, parts))
    modes = TABLE_MODES
    while True:
        ms, *columns = zip(*itertools.islice(rows, modes))
        p1, p2, p4, weights, ratios, growths, counts = map(_column, columns)
        counts += extra
        inv = _column(-1.0 / expm1((k + 2 * m) * log_a) for m in ms)
        sb, m = scale * weights, _column(ms)
        w1 = s1_0 * b1 ** (2.0 * m) * p1
        w2 = s2_0 * _column(a ** (6 * m) for m in ms) * p2
        w4 = s4_0 * b4 ** (2.0 * m) * p4
        size = np.abs(sb) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
        term = sb * (c1 * w1 + c2 * w2 + c4 * w4) * inv
        env = size * env_k
        units = size * inv * counts
        low = w1 + w4 < green._FRAME_BELOW
        if low.any():  # _robin_remainder's frame, at those entries alone
            i, j = np.nonzero(low)
            n = 2 * np.array(ms)[i]
            (w1, w2, w4), top = green._framed_images(
                (b1[j], a, b4[j]),
                (s1_0, s2_0[j], s4_0[j]),
                (n, 3 * n, n),
                [p[i, 0] for p in (p1, p2, p4)],
                TOOLS,
            )
            sb_l, inv_l = np.broadcast_to(sb, low.shape)[i, j], inv[i, 0]
            size = np.abs(sb_l) * (abs_c1 * w1 + abs_c2 * w2 + abs_c4 * w4)
            term[i, j] = np.ldexp(sb_l * (c1 * w1 + c2 * w2 + c4 * w4) * inv_l, top)
            env[i, j] = np.ldexp(size * env_k, top)
            units[i, j] = np.ldexp(size * inv_l * counts[i, 0], top)
        yield term, env, ratios * step * growths, units


def _imaged_grid(chunks, images):
    """green._imaged for a grid twin's chunks: the first green._HEAD_MODES
    rows, cut from whole chunks, then the image chunks, each ratio spread
    over its chunk."""
    left = green._HEAD_MODES
    for term, env, rho, units in chunks:
        rows = min(left, len(term))
        yield term[:rows], env[:rows], np.full(rho[:rows].shape, math.inf), units[:rows]
        left -= rows
        if not left:
            break
    for term, env, ratio, units in images:
        yield term, env, np.full(term.shape, ratio), units


def _image_columns():
    """The image indices j = 2, 3, ... of green._image_rows as one column of
    TABLE_MODES of them per chunk, as sum_series_table reads a grid twin's
    rows."""
    modes = TABLE_MODES
    return (_column(range(j0, j0 + modes)) for j0 in itertools.count(2, modes))


# the tools of an array of radii (see green._Tools), green._SCALAR's twin
TOOLS = green._Tools(
    exp=np.exp, expm1=np.expm1, log=np.log, log1p=np.log1p, frexp=np.frexp, ldexp=np.ldexp,
    maximum=np.maximum, numpy_units=_NUMPY_EXTRA,
    modes=_robin_remainder_grid, imaged=_imaged_grid, js=_image_columns,
)


def _green_slice(
    geom: AnnulusGeometry, radii, y: ArrayLike, policy: TruncationPolicy
) -> tuple[np.ndarray, EvalGrid]:
    """green.green_eval(geom, r e1, y, policy) for every radius r of
    ``radii``, with e1 the first coordinate axis, summed as one table;
    returns the distances |r e1 - y| and the rows.

    Each row stays inside green_eval's bound and matches its terms used and
    convergence; values may differ from green_eval's by ulps.  A radius, or
    y's, may miss [a, 1] by RADIUS_SLACK, as in green_eval.  A point within
    NEAR_DIAGONAL of y, where green_eval raises SingularityError, is not
    evaluated: its row holds a NaN value and tail, 0 terms and converged
    False.  export-grid writes those rows as they are.
    """
    geom.require_series_dim()
    ys = geom.coordinates(y)
    r = geom.clamp_radius(np.asarray(radii, dtype=float))
    y_norm, s, y_on, y_err = green._clamped(geom, ys)
    # the points r e1 lie on the clamped radii, exact; |x - y| errs by
    # _E_DIST like math.dist (the difference and its square take 3 units,
    # fsum of the other squares 2, their sum and sqrt 1 each) and by y_err
    d = np.sqrt((r - y_on[0]) ** 2 + math.fsum(v * v for v in y_on[1:]))
    far = d >= green.NEAR_DIAGONAL
    grid = EvalGrid(
        value=np.full(d.size, np.nan),
        terms_used=np.zeros(d.size, dtype=np.int64),
        tail_bound=np.full(d.size, np.nan),
        converged=np.zeros(d.size, dtype=bool),
    )
    r, d_far = r[far], d[far]
    # <x, y> / (|x| |y|) with the roundings of green_eval's fsum form
    t = np.clip((r * ys[0]) / (r * y_norm), -1.0, 1.0)
    d_units = green._E_DIST + y_err / d_far
    res = green._green_split(geom, np.minimum(r, s), np.maximum(r, s), t, d_far, d_units, policy)
    grid.value[far], grid.terms_used[far] = res.value, res.terms_used
    grid.tail_bound[far], grid.converged[far] = res.tail_bound, res.converged
    return d, grid
