import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from annulus_green import (
    DomainValidationError,
    EvalResult,
    TailEnvelopeError,
    TruncationPolicy,
    summation,
)
from annulus_green.summation import TABLE_COLUMNS, sum_series, sum_series_table

_U = 2.0**-53


def geometric(q, coeff=1.0, rounding=0.0):
    """Exact geometric stream: term = coeff * q^m with its own envelope."""
    term = coeff
    while True:
        yield term, abs(term), q, rounding
        term *= q


def test_geometric_series_value_and_tail():
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=10_000, tail_safety=1)
    res = sum_series(geometric(0.5), policy)
    assert res.converged
    assert res.tail_bound <= policy.abs_tol
    # the reported tail must actually cover the discarded remainder
    discarded = 2.0 - res.value
    assert 0.0 <= discarded <= res.tail_bound
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_max_terms_cap():
    policy = TruncationPolicy(abs_tol=1e-30, max_terms=7, tail_safety=1)
    res = sum_series(geometric(0.9), policy)
    assert not res.converged
    assert res.terms_used == 7
    assert res.tail_bound > policy.abs_tol
    # even unconverged, the certified bound covers the true remainder
    true_tail = 10.0 - res.value
    assert true_tail <= res.tail_bound


def test_tail_safety_consumes_extra_terms():
    tight = TruncationPolicy(abs_tol=1e-10, max_terms=1000, tail_safety=1)
    padded = TruncationPolicy(abs_tol=1e-10, max_terms=1000, tail_safety=4)
    r1 = sum_series(geometric(0.5), tight)
    r4 = sum_series(geometric(0.5), padded)
    assert r4.terms_used == r1.terms_used + 3
    assert r4.converged


def test_envelope_monotonicity_enforced():
    def bad():
        yield 1.0, 1.0, 0.5, 0.0  # contracting from the start
        yield 0.1, 2.0, 0.5, 0.0  # envelope jumps back up: defect
        while True:
            yield 0.0, 0.0, 0.5, 0.0

    with pytest.raises(TailEnvelopeError):
        sum_series(bad(), TruncationPolicy(abs_tol=1e-30, max_terms=100))


@pytest.mark.parametrize(
    "bad",
    [
        (math.inf, math.inf, 0.5, 0.0),
        (math.nan, 1.0, 0.5, 0.0),
        (1.0, math.inf, 0.5, 0.0),
        (1.0, math.nan, 0.5, 0.0),
    ],
)
def test_non_finite_term_or_envelope_is_an_error(bad):
    def stream():
        yield 1.0, 1.0, 0.5, 0.0
        yield bad
        while True:
            yield 0.0, 0.0, 0.5, 0.0

    with pytest.raises(TailEnvelopeError):
        sum_series(stream(), TruncationPolicy(abs_tol=1e-30, max_terms=100))


def test_exhausted_stream_is_an_error():
    with pytest.raises(TailEnvelopeError):
        sum_series(iter([(1.0, 1.0, math.inf, 0.0)]), TruncationPolicy(abs_tol=0.0, max_terms=10))


def test_kahan_compensation_beats_naive():
    # many tiny terms after a large head: plain accumulation loses them
    def stream():
        yield 1.0, 1.0, 0.999999, 0.0
        for _ in range(10_000):
            yield 1e-18, 1e-18, 0.9, 0.0
        while True:
            yield 0.0, 0.0, 0.0, 0.0

    res = sum_series(stream(), TruncationPolicy(abs_tol=0.0, max_terms=10_002))
    assert res.value == pytest.approx(1.0 + 1e-14, abs=3e-15)


def test_rounding_allowances_join_the_tail_bound():
    # the truncation tail plus u times the allowances of the rows consumed;
    # the value, the stop and convergence ignore them
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=10_000)
    plain = sum_series(geometric(0.5), policy)
    rounded = sum_series(geometric(0.5, rounding=3.0), policy)
    assert (rounded.value, rounded.terms_used, rounded.converged) == (
        plain.value, plain.terms_used, plain.converged
    )
    assert rounded.tail_bound == plain.tail_bound + _U * (3.0 * plain.terms_used)


# --- the relative target ---------------------------------------------------


def test_relative_target_counts_the_offset():
    # tail after row m is 0.5^m and the running sum 2 - 0.5^m
    policy = TruncationPolicy(abs_tol=1e-12, max_terms=1000, rel_tol=1e-3)
    absolute = sum_series(geometric(0.5), replace(policy, rel_tol=0.0))
    assert absolute.terms_used == 42
    # target 1e-3 (2 - 0.5^m): rows 9 and 10 certify
    alone = sum_series(geometric(0.5), policy)
    assert (alone.terms_used, alone.converged) == (11, True)
    # a closed part of 1000 raises the target to about 1: rows 0 and 1
    shifted = sum_series(geometric(0.5), policy, offset=1000.0)
    assert (shifted.terms_used, shifted.converged) == (2, True)
    # the value is the series alone, without the offset
    assert shifted.value == 1.5
    assert shifted.tail_bound == 0.5


def test_relative_target_resets_the_streak():
    # tail = envelope * 0.05 / 0.95 = 0.526 on every row; with rel_tol 0.1 it
    # certifies while |offset + sum| = 10 and not on row 1, where it is 0.5
    rows = [(0.0, 10.0, 0.05, 0.0), (-9.5, 10.0, 0.05, 0.0), (9.5, 10.0, 0.05, 0.0)]
    rows += [(0.0, 10.0, 0.05, 0.0)] * 10
    policy = TruncationPolicy(abs_tol=1e-6, max_terms=100, tail_safety=2, rel_tol=0.1)
    res = sum_series(rows, policy, offset=10.0)
    assert (res.value, res.terms_used, res.converged) == (0.0, 4, True)
    # without the dip the streak completes on row 1
    flat = [(0.0, 10.0, 0.05, 0.0)] * 10
    assert sum_series(flat, policy, offset=10.0).terms_used == 2


def test_relative_target_obeys_max_terms():
    policy = TruncationPolicy(abs_tol=0.0, max_terms=7, tail_safety=1, rel_tol=1e-9)
    res = sum_series(geometric(0.9), policy, offset=5.0)
    assert (res.terms_used, res.converged) == (7, False)
    assert res.value == sum_series(geometric(0.9), replace(policy, rel_tol=0.0)).value


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tail_safety=st.integers(min_value=1, max_value=4),
    max_terms=st.integers(min_value=1, max_value=80),
    offset=st.floats(min_value=-1e3, max_value=1e3),
)
def test_absolute_rule_ignores_the_offset(seed, tail_safety, max_terms, offset):
    # rel_tol = 0 takes no notice of the offset, and the relative loop with a
    # target too small ever to govern gives the same results bit for bit
    stream = _random_stream(np.random.default_rng(seed), 60)
    policy = TruncationPolicy(abs_tol=1e-3, max_terms=max_terms, tail_safety=tail_safety)
    plain = _scalar(stream, policy)
    assert _scalar(stream, policy, offset) == plain
    assert _scalar(stream, replace(policy, rel_tol=1e-300), offset) == plain


@pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
def test_policy_rejects_a_bad_rel_tol(bad):
    with pytest.raises(DomainValidationError):
        TruncationPolicy(rel_tol=bad)


def test_table_refuses_a_relative_target():
    stream = _stream([1.0, 0.5], [0.5, 0.5])
    with pytest.raises(DomainValidationError):
        sum_series_table(_table([stream]), 1, TruncationPolicy(rel_tol=1e-3))


# --- the column-wise twin -------------------------------------------------


def _random_stream(rng, length):
    """(term, envelope, ratio, rounding) rows whose certified tail wanders
    above and below 1e-3, so that streaks start, break and restart; some
    streams start with ratios >= 1, some grow their envelope, some hold a
    NaN/inf.  The allowances span many binades, so that a change in the
    order of their additions shows in the tail bound's last bits."""
    env = rng.uniform(0.5, 2.0) * np.cumprod(rng.uniform(0.2, 1.0, length))
    rho = rng.uniform(0.05, 0.995, length)
    rho[: rng.integers(0, 4)] = rng.uniform(1.0, 3.0)
    if rng.random() < 0.15:
        env[rng.integers(1, length)] *= 1.5
    term = env * rng.uniform(-1.0, 1.0, length)
    if rng.random() < 0.15:
        term[rng.integers(0, length)] = rng.choice([math.inf, -math.inf, math.nan])
    return term, env, rho, rng.uniform(0.0, 1.0, length) * 10.0 ** rng.integers(-3, 4, length)


def _table(streams):
    """sum_series_table's callable over a list of per-column streams, in
    chunks of summation.TABLE_MODES modes like the grid generators."""

    def table(cols):
        block = streams[cols]
        modes = summation.TABLE_MODES
        length = len(block[0][0])
        for start in range(0, length, modes):
            yield tuple(
                np.array([s[f][start : start + modes] for s in block]).T for f in range(4)
            )

    return table


def _row(grid, j):
    return EvalResult(
        value=float(grid.value[j]),
        terms_used=int(grid.terms_used[j]),
        tail_bound=float(grid.tail_bound[j]),
        converged=bool(grid.converged[j]),
    )


def _sum_in_chunks(modes, streams, policy):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(summation, "TABLE_MODES", modes)
        return sum_series_table(_table(streams), len(streams), policy)


def _scalar(stream, policy, offset=0.0):
    try:
        return sum_series(zip(*stream), policy, offset)
    except TailEnvelopeError:
        return None


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    width=st.integers(min_value=1, max_value=6),
    modes=st.integers(min_value=1, max_value=30),
    tail_safety=st.integers(min_value=1, max_value=4),
    max_terms=st.integers(min_value=1, max_value=80),
)
def test_table_columns_match_sum_series(seed, width, modes, tail_safety, max_terms):
    rng = np.random.default_rng(seed)
    streams = [_random_stream(rng, 60) for _ in range(width)]
    policy = TruncationPolicy(abs_tol=1e-3, max_terms=max_terms, tail_safety=tail_safety)
    scalars = [_scalar(s, policy) for s in streams]
    if any(res is None for res in scalars):
        with pytest.raises(TailEnvelopeError):
            _sum_in_chunks(modes, streams, policy)
        return
    grid = _sum_in_chunks(modes, streams, policy)
    for j, res in enumerate(scalars):
        # the same rows in the same order: value, terms, tail bound and
        # convergence agree bit for bit
        assert _row(grid, j) == res


def _stream(env, rho):
    env = np.array(env, dtype=float)
    return 0.5 * env, env, np.array(rho, dtype=float), np.ones(len(env))


def test_streak_carries_across_chunk_edges():
    # rows 3, 4 and 5 certify (tail = envelope at ratio 1/2), so a streak of
    # three ends on row 5, across the edge of chunks of four rows
    env = [1.0, 1.0, 1.0] + [1e-9] * 12
    stream = _stream(env, [0.5] * 15)
    policy = TruncationPolicy(abs_tol=1e-6, max_terms=100, tail_safety=3)
    res = sum_series(zip(*stream), policy)
    assert res.terms_used == 6
    assert res.tail_bound == 1e-9 + 6.0 * _U
    for modes in (1, 2, 4, 5):
        grid = _sum_in_chunks(modes, [stream], policy)
        assert _row(grid, 0) == res


def test_faults_past_a_columns_stop_are_not_read():
    # column 0 stops on row 1; its NaN on row 2 and its growing envelope on
    # row 3 lie past its stop, while column 1 still needs all four rows
    first = (np.array([1.0, 1e-9, math.nan, 0.0]), np.array([1.0, 1e-9, 1e-9, 1.0]),
             np.full(4, 0.5), np.ones(4))
    second = _stream([1.0, 0.5, 0.25, 1e-9], [0.5] * 4)
    policy = TruncationPolicy(abs_tol=1e-6, max_terms=4, tail_safety=1)
    grid = _sum_in_chunks(4, [first, second], policy)
    assert _row(grid, 0) == sum_series(zip(*first), policy)
    assert grid.terms_used[0] == 2
    assert grid.terms_used[1] == 4 and grid.converged[1]
    with pytest.raises(TailEnvelopeError):
        _sum_in_chunks(4, [first], TruncationPolicy(abs_tol=1e-12, max_terms=4))


def test_envelope_growth_across_a_chunk_edge_is_an_error():
    stream = _stream([1.0, 0.5, 0.6, 0.1], [0.5] * 4)
    policy = TruncationPolicy(abs_tol=1e-30, max_terms=4)
    with pytest.raises(TailEnvelopeError):
        _sum_in_chunks(2, [stream], policy)


def test_table_is_read_in_bounded_blocks():
    # a wide grid is summed TABLE_COLUMNS columns at a time
    width = 2 * TABLE_COLUMNS + 5
    seen = []
    modes = summation.TABLE_MODES

    def table(cols):
        n = cols.stop - cols.start
        q = np.linspace(0.1, 0.9, width)[cols]
        m = 0
        while True:
            seen.append(n)
            powers = q ** np.arange(m, m + modes)[:, None]
            yield powers, powers, np.broadcast_to(q, powers.shape), np.zeros_like(powers)
            m += modes

    policy = TruncationPolicy(abs_tol=1e-12, max_terms=100_000)
    grid = sum_series_table(table, width, policy)
    assert max(seen) == TABLE_COLUMNS
    for j in (0, TABLE_COLUMNS, width - 1):
        res = sum_series(geometric(float(np.linspace(0.1, 0.9, width)[j])), policy)
        assert grid.terms_used[j] == res.terms_used and grid.converged[j]
        assert grid.value[j] == pytest.approx(res.value, rel=1e-14)


def test_empty_table():
    grid = sum_series_table(_table([]), 0, TruncationPolicy())
    assert grid.value.size == 0


def test_exhausted_table_is_an_error():
    stream = _stream([1.0, 0.5], [0.5, 0.5])
    with pytest.raises(TailEnvelopeError):
        sum_series_table(_table([stream]), 1, TruncationPolicy(abs_tol=0.0, max_terms=10))
