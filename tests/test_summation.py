import math

import pytest

from annulus_green import TailEnvelopeError, TruncationPolicy
from annulus_green.summation import sum_series


def geometric(q, coeff=1.0):
    """Exact geometric stream: term = coeff * q^m with its own envelope."""
    m = 0
    term = coeff
    while True:
        yield term, abs(term), q
        term *= q
        m += 1


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
        yield 1.0, 1.0, 0.5  # contracting from the start
        yield 0.1, 2.0, 0.5  # envelope jumps back up: defect
        while True:
            yield 0.0, 0.0, 0.5

    with pytest.raises(TailEnvelopeError):
        sum_series(bad(), TruncationPolicy(abs_tol=1e-30, max_terms=100))


@pytest.mark.parametrize(
    "bad",
    [(math.inf, math.inf, 0.5), (math.nan, 1.0, 0.5), (1.0, math.inf, 0.5), (1.0, math.nan, 0.5)],
)
def test_non_finite_term_or_envelope_is_an_error(bad):
    def stream():
        yield 1.0, 1.0, 0.5
        yield bad
        while True:
            yield 0.0, 0.0, 0.5

    with pytest.raises(TailEnvelopeError):
        sum_series(stream(), TruncationPolicy(abs_tol=1e-30, max_terms=100))


def test_exhausted_stream_is_an_error():
    with pytest.raises(TailEnvelopeError):
        sum_series(iter([(1.0, 1.0, math.inf)]), TruncationPolicy(abs_tol=0.0, max_terms=10))


def test_kahan_compensation_beats_naive():
    # many tiny terms after a large head: plain accumulation loses them
    def stream():
        yield 1.0, 1.0, 0.999999
        for _ in range(10_000):
            yield 1e-18, 1e-18, 0.9
        while True:
            yield 0.0, 0.0, 0.0

    res = sum_series(stream(), TruncationPolicy(abs_tol=0.0, max_terms=10_002))
    assert res.value == pytest.approx(1.0 + 1e-14, abs=3e-15)
