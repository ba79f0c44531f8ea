"""The Brent-Dekker critical-point solver against the pure-bisection oracle.

``bisection_oracle`` is the solver this package used before: bisection of
the sweep bracket to adjacent doubles with an absolute residual certificate.
The new solver must end on the same adjacent-double pair, and so on the same
root, in far fewer evaluations.
"""

import dataclasses
import math
import random

import pytest

import bisection_oracle
from annulus_green import (
    AnnulusGeometry,
    BracketingError,
    DomainValidationError,
    EvalResult,
    concentration_root,
    find_critical_point,
)
from annulus_green import critical, green

SOLVER_TOL = 1e-12

# rounding flips the computed gradient's sign one ulp beyond Brent's final
# bracket here, so bisection must evaluate past that bracket to end on the
# same pair
SIGN_NOISE_CASE = (3, 0.1401626201573381)


def _seeded_geometries(count, seed=20261018):
    rng = random.Random(seed)
    return [(rng.randint(2, 6), rng.uniform(0.05, 0.95)) for _ in range(count)]


def _gradient(n, a):
    """The solver's counted gradient and the closed part its seed reads."""
    policy = critical._series_policy(None, SOLVER_TOL)
    family = green._radial(AnnulusGeometry(n, a))
    return critical._CountedSeries(family.gradient, policy), family.closed


def _swept(n, a):
    f, closed = _gradient(n, a)
    standoff = critical.DEFAULT_STANDOFF_FACTOR * (1.0 - a)
    return f, closed, critical._sweep_bracket(f, a, standoff)


def test_same_adjacent_pair_as_bisection():
    certified = 0
    for n, a in _seeded_geometries(120) + [SIGN_NOISE_CASE]:
        f, closed, (lo, res_lo, hi, res_hi, sign_lo) = _swept(n, a)

        oracle_pair = bisection_oracle.bisect_bracket(f, lo, hi, sign_lo)
        try:
            oracle_root, _ = bisection_oracle.bisect(f, lo, hi, sign_lo, SOLVER_TOL)
        except BracketingError:
            oracle_root = None

        weight = critical._pole_weight(a, n - 1)
        seed = lambda: critical._closed_root(closed, lo, hi, sign_lo)  # noqa: E731
        p, res_p, q, res_q = critical._brent(f, lo, res_lo, hi, res_hi, weight, seed)
        x_lo, _, x_hi, _ = critical._bisect(f, lo, hi, sign_lo, p, res_p, q, res_q)
        assert (x_lo, x_hi) == oracle_pair, (n, a)

        report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
        if oracle_root is None:
            assert report.certificate == "sign-pinned", (n, a)
        else:
            certified += 1
            assert report.certificate == "residual", (n, a)
            assert report.r0 == oracle_root, (n, a)
            assert report.residual <= SOLVER_TOL
    # the comparison is not vacuous: most of the draw certifies by residual
    assert certified >= 100


def _raising():
    raise OverflowError("the closed part overflows")


# first iterates Brent must survive: each is skipped, or taken as an
# ordinary iterate, and the pair stays the one bisection reaches
BAD_SEEDS = {
    "low end": lambda lo, hi, root: lo,
    "high end": lambda lo, hi, root: hi,
    "outside": lambda lo, hi, root: hi + 0.5 * (hi - lo),
    "nan": lambda lo, hi, root: math.nan,
    "inf": lambda lo, hi, root: math.inf,
    "beyond the root": lambda lo, hi, root: root + 0.9 * (hi - root),
    "short of the root": lambda lo, hi, root: lo + 1e-3 * (root - lo),
    "at the root": lambda lo, hi, root: root,
    "raises": lambda lo, hi, root: _raising(),
}


@pytest.mark.parametrize("name", sorted(BAD_SEEDS))
@pytest.mark.parametrize("n, a", [(3, 0.5), (2, 0.2), (6, 0.93), SIGN_NOISE_CASE])
def test_any_seed_ends_on_the_bisection_pair(n, a, name):
    f, _, (lo, res_lo, hi, res_hi, sign_lo) = _swept(n, a)
    oracle_pair = bisection_oracle.bisect_bracket(f, lo, hi, sign_lo)
    root = oracle_pair[0]
    x = BAD_SEEDS[name]
    seed = lambda: x(lo, hi, root)  # noqa: E731
    weight = critical._pole_weight(a, n - 1)
    p, res_p, q, res_q = critical._brent(f, lo, res_lo, hi, res_hi, weight, seed)
    assert p <= q
    x_lo, _, x_hi, _ = critical._bisect(f, lo, hi, sign_lo, p, res_p, q, res_q)
    assert (x_lo, x_hi) == oracle_pair


@pytest.mark.parametrize("n, a", [(3, 0.5), (2, 0.2)])
def test_evaluation_count(n, a):
    # pure bisection took 58 evaluations on both, Brent from the sweep
    # bracket 16 and 13; from the closed-form seed they take 13 each
    report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
    assert report.evaluations <= 14


def test_concentration_root_is_the_same_root():
    # the concentration equation is the gradient times -omega/2, so the
    # shared solver ends on the same adjacent-double pair
    for n, a in ((3, 0.5), (4, 0.3), (6, 0.8)):
        geom = AnnulusGeometry(n, a)
        root = concentration_root(geom, None, SOLVER_TOL)
        assert root == find_critical_point(geom, None, SOLVER_TOL).r0


def test_concentration_root_refuses_the_plane():
    # find_critical_point solves n = 2 too; the root equation is n >= 3 only
    with pytest.raises(DomainValidationError):
        concentration_root(AnnulusGeometry(2, 0.5), None, SOLVER_TOL)


@pytest.mark.parametrize("solver_tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "solve",
    [
        lambda geom, tol: find_critical_point(geom, None, tol),
        lambda geom, tol: concentration_root(geom, None, tol),
    ],
    ids=["find_critical_point", "concentration_root"],
)
def test_solver_tol_must_be_positive_and_finite(solve, solver_tol):
    # a NaN budget can certify no point and an infinite one any point
    with pytest.raises(DomainValidationError):
        solve(AnnulusGeometry(3, 0.5), solver_tol)


# --- the relative sign target of the sweep and Brent-Dekker ---------------


def _wide_geometries(count, seed=20261019):
    """n = 2..7 and a across [0.02, 0.98], a tenth of them thin annuli."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        a = rng.uniform(0.9, 0.98) if i % 10 == 0 else rng.uniform(0.02, 0.98)
        out.append((rng.randint(2, 7), a))
    return out


def _reported(report):
    """Every field of a report except the evaluation and term counts."""
    fields = dataclasses.asdict(report)
    del fields["evaluations"], fields["phases"]
    return fields


def _unseeded(patch):
    """Switch off Brent's closed-form seed: a non-finite seed is skipped."""
    patch.setattr(critical, "_closed_root", lambda *args: math.nan)


def _unweighted(patch):
    """Switch off the pole weight of Brent's interpolation: a unit weight
    leaves every value as it is."""
    patch.setattr(critical, "_pole_weight", lambda a, order: lambda r: 1.0)


def _solve_both(n, a, monkeypatch, seeded=True):
    geom = AnnulusGeometry(n, a)
    with monkeypatch.context() as patch:
        if not seeded:
            _unseeded(patch)
        relaxed = find_critical_point(geom, None, SOLVER_TOL)
        patch.setattr(critical, "_SIGN_REL_TOL", 0.0)
        absolute = find_critical_point(geom, None, SOLVER_TOL)
    return relaxed, absolute


def test_relative_sign_target_moves_no_reported_number(monkeypatch):
    # the sweep and Brent only decide signs, and every number the report
    # carries is summed to the absolute policy
    draws = _seeded_geometries(120) + [SIGN_NOISE_CASE] + _wide_geometries(600)
    pinned = 0
    for n, a in draws:
        relaxed, absolute = _solve_both(n, a, monkeypatch)
        assert _reported(relaxed) == _reported(absolute), (n, a)
        pinned += relaxed.certificate == "sign-pinned"
    # the draw reaches the steep gradients of thin annuli too
    assert pinned >= 10


# 30 geometries for the term-count guard: five per dimension 2..7
GUARD_GEOMETRIES = [(n, a) for n in range(2, 8) for a in (0.05, 0.3, 0.5, 0.7, 0.93)]


def _terms(report):
    return sum(phase.terms for phase in report.phases)


def test_relative_sign_target_saves_a_quarter_of_the_terms(monkeypatch):
    # without the seed, so that the ratio is what the relative target alone
    # saves; the seed shortens the all-absolute solve more than the relaxed
    # one, since its first iterate already lies next to the root
    relaxed = absolute = 0
    for n, a in GUARD_GEOMETRIES:
        rel_report, abs_report = _solve_both(n, a, monkeypatch, seeded=False)
        relaxed += _terms(rel_report)
        absolute += _terms(abs_report)
    assert relaxed <= 0.75 * absolute


def _solve_seeded_and_plain(n, a, monkeypatch):
    geom = AnnulusGeometry(n, a)
    seeded = find_critical_point(geom, None, SOLVER_TOL)
    with monkeypatch.context() as patch:
        _unseeded(patch)
        _unweighted(patch)
        plain = find_critical_point(geom, None, SOLVER_TOL)
    return seeded, plain


def test_seed_and_weight_move_no_reported_number(monkeypatch):
    # Brent's path only chooses which midpoints of plain bisection are
    # evaluated, so the seed and the pole weight change the counts alone
    draws = _seeded_geometries(120) + [SIGN_NOISE_CASE] + _wide_geometries(600)
    pinned = 0
    for n, a in draws:
        seeded, plain = _solve_seeded_and_plain(n, a, monkeypatch)
        assert _reported(seeded) == _reported(plain), (n, a)
        pinned += seeded.certificate == "sign-pinned"
    assert pinned >= 10


def _phase(report, name):
    return next(p for p in report.phases if p.phase == name)


def test_seed_and_weight_save_brent_evaluations(monkeypatch):
    brent = plain_brent = terms = plain_terms = 0
    for n, a in GUARD_GEOMETRIES:
        seeded, plain = _solve_seeded_and_plain(n, a, monkeypatch)
        brent += _phase(seeded, "brent").evaluations
        plain_brent += _phase(plain, "brent").evaluations
        terms += _terms(seeded)
        plain_terms += _terms(plain)
    assert brent <= 0.7 * plain_brent
    assert terms <= plain_terms


@pytest.mark.parametrize("n, a", [(3, 0.5), (2, 0.2), (5, 0.93), (6, 0.8)])
def test_phase_counts_add_up(n, a, monkeypatch):
    # wrap the evaluators in green, where the family looks them up, and count
    # the terms they sum; the phases split exactly that work
    summed = []

    def counted(fn):
        def wrapper(*args):
            res = fn(*args)
            summed.append(res.terms_used)
            return res

        return wrapper

    for name in (
        "robin_radial_gradient",
        "robin_radial_gradient_derivative",
        "robin2d_first",
        "robin2d_second",
    ):
        monkeypatch.setattr(green, name, counted(getattr(green, name)))
    report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
    assert [p.phase for p in report.phases] == list(critical.PHASES)
    assert sum(p.evaluations for p in report.phases) == report.evaluations == len(summed)
    assert _terms(report) == sum(summed)
    counts = {p.phase: p for p in report.phases}
    assert counts["sweep"].evaluations >= 2
    # the slope series, once
    assert counts["second_derivative"].evaluations == 1


def _steep_line(relaxed_tail):
    """fn(r, policy) for 1e6 (0.6 - r) + 1e-7, whose root lies between
    doubles: a sum that its relative target lets stop early
    (rel_tol |value| > abs_tol) reports 1 term and a tail of ``relaxed_tail``
    times |value|, any other one 2 terms and no tail."""

    def fn(r, policy):
        value = 1e6 * (0.6 - r) + 1e-7
        if policy.rel_tol * abs(value) > policy.abs_tol:
            return EvalResult(value * (1.0 + 1e-3), 1, relaxed_tail * abs(value), True)
        return EvalResult(value, 2, 0.0, True)

    return fn


def test_uncertain_relaxed_sign_is_summed_again():
    # every relaxed result is too loose to fix a sign, so the sweep must
    # fall back to absolute sums rather than give up
    policy = critical._series_policy(None, SOLVER_TOL)
    f = critical._CountedSeries(_steep_line(1.0), policy)
    lo, res_lo, hi, res_hi, sign_lo = critical._sweep_bracket(f, 0.5, 1e-4)
    assert (sign_lo, res_lo.terms_used, res_hi.terms_used) == (1, 2, 2)


def test_brent_ends_are_settled_to_the_absolute_policy():
    # on a steep line the relaxed values next to the root still exceed
    # abs_tol / rel_tol, so Brent's final ends must be summed again
    policy = critical._series_policy(None, SOLVER_TOL)
    f = critical._CountedSeries(_steep_line(1e-3), policy)
    lo, res_lo, hi, res_hi, _ = critical._sweep_bracket(f, 0.5, 1e-4)
    assert (res_lo.terms_used, res_hi.terms_used) == (1, 1)
    # unweighted and unseeded: a non-finite seed is skipped
    unit, no_seed = (lambda r: 1.0), (lambda: math.nan)
    p, res_p, q, res_q = critical._brent(f, lo, res_lo, hi, res_hi, unit, no_seed)
    assert p < q and res_p.value > 0.0 > res_q.value
    assert (res_p.terms_used, res_q.terms_used) == (2, 2)
