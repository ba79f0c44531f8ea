"""The regula falsi critical-point solver against the pure-bisection oracle.

``bisection_oracle`` is the solver this package used before: bisection of
the sweep bracket to adjacent doubles with an absolute residual certificate.
The new solver must end on the same adjacent-double pair, and so on the same
root, in far fewer evaluations.
"""

import math
import random
import struct

import mpmath
import pytest

import bisection_oracle
import references as refs
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

# rounding flips the computed gradient's sign one ulp beyond the
# interpolation's final bracket here, so bisection must evaluate past that
# bracket to end on the same pair
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
    """The counted gradient, its closed part, the sweep bracket with the
    values at its ends, and the sign at its low end."""
    f, closed = _gradient(n, a)
    standoff = critical.DEFAULT_STANDOFF_FACTOR * (1.0 - a)
    lo, hi, v_lo, v_hi = critical._sweep_bracket(f, a, standoff)
    return f, closed, (lo, hi, v_lo, v_hi), 1 if v_lo > 0.0 else -1


def _interpolated(f, lo, hi, v_lo, v_hi, weight, x):
    """The interpolation phase of the solver on f's sweep bracket, from the
    first iterate x."""
    value = lambda r, step: f.sign_result(r, abs(step / r)).value  # noqa: E731
    return critical._interpolate(value, lo, hi, v_lo, v_hi, weight, x)


def _oracle_pair(n, a, lo, hi, sign_lo):
    # a series of its own, so that the oracle's sums do not fill the
    # solver's store
    return bisection_oracle.bisect_bracket(_gradient(n, a)[0], lo, hi, sign_lo)


def test_same_adjacent_pair_as_bisection():
    certified = 0
    for n, a in _seeded_geometries(120) + [SIGN_NOISE_CASE]:
        f, closed, (lo, hi, v_lo, v_hi), sign_lo = _swept(n, a)

        oracle_pair = _oracle_pair(n, a, lo, hi, sign_lo)
        try:
            oracle_root, _ = bisection_oracle.bisect(
                _gradient(n, a)[0], lo, hi, sign_lo, SOLVER_TOL
            )
        except BracketingError:
            oracle_root = None

        weight = critical._pole_weight(a, n - 1)
        x = critical._seed(closed, lo, hi, sign_lo, weight)
        p, q = _interpolated(f, lo, hi, v_lo, v_hi, weight, x)
        assert critical._bisect(f, lo, hi, sign_lo, p, q) == oracle_pair, (n, a)

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


# first iterates the interpolation must survive: as the closed part's root
# each is refused by _seed or returned by it, and as a first iterate it is
# taken as an ordinary one; the pair stays the one bisection reaches
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
    _, _, (lo, hi, v_lo, v_hi), sign_lo = _swept(n, a)
    oracle_pair = _oracle_pair(n, a, lo, hi, sign_lo)
    root = oracle_pair[0]
    bad = BAD_SEEDS[name]
    weight = critical._pole_weight(a, n - 1)
    closed = lambda r: sign_lo * (bad(lo, hi, root) - r)  # noqa: E731
    firsts = [critical._seed(closed, lo, hi, sign_lo, weight)]
    if name != "raises":
        firsts.append(bad(lo, hi, root))
    for x in firsts:
        f = _swept(n, a)[0]  # a store of its own
        p, q = _interpolated(f, lo, hi, v_lo, v_hi, weight, x)
        assert p <= q
        assert critical._bisect(f, lo, hi, sign_lo, p, q) == oracle_pair


# closed parts on [0.5, 0.75], where the series is positive at 0.5, that
# give no seed: the wrong signs at the ends, one sign throughout, no number,
# an error, and a root in the first ulp above 0.5
NO_SEEDS = {
    "reversed signs": lambda r: r - 0.6,
    "no sign change": lambda r: 1.0,
    "nan": lambda r: math.nan,
    "raises": lambda r: _raising(),
    "root at the low end": lambda r: 1.0 if r == 0.5 else -1.0,
}


@pytest.mark.parametrize("name", sorted(NO_SEEDS))
def test_no_seed_without_a_closed_root_strictly_inside(name):
    assert critical._seed(NO_SEEDS[name], 0.5, 0.75, 1, lambda r: 1.0) is None


def _gap(x):
    """0 outside [0.1, 0.9] and 1 inside: a weight that underflows next to
    both ends of [0, 1]."""
    return 0.0 if x < 0.1 or x > 0.9 else 1.0


# (function, weight, first iterate) on [0, 1] that the interpolation must
# bring to a bracket of opposite signs, or to an exact zero: a root where
# the weight is 0 at both ends and next to the root; an exact zero at the
# second iterate; and a steep one-sided function, on which regula falsi
# without Anderson-Bjorck's scaling keeps one end for good, either end
INTERPOLATION_CASES = {
    "zero weights": (lambda x: x - 0.95, _gap, None),
    "exact zero": (lambda x: x - 0.25, lambda x: 1.0, 0.75),
    "one-sided": (lambda x: (x - 0.3) ** 15, lambda x: 1.0, None),
    "one-sided, mirrored": (lambda x: (x - 0.7) ** 15, lambda x: 1.0, None),
}


@pytest.mark.parametrize("name", sorted(INTERPOLATION_CASES))
def test_interpolation_ends_on_opposite_signs(name):
    fn, weight, x = INTERPOLATION_CASES[name]
    calls = []

    def value(r, step):
        calls.append(r)
        # plain regula falsi takes more than 200 000 on the one-sided case
        assert len(calls) <= 1000, "the interpolation stalls"
        return fn(r)

    p, q = critical._interpolate(value, 0.0, 1.0, fn(0.0), fn(1.0), weight, x)
    if p == q:
        assert fn(p) == 0.0
    else:
        assert 0.0 < p < q < 1.0 and q - p <= 4.0 * 2.0**-52
        assert fn(p) < 0.0 < fn(q)
    if name == "exact zero":
        assert (p, q, len(calls)) == (0.25, 0.25, 2)


def _up(x, k):
    """The double k doubles above x."""
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


def _even(x):
    """Whether the last bit of the double x's significand is 0."""
    return struct.unpack("<q", struct.pack("<d", x))[0] % 2 == 0


# the computed signs on nine adjacent doubles, and a one-ulp bracket
# [p, q] among them, by offset from the first: rounding flips the sign one
# double beyond q ("above") or below p ("below"), and plain bisection of
# the nine, whose first midpoint is that double, ends past the bracket
ULP_FLIPS = {
    "above": ("+++-+----", 2),
    "below": ("++++-+---", 5),
}


@pytest.mark.parametrize("side", sorted(ULP_FLIPS))
def test_bisection_window_reaches_the_double_past_a_one_ulp_bracket(side):
    signs, at_p = ULP_FLIPS[side]
    base = 0.6
    while not _even(_up(base, 3)):
        base = _up(base, 1)
    radii = [_up(base, k) for k in range(len(signs))]
    values = {r: 1.0 if s == "+" else -1.0 for r, s in zip(radii, signs)}
    policy = critical._series_policy(None, SOLVER_TOL)

    def series():
        return critical._CountedSeries(lambda r, _: EvalResult(values[r], 1, 0.0, True), policy)

    p, q = radii[at_p], radii[at_p + 1]
    # the bracket's end on the flip's side has an even last bit, so half the
    # bracket past it is a tie that rounds back onto it
    if side == "above":
        assert q + 0.5 * (q - p) == q
        beyond = radii[at_p + 2 : at_p + 4]
    else:
        assert p - 0.5 * (q - p) == p
        beyond = radii[at_p - 2 : at_p]
    lo, hi = radii[0], radii[-1]
    oracle_pair = bisection_oracle.bisect_bracket(series(), lo, hi, 1)
    assert oracle_pair == tuple(beyond)
    assert critical._bisect(series(), lo, hi, 1, p, q) == oracle_pair


@pytest.mark.parametrize("n, a", [(3, 0.5), (2, 0.2)])
def test_evaluation_count(n, a):
    # pure bisection took 58 evaluations on both; regula falsi takes 17
    # and 11 unseeded and unweighted, and 11 and 9 with the seed and the
    # pole weight
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


# --- the relative sign target of the sweep and the interpolation ----------


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
    fields = report._asdict()
    del fields["evaluations"], fields["phases"]
    return fields


def _unseeded(patch):
    """Switch off the closed-form seed."""
    patch.setattr(critical, "_seed", lambda *args: None)


def _unweighted(patch):
    """Switch off the pole weight of the interpolation: a unit weight
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
    # the sweep and the interpolation only decide signs, and every number
    # the report carries is summed to the absolute policy
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


# above a = 0.787 the solver's abs_tol 5e-14 sends every gradient series to
# the image route, and a relative target may take the mode series instead
# (green._relaxed_modes); at this a, a relaxed sum taken that way once
# moved the reported residual (4.82e-14 became 5.52e-14)
ROUTED_CASE = (2, 0.7945565726614747)


def _routed_geometries(count, seed=20261022):
    rng = random.Random(seed)
    return [(rng.randint(2, 6), rng.uniform(0.787, 0.95)) for _ in range(count)]


def test_relative_route_moves_no_reported_number(monkeypatch):
    # a relaxed sum on the mode series is never filed as an absolute one, so
    # every reported number is still the all-absolute solve's
    terms = image_terms = 0
    for n, a in [ROUTED_CASE] + _routed_geometries(450):
        relaxed, absolute = _solve_both(n, a, monkeypatch)
        assert _reported(relaxed) == _reported(absolute), (n, a)
        terms += _terms(relaxed)
        with monkeypatch.context() as patch:
            patch.setattr(green, "_RELATIVE_MODES", 0)
            image_terms += _terms(find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL))
    # and the relaxed sums got shorter: 8.8 % fewer terms per solve
    assert terms <= 0.95 * image_terms


def _solve_seeded_and_plain(n, a, monkeypatch):
    geom = AnnulusGeometry(n, a)
    seeded = find_critical_point(geom, None, SOLVER_TOL)
    with monkeypatch.context() as patch:
        _unseeded(patch)
        _unweighted(patch)
        plain = find_critical_point(geom, None, SOLVER_TOL)
    return seeded, plain


def test_seed_and_weight_move_no_reported_number(monkeypatch):
    # the interpolation's path only chooses which midpoints of plain
    # bisection are evaluated, so the seed and the pole weight change the
    # counts alone
    draws = _seeded_geometries(120) + [SIGN_NOISE_CASE] + _wide_geometries(600)
    pinned = 0
    for n, a in draws:
        seeded, plain = _solve_seeded_and_plain(n, a, monkeypatch)
        assert _reported(seeded) == _reported(plain), (n, a)
        pinned += seeded.certificate == "sign-pinned"
    assert pinned >= 10


def _phase(report, name):
    return next(p for p in report.phases if p.phase == name)


def test_seed_and_weight_save_interpolation_evaluations(monkeypatch):
    evals = plain_evals = terms = plain_terms = 0
    for n, a in GUARD_GEOMETRIES:
        seeded, plain = _solve_seeded_and_plain(n, a, monkeypatch)
        evals += _phase(seeded, "interpolation").evaluations
        plain_evals += _phase(plain, "interpolation").evaluations
        terms += _terms(seeded)
        plain_terms += _terms(plain)
    assert evals <= 0.7 * plain_evals
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
    # fall back to absolute sums rather than give up; the store holds them
    policy = critical._series_policy(None, SOLVER_TOL)
    f = critical._CountedSeries(_steep_line(1.0), policy)
    lo, hi, v_lo, v_hi = critical._sweep_bracket(f, 0.5, 1e-4)
    calls = f.calls
    assert (v_lo > 0.0, f.result(lo).terms_used, f.result(hi).terms_used) == (True, 2, 2)
    assert f.calls == calls


# a tiny inner radius puts the root inside the first standoff 1e-3 (1 - a),
# so the sweep halves its offsets before the signs differ (12 and 20
# evaluations)
HALVING_GEOMETRIES = [(9, 1e-10), (20, 1e-12)]


@pytest.mark.parametrize("n, a", HALVING_GEOMETRIES)
def test_sweep_halves_its_offsets_toward_a_root_in_the_layer(n, a):
    report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
    assert _phase(report, "sweep").evaluations > 2
    assert report.certificate == "residual"
    # the 50-digit root lies within the certificate's own bound of r0
    root, slope = refs.root(n, a, report.r0)
    with mpmath.workdps(refs.DPS):
        error = float(abs(mpmath.mpf(report.r0) - root))
    assert error <= report.residual / abs(float(slope))


def _constant(value, tail_bound):
    """A counted series with the same value and tail bound at every radius."""
    policy = critical._series_policy(None, SOLVER_TOL)
    return critical._CountedSeries(lambda r, _: EvalResult(value, 1, tail_bound, True), policy)


def test_sweep_refuses_an_uncertain_sign():
    # the tail could flip the sign even of the absolute sums
    with pytest.raises(BracketingError, match="sign uncertain"):
        critical._sweep_bracket(_constant(1.0, 1.0), 0.5, 1e-4)


def test_sweep_refuses_a_series_without_a_sign_change():
    f = _constant(1.0, 0.0)
    with pytest.raises(BracketingError, match="no sign change"):
        critical._sweep_bracket(f, 0.5, 1e-4)
    # the offsets halved down to 1e-14 of the gap
    assert f.calls > 40


def test_interpolation_ends_are_read_as_absolute_sums():
    # on a steep line the relaxed values next to the root still exceed
    # abs_tol / rel_tol, so they must not stand in for the interpolation's
    # final ends
    policy = critical._series_policy(None, SOLVER_TOL)
    f = critical._CountedSeries(_steep_line(1e-3), policy)
    lo, hi, v_lo, v_hi = critical._sweep_bracket(f, 0.5, 1e-4)
    assert f.phase_counts()[0] == ("sweep", 2, 2)  # one term each: relaxed
    # unweighted and unseeded
    p, q = _interpolated(f, lo, hi, v_lo, v_hi, lambda r: 1.0, None)
    res_p, res_q = f.result(p), f.result(q)
    assert p < q and res_p.value > 0.0 > res_q.value
    assert (res_p.terms_used, res_q.terms_used) == (2, 2)


# thin annuli whose roots are sign-pinned: the pinning phase steps out
# through points that bisection has already summed
PINNED_GEOMETRIES = [(2, 0.97), (3, 0.97), (4, 0.95), (5, 0.96), (6, 0.96)]


@pytest.mark.parametrize("n, a", PINNED_GEOMETRIES + [(3, 0.5)])
def test_no_radius_is_summed_twice_to_the_absolute_policy(n, a, monkeypatch):
    absolute = []

    def recorded(fn):
        def wrapper(first, r, policy):
            if policy.rel_tol == 0.0:
                absolute.append(r)
            return fn(first, r, policy)

        return wrapper

    for name in ("robin_radial_gradient", "robin2d_first"):
        monkeypatch.setattr(green, name, recorded(getattr(green, name)))
    report = find_critical_point(AnnulusGeometry(n, a), None, SOLVER_TOL)
    assert report.certificate == ("residual" if a == 0.5 else "sign-pinned")
    assert absolute and len(set(absolute)) == len(absolute)
