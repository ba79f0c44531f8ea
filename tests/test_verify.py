import math
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from annulus_green import BracketingError, EvalResult, cli, verify
from annulus_green.verify import SUITES, SuiteResult, render_summary, run_suites

# Tier-1 runs every suite at this seed.  The check counts are pinned, so a
# sample size cannot shrink without an edit here.
TEST_SEED = 1234
CHECKS_AT_TEST_SEED = {
    "special-functions": 3432,
    "distance-series": 1740,
    "poisson-extension": 89,
    "green-function": 850,
    "modal-oracle": 2056,
    "robin-derivatives": 462,
    "critical-point": 21,
}
SUMMARY_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "verify_seed1234.txt"
# wall-clock limits in seconds
TIME_LIMITS = {"green-function": 30.0, "modal-oracle": 60.0}

# The acceptance criteria c01-c11, each mapped to the suite and the checks
# that cover it: check label (a regular expression over the whole label) ->
# the least number of such checks at the test seed, which is the sample size
# the criterion asks for.  The pinned totals above would not notice draws
# moved from one check to another; these do.
CRITERIA = {
    "c01-dirichlet-boundary": (
        "green-function",
        {rf"dirichlet n={n} a={a}": 50 for n in (3, 4) for a in (r"0\.3", r"0\.5")},
    ),
    "c02-green-symmetry": ("green-function", {"symmetry": 200}),
    "c03-regular-part-harmonic": ("green-function", {"harmonic regular part": 50}),
    "c04-modal-oracle": (
        "modal-oracle",
        {
            r"modal (ratio|zero) n=3 m=\d+": 51 * 20,
            r"modal (ratio|zero) n=4 m=\d+": 51 * 20,
            r"fd accuracy n=3 m=1 a=0\.5": 1,
            r"fd accuracy n=3 m=2 a=0\.5": 1,
            r"fd accuracy n=4 m=1 a=0\.3": 1,
            r"fd order n=3 m=1 a=0\.5": 2,
            r"fd order n=3 m=2 a=0\.5": 2,
            r"fd order n=4 m=1 a=0\.3": 2,
        },
    ),
    "c05-ball-limit": ("modal-oracle", {"ball limit monotone": 1, r"ball limit scale a=.*": 3}),
    "c06-critical-point": (
        "critical-point",
        {
            f"{check} n={n}": 1
            for check in ("residual", "grid scan", "single sign change")
            for n in (2, 3, 4)
        },
    ),
    "c07-planar-convexity": (
        "robin-derivatives",
        {
            rf"planar {check} a={a}": count
            for check, count in (("convexity", 50), ("end signs", 1))
            for a in (r"0\.1", r"0\.2", r"0\.5")
        },
    ),
    "c08-special-functions": (
        "special-functions",
        {
            r"endpoint n=\d m=\d+": 6 * 31,
            r"generating .*": 4 * 5 * 3,
            r"route n=\d m=\d+": 1000,
            r"diagonal n=\d m=\d+": 1000,
        },
    ),
    "c09-distance-series": (
        "distance-series",
        {f"{side} n={n}": 250 for side in ("outer", "inner") for n in (3, 4, 5)},
    ),
    "c10-harmonic-extension": (
        "poisson-extension",
        {"mean value f=1": 50, "coordinate trace": 20, r"mode-1 profile r=.*": 9},
    ),
    "c11-gradient-checks": (
        "robin-derivatives",
        {f"{check} fd n={n}": 10 for check in ("gradient", "slope") for n in (3, 4)},
    ),
    "c12-image-tail-agreement": (
        "robin-derivatives",
        {
            f"image tail agreement {name} n={n}": 4
            for n in range(2, 7)
            for name in (
                ("robin2d_first", "robin2d_second")
                if n == 2
                else ("robin_eval", "robin_radial_gradient", "robin_radial_gradient_derivative")
            )
        },
    ),
}


@pytest.fixture(scope="module")
def seeded_run():
    """``run_suites([name], seed=TEST_SEED)``, its wall time and the number of
    checks under each label, run once per suite and module."""
    runs = {}

    def run(name):
        if name not in runs:
            labels = Counter()
            check = SuiteResult.check

            def counting_check(self, ok, err, label):
                labels[label] += 1
                check(self, ok, err, label)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(SuiteResult, "check", counting_check)
                t0 = time.monotonic()
                (res,) = run_suites([name], seed=TEST_SEED)
                elapsed = time.monotonic() - t0
            runs[name] = res, elapsed, labels
        return runs[name]

    return run


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_passes_at_test_seed(seeded_run, name):
    res, elapsed, labels = seeded_run(name)
    assert res.passed, render_summary([res], TEST_SEED)
    assert res.checks == CHECKS_AT_TEST_SEED[name]
    assert sum(labels.values()) == res.checks
    assert elapsed <= TIME_LIMITS.get(name, math.inf)


@pytest.mark.parametrize("criterion", list(CRITERIA))
def test_criterion_is_covered(seeded_run, criterion):
    name, least = CRITERIA[criterion]
    res, _, labels = seeded_run(name)
    assert res.passed, render_summary([res], TEST_SEED)
    for pattern, count in least.items():
        seen = sum(k for label, k in labels.items() if re.fullmatch(pattern, label))
        assert seen >= count, f"{criterion}: {seen} checks match {pattern!r}, want {count}"


def test_full_summary_is_byte_identical_across_runs(seeded_run):
    first = render_summary([seeded_run(name)[0] for name in SUITES], TEST_SEED)
    second = render_summary(run_suites(seed=TEST_SEED), TEST_SEED)
    assert second == first
    # and to the pinned summary: a change meant to move verify output
    # regenerates this file and says so
    assert first == SUMMARY_FIXTURE.read_text()


def test_suite_registry_names():
    assert set(SUITES) == {
        "special-functions",
        "distance-series",
        "poisson-extension",
        "green-function",
        "modal-oracle",
        "robin-derivatives",
        "critical-point",
    }
    # the CLI's --suite choices, listed there so that verify loads only when it runs
    assert cli._SUITES == tuple(sorted(SUITES))


def test_distance_suite_passes_and_is_deterministic():
    r1 = run_suites(["distance-series"], seed=11)
    r2 = run_suites(["distance-series"], seed=11)
    assert r1[0].passed
    assert render_summary(r1, 11) == render_summary(r2, 11)


def test_seed_changes_draws():
    r1 = run_suites(["distance-series"], seed=1)
    r2 = run_suites(["distance-series"], seed=2)
    # same counts, different worst-case observations
    assert r1[0].checks == r2[0].checks
    assert r1[0].worst != r2[0].worst


def wrong_outer_series(*args):
    """A stand-in for newtonian_series_outer: a negative value, which a
    distance power never is, claimed exact with a zero tail."""
    return EvalResult(value=-1.0, terms_used=1, tail_bound=0.0, converged=True)


def test_wrong_series_reports_failures(monkeypatch):
    monkeypatch.setattr(verify, "newtonian_series_outer", wrong_outer_series)
    res = run_suites(["distance-series"], seed=0)[0]
    assert not res.passed
    # every outer check fails, 250 for each of n = 3, 4, 5, and no other
    assert res.failures == 750
    assert any("FAIL" in note for note in res.notes)


def test_suite_counts_an_error_inside_a_check_as_a_failure(monkeypatch):
    # an AnnulusError inside a guarded check is one FAIL, not a crash of the
    # suite
    def refuse(*args, **kwargs):
        raise BracketingError("no sign change")

    monkeypatch.setattr(verify, "find_critical_point", refuse)
    res = run_suites(["critical-point"], seed=0)[0]
    assert not res.passed
    assert res.failures == res.checks >= 1
    assert res.worst == math.inf
    assert all(note.startswith("FAIL critical point") for note in res.notes)
    assert "BracketingError: no sign change" in res.notes[0]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"], seed=0)


def test_summary_shape():
    results = run_suites(["distance-series"], seed=3)
    text = render_summary(results, 3)
    lines = text.strip().splitlines()
    assert lines[0] == "verification seed=3"
    assert lines[1].startswith("PASS distance-series")
    assert lines[-1].startswith("RESULT PASS checks=")
