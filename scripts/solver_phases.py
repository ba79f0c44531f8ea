#!/usr/bin/env python3
"""Evaluations, terms and time per phase of the critical-point solver.

Solves find_critical_point with the CLI defaults (tol 1e-10, max_terms
100 000, solver_tol 1e-12) on a seeded draw of geometries over the
benchmark's range, n = 2..6 and a uniform in [0.05, 0.95], and prints the
mean evaluations, the most evaluations any one solve made, and the mean
terms and milliseconds per solve of each phase in critical.PHASES, then
their total.  A phase's time runs from the moment the solver enters it to
the moment it enters the next, so the interpolation's row includes its
closed-form seed; the last phase ends when find_critical_point returns.

Example:
    python scripts/solver_phases.py --count 1500 --seed 11
"""

import argparse
import random
import sys
import time

from annulus_green import AnnulusGeometry, TruncationPolicy, find_critical_point
from annulus_green import critical


class PhaseTimed(critical._CountedSeries):
    """_CountedSeries that also clocks the time spent in each phase."""

    last = None

    def __init__(self, *args, **kwargs):
        self._clock = None
        self.times = dict.fromkeys(critical.PHASES, 0.0)
        super().__init__(*args, **kwargs)
        PhaseTimed.last = self

    @property
    def phase(self) -> str:
        return self._phase

    @phase.setter
    def phase(self, name: str) -> None:
        now = time.perf_counter()
        if self._clock is not None:
            self.times[self._phase] += now - self._clock
        self._phase, self._clock = name, now


def draw(count: int, seed: int) -> list[tuple[int, float]]:
    rng = random.Random(seed)
    return [(rng.randint(2, 6), rng.uniform(0.05, 0.95)) for _ in range(count)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=1500, help="geometries in the draw")
    ap.add_argument("--seed", type=int, default=11, help="seed of the draw")
    args = ap.parse_args()

    policy = TruncationPolicy(abs_tol=1e-10, max_terms=100_000, tail_safety=2)
    totals = {name: [0, 0, 0.0] for name in critical.PHASES}
    most = dict.fromkeys([*critical.PHASES, "total"], 0)
    failed = 0
    counted = critical._CountedSeries
    critical._CountedSeries = PhaseTimed
    try:
        for n, a in draw(args.count, args.seed):
            try:
                report = find_critical_point(AnnulusGeometry(n, a), policy, 1e-12)
            except critical.BracketingError:
                failed += 1
                continue
            f = PhaseTimed.last
            f.phase = f.phase  # close the last phase's clock
            for phase in report.phases:
                row = totals[phase.phase]
                row[0] += phase.evaluations
                row[1] += phase.terms
                row[2] += f.times[phase.phase]
                most[phase.phase] = max(most[phase.phase], phase.evaluations)
            most["total"] = max(most["total"], report.evaluations)
    finally:
        critical._CountedSeries = counted

    solved = args.count - failed
    print(f"{solved} solves, {failed} failed (n = 2..6, a in [0.05, 0.95], seed {args.seed})")
    print(f"{'phase':<18} {'evals':>7} {'max':>5} {'terms':>8} {'ms':>8}")
    rows = list(totals.items()) + [("total", [sum(col) for col in zip(*totals.values())])]
    for name, (evals, terms, seconds) in rows:
        per = max(solved, 1)
        print(
            f"{name:<18} {evals / per:7.2f} {most[name]:5d} {terms / per:8.1f} "
            f"{1e3 * seconds / per:8.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
