#!/usr/bin/env python3
"""Check that every count-type per-layer metric repeats exactly for one seed.

    python3 bench/check_counts.py --workload critical-point --seed 1

Runs the traced benchmark twice with the same seed and compares the counts
(calls, terms, evaluations, errors, exit codes and the ratios built only
from them).  Exits 1 and names the metrics that differ, else exits 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent


def traced_metrics(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600, cwd=BENCH.parent,
    )
    return json.loads(done.stdout.splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    first, second = (traced_metrics(args.workload, args.seed) for _ in range(2))
    counts = [name for name, _, _ in tracing.layer_metric_specs() if tracing.is_count(name)]
    differ = [name for name in counts if first[name]["value"] != second[name]["value"]]
    for name in differ:
        print(f"DIFFERS {name}: {first[name]['value']!r} then {second[name]['value']!r}")
    print(f"{args.workload} seed {args.seed}: {len(counts) - len(differ)} of {len(counts)} "
          "count metrics repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
