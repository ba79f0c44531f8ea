#!/usr/bin/env python3
"""What a one-shot process pays before and around its first request.

Times two things, each in ``--count`` fresh interpreters run one at a time:

- ``import``: ``import annulus_green, annulus_green.cli``, timed inside the
  interpreter, as bench/run.py's setup_s times it;
- ``process``: a whole ``python -m annulus_green critical-point --n 3
  --a 0.5`` process, timed from outside, start to exit.

Each is measured with bytecode caching off (PYTHONDONTWRITEBYTECODE=1, so
the package's sources compile on every start) and on (PYTHONPYCACHEPREFIX
in a temporary directory, filled by one untimed process first).  The script
prints the median and the quartiles of each, in milliseconds of wall time on
the machine it runs on.

Example:
    python scripts/import_cost.py --count 15
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import annulus_green, annulus_green.cli; print(time.perf_counter() - t)"
)
REQUEST = ["-m", "annulus_green", "critical-point", "--n", "3", "--a", "0.5"]


def _environment(src: Path, cache: str | None) -> dict:
    """The child's environment: ``src`` first on its path, and bytecode
    written to and read from ``cache``, or never written where it is None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = cache
    return env


def _import_s(env: dict) -> float:
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True, text=True, check=True
    )
    return float(done.stdout)


def _process_s(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *REQUEST], env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def _measure(env: dict, count: int) -> dict:
    """Seconds per fresh interpreter, for the import and the whole process,
    the two taken in turn."""
    times = {"import": [], "process": []}
    for _ in range(count):
        times["import"].append(_import_s(env))
        times["process"].append(_process_s(env))
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", type=Path, default=SRC, help="source tree holding annulus_green")
    ap.add_argument("--count", type=int, default=9, help="fresh interpreters per figure")
    args = ap.parse_args()
    if args.count < 2:
        ap.error("--count needs at least 2 interpreters for quartiles")

    src = args.src.resolve()
    rows = []
    with tempfile.TemporaryDirectory() as cache:
        for bytecode, prefix in (("off", None), ("on", cache)):
            env = _environment(src, prefix)
            if prefix is not None:
                _process_s(env)  # fills the cache
            for what, times in _measure(env, args.count).items():
                q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
                rows.append((what, bytecode, median, q1, q3))

    print(f"{'measure':<8} {'bytecode':<8} {'median_ms':>9} {'q1_ms':>8} {'q3_ms':>8}")
    for what, bytecode, median, q1, q3 in sorted(rows):
        print(f"{what:<8} {bytecode:<8} {1e3 * median:9.2f} {1e3 * q1:8.2f} {1e3 * q3:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
