#!/usr/bin/env python3
"""What a one-shot process pays before and around its first request.

Times four things, each in ``--count`` fresh interpreters run one at a
time:

- ``import``: ``import annulus_green, annulus_green.cli``, timed inside the
  interpreter, as bench/run.py's setup_s times it;
- ``critical-point``: a whole ``python -m annulus_green critical-point --n 3
  --a 0.5`` process, timed from outside, start to exit;
- ``eval-green``: a whole ``python -m annulus_green eval-green --n 3 --a 0.5
  0.6 0 0 0 0.7 0`` process, timed the same way;
- ``export-grid``: a whole ``python -m annulus_green export-grid robin --n 3
  --a 0.5 --format csv`` process (1000 radii, the command's default), timed
  the same way.

Each is measured with bytecode caching off (PYTHONDONTWRITEBYTECODE=1, so
the package's sources compile on every start) and on (PYTHONPYCACHEPREFIX
in a temporary directory, filled by one untimed process of each command
first).  The script
prints the median and the quartiles of each, in milliseconds of wall time on
the machine it runs on.

A second table lists, for each bytecode setting, the ``TOP`` modules with the
largest self time in ``python -X importtime`` of the same import, the median
over ``--count`` further interpreters.  Only the modules that the import
loads are counted, not those the interpreter's start (site and its hooks)
loaded before it.

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
PACKAGE_IMPORT = "import annulus_green, annulus_green.cli"
IMPORT_CODE = (
    f"import time; t = time.perf_counter(); {PACKAGE_IMPORT}; print(time.perf_counter() - t)"
)
# modules listed per bytecode setting in the self-time table
TOP = 8
# the one-shot processes timed, by measure
REQUESTS = {
    "critical-point": ["critical-point", "--n", "3", "--a", "0.5"],
    "eval-green": ["eval-green", "--n", "3", "--a", "0.5", "0.6", "0", "0", "0", "0.7", "0"],
    "export-grid": ["export-grid", "robin", "--n", "3", "--a", "0.5", "--format", "csv"],
}


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


def _process_s(env: dict, request: list[str]) -> float:
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "annulus_green", *request]
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def _self_times_us(env: dict) -> dict[str, int]:
    """Self time in microseconds of each module that PACKAGE_IMPORT loads,
    read from ``-X importtime``.  Its rows come children first, each
    indented two spaces per level; a row at level 0 closes a top-level
    import, and only those of the package's top-level imports are kept."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", PACKAGE_IMPORT],
        env=env, capture_output=True, text=True, check=True,
    )
    times: dict[str, int] = {}
    pending: dict[str, int] = {}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _cumulative, name = line.removeprefix("import time:").split("|")
        if not self_us.strip().isdigit():
            continue  # the header row
        module = name.strip()
        pending[module] = int(self_us)
        if name == f" {module}":  # level 0
            if module.startswith("annulus_green"):
                times.update(pending)
            pending = {}
    return times


def _largest_self_times(env: dict, count: int) -> list[tuple[str, float]]:
    """The TOP (module, median self time in seconds) pairs over ``count``
    interpreters, largest first."""
    runs = [_self_times_us(env) for _ in range(count)]
    medians = {
        name: 1e-6 * statistics.median(run.get(name, 0) for run in runs)
        for name in set().union(*runs)
    }
    return sorted(medians.items(), key=lambda item: (-item[1], item[0]))[:TOP]


def _measure(env: dict, count: int) -> dict:
    """Seconds per fresh interpreter, for the import and each whole
    process, taken in turn."""
    times = {"import": [], **{name: [] for name in REQUESTS}}
    for _ in range(count):
        times["import"].append(_import_s(env))
        for name, request in REQUESTS.items():
            times[name].append(_process_s(env, request))
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
    largest = []
    with tempfile.TemporaryDirectory() as cache:
        for bytecode, prefix in (("off", None), ("on", cache)):
            env = _environment(src, prefix)
            if prefix is not None:
                for request in REQUESTS.values():
                    _process_s(env, request)  # fills the cache
            for what, times in _measure(env, args.count).items():
                q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
                rows.append((what, bytecode, median, q1, q3))
            for module, self_s in _largest_self_times(env, args.count):
                largest.append((bytecode, module, self_s))

    print(f"{'measure':<14} {'bytecode':<8} {'median_ms':>9} {'q1_ms':>8} {'q3_ms':>8}")
    for what, bytecode, median, q1, q3 in sorted(rows):
        print(f"{what:<14} {bytecode:<8} {1e3 * median:9.2f} {1e3 * q1:8.2f} {1e3 * q3:8.2f}")
    print()
    print(f"{'bytecode':<8} {'self_ms':>8} module")
    for bytecode, module, self_s in largest:
        print(f"{bytecode:<8} {1e3 * self_s:8.2f} {module}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
