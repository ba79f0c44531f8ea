#!/usr/bin/env python3
"""Deterministic cost counts: Python opcodes and C calls per operation.

Runs fixed, seeded slices of the three benchmark workloads in-process, with
the request runners and inputs of bench/workloads.py: the first
``--requests`` requests of block 0 of each workload's stream, seed SEED.  Each
slice runs once to load the lazy modules and fill the mode tables, then once
counted: ``sys.settrace`` with ``f_trace_opcodes`` counts every Python opcode
executed, and ``sys.setprofile`` every call into C (a numpy call counts as
one, whatever it computes).  The counts are divided by the slice's
operations, as the benchmark counts them: one per call on interior-evals,
one per grid row on radial-profile and one per solve on critical-point.

Unlike wall time, the counts repeat exactly from one run to the next on any
machine, so a change to the scalar path's algorithm shows up even where the
host's timings are too noisy to resolve it.  An opcode is not a unit of time:
``math.pow`` and a ``LOAD_FAST`` count alike, so the counts rank algorithmic
changes on the scalar path, and wall time stays the measure of the grid path.

Each source tree is counted in its own fresh interpreter, with
PYTHONHASHSEED=0 and the garbage collector off while counting.  With two or
more ``--src`` the table gives each tree's counts and the change of the last
against the first.  ``--check`` counts every tree twice and exits 1 where the
two runs differ.

Examples:
    python scripts/cost_count.py
    python scripts/cost_count.py --src ../parent/src --src src
    python scripts/cost_count.py --requests 3 --check
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
# requests per slice: every interior-evals call of a block (88), and a few
# CLI requests of the others, whose requests cost tens to hundreds of calls
REQUESTS = {"interior-evals": 88, "radial-profile": 6, "critical-point": 20}
SEED = 3


def _count(workload, requests: list) -> dict:
    """Opcodes and C calls of one pass over ``requests``, and their ops."""
    run = workload.runner()
    opcodes = c_calls = ops = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    def profile(frame, event, arg):
        nonlocal c_calls
        if event == "c_call":
            c_calls += 1

    gc.disable()
    try:
        for request in requests:
            sys.setprofile(profile)
            sys.settrace(trace)
            try:
                ops += len(run(request).ops)
            finally:
                sys.settrace(None)
                sys.setprofile(None)
    finally:
        gc.enable()
    return {"ops": ops, "opcodes": opcodes, "c_calls": c_calls}


def _child(requests: int | None) -> dict:
    """The counts of each workload in this interpreter, whose path holds the
    source tree to count."""
    sys.path.insert(0, str(BENCH))
    import annulus_green as ag
    import annulus_green.cli  # noqa: F401  (the CLI workloads call it)
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, default in REQUESTS.items():
            workload = workloads.WORKLOADS[name](ag, workdir)
            block = workload.block(SEED, "cost", 0)[: requests or default]
            _count(workload, block)  # warm-up: lazy imports and mode tables
            out[name] = _count(workload, block)
    return out


def _counts(src: Path, requests: int | None) -> dict:
    """The counts of ``src`` from a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(src))
    argv = [sys.executable, __file__, "--child"]
    if requests:
        argv += ["--requests", str(requests)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=1800)
    return json.loads(done.stdout)


def _table(srcs: list[Path], results: list[dict]) -> None:
    print(f"{'workload':<16} {'measure':<14} " + " ".join(f"{'tree ' + str(i):>12}"
                                                       for i in range(len(srcs)))
          + ("  change" if len(srcs) > 1 else ""))
    for name in REQUESTS:
        for measure in ("opcodes", "c_calls"):
            per_op = [res[name][measure] / res[name]["ops"] for res in results]
            line = f"{name:<16} {measure + '/op':<14} " + " ".join(f"{v:12.1f}" for v in per_op)
            if len(srcs) > 1:
                line += f"  {100.0 * (per_op[-1] / per_op[0] - 1.0):+.2f} %"
            print(line)
        print(f"{name:<16} {'ops':<14} " + " ".join(f"{res[name]['ops']:12d}" for res in results))
    for i, src in enumerate(srcs):
        print(f"tree {i}: {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="source tree holding annulus_green (repeat to diff; default: src)")
    ap.add_argument("--requests", type=int, default=None,
                    help="requests per slice (default: per workload, see REQUESTS)")
    ap.add_argument("--check", action="store_true",
                    help="count each tree twice and exit 1 where the runs differ")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.requests)))
        return 0

    srcs = [src.resolve() for src in args.src or [SRC]]
    results = [_counts(src, args.requests) for src in srcs]
    _table(srcs, results)
    if args.check:
        again = [_counts(src, args.requests) for src in srcs]
        differ = [(src, name) for src, first, second in zip(srcs, results, again)
                  for name in REQUESTS if first[name] != second[name]]
        for src, name in differ:
            print(f"DIFFERS {name} in {src}")
        print(f"{len(srcs) * len(REQUESTS) - len(differ)} of {len(srcs) * len(REQUESTS)} "
              "slices repeat their counts exactly")
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
