#!/usr/bin/env python3
"""Benchmark of certified evaluation in annulus-green, one workload per run.

    python3 bench/run.py --workload interior-evals --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread and one closed-loop caller: the next
request goes only after the previous one returned.

``--trace 0`` runs whole blocks of the seeded workload until ``--seconds`` of
wall time have passed and reports the end-to-end metrics.  ``--trace 1`` runs
a fixed number of blocks of a second seeded stream twice, plain and then
with wrapper spans around every layer, and reports the per-layer metrics, so
that its counts repeat exactly for one seed.  Both modes check a seeded
subset of the outputs against an mpmath reference after the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the package source is missing, 3 that the correctness check could not run.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is imported here or in a child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, deque  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 5
MIN_BLOCKS = 2  # a timed run never stops before this many blocks

# Machine-speed calibration: a fixed pure-Python loop that shares no code
# with the package, timed every CAL_EVERY_NS of wall time.  Timings are
# reported at nominal speed, raw * CAL_NOMINAL_NS / (median of the last
# CAL_WINDOW loop times), because this shared host drifts by up to a quarter
# in speed over minutes; the raw figures are printed next to them.
CAL_LOOPS = 4000
CAL_NOMINAL_NS = 300_000
CAL_EVERY_NS = 50_000_000
CAL_WINDOW = 9

E2E_SPECS = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("success_rate", "ratio", "higher"),
    ("cert_hold_rate", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import annulus_green, annulus_green.cli; print(time.perf_counter() - t)"
)


class Speed:
    """Rolling calibration of the machine's current speed."""

    def __init__(self):
        self.samples: deque = deque(maxlen=CAL_WINDOW)
        self.last_ns = 0
        for _ in range(CAL_WINDOW):
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(CAL_LOOPS):
            acc += i * i
        self.last_ns = time.perf_counter_ns()
        self.samples.append(self.last_ns - t0)

    def factor(self) -> float:
        """Nominal over current loop time: multiplies a raw duration."""
        if time.perf_counter_ns() - self.last_ns >= CAL_EVERY_NS:
            self.sample()
        return CAL_NOMINAL_NS / statistics.median(self.samples)


def measure_setup() -> list[float]:
    """Import time of the package and its CLI, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


@dataclass
class Phase:
    """Totals of one run of blocks, kept as it goes so that memory does not
    grow with the number of requests; only block 0 is kept whole, for the
    reference check."""

    block0: list | None = None  # the requests of block 0
    results0: list | None = None  # and their outcomes
    blocks: int = 0
    requests: int = 0
    attempted: int = 0
    busy_ns: float = 0.0  # at nominal speed
    raw_busy_ns: int = 0
    wall_s: float = 0.0
    failures: Counter = field(default_factory=Counter)
    exit_codes: Counter = field(default_factory=Counter)
    latencies_ms: array = field(default_factory=lambda: array("d"))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        return self.ok / (self.busy_ns / 1e9)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ok / (self.raw_busy_ns / 1e9)

    def add(self, res, factor: float) -> None:
        self.requests += 1
        self.attempted += len(res.ops)
        self.busy_ns += res.latency_ns * factor
        self.raw_busy_ns += res.latency_ns
        self.latencies_ms.append(res.latency_ns * factor / 1e6)
        self.failures.update(op.failure for op in res.ops if op.failure is not None)
        if res.exit_code is not None:
            self.exit_codes[res.exit_code] += 1


def run_phase(workload, seed: int, stream: str, *, blocks: int | None = None,
              seconds: float | None = None, tracer=None) -> tuple[Phase, Phase | None]:
    """Run whole blocks: ``blocks`` of them, or until ``seconds`` have passed
    and at least MIN_BLOCKS are done.

    With a tracer, each request runs twice in a row, traced and then plain,
    so that both sides of the overhead ratio see the same inputs and the
    same machine; returns (plain, traced) totals.
    """
    run = workload.runner()
    speed = Speed()
    plain = Phase()
    traced = Phase() if tracer is not None else None
    start = time.perf_counter()
    while True:
        block = workload.block(seed, stream, plain.blocks)
        results = []
        for req in block:
            if tracer is not None:
                tracer.op = traced.requests
                tracer.enable()
                try:
                    traced.add(run(req), speed.factor())
                finally:
                    tracer.disable()
            res = run(req)
            plain.add(res, speed.factor())
            if plain.blocks == 0:
                results.append(res)
        if plain.blocks == 0:
            plain.block0, plain.results0 = block, results
        plain.blocks += 1
        plain.wall_s = time.perf_counter() - start
        if (blocks is not None and plain.blocks >= blocks) or (
            seconds is not None and plain.wall_s >= seconds and plain.blocks >= MIN_BLOCKS
        ):
            return plain, traced


def tail_latency(lat: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond) of the nearest-rank ``pct`` percentile of
    sorted latencies."""
    rank = math.ceil(pct / 100.0 * len(lat))
    return lat[rank - 1], len(lat) - rank


def check_outputs(workload, seed: int, phase: Phase):
    """Reference-check the seeded subset of the first block's ops."""
    try:
        import reference  # mpmath, imported only now: outside setup_s and peak_rss_mb
    except ImportError as exc:
        sys.stderr.write(f"correctness check cannot run: {exc}\n")
        sys.exit(3)

    out = workloads.Checked()
    for i, j in sorted(workload.check_plan(seed, phase.block0)):
        ops = phase.results0[i].ops
        if j < len(ops) and ops[j].failure is None:
            workload.check(reference, ops[j], out)
    if out.checked == 0:
        sys.stderr.write("correctness check cannot run: no checkable op succeeded\n")
        sys.exit(3)
    return out


def fmt_ratio(num: int, den: int) -> str:
    return f"{num / den:.6f} ({num} / {den})"


def report_failures(phase: Phase) -> None:
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(phase.failures.items())) or "none"
    print(f"failures by kind: {kinds} (of {phase.attempted} ops)")
    if phase.exit_codes:
        codes = ", ".join(f"{k}={v}" for k, v in sorted(phase.exit_codes.items()))
        print(f"requests by CLI exit code: {codes} (of {phase.requests})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "annulus_green" / "__init__.py").is_file():
        sys.stderr.write(f"package source not found under {SRC}; run from a source checkout\n")
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    speed = Speed()
    raw_setup = measure_setup()
    setup_factor = speed.factor()
    setup = [t * setup_factor for t in raw_setup]
    sys.path.insert(0, str(SRC))
    import annulus_green as ag
    import annulus_green.cli  # noqa: F401

    if not Path(ag.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"imported annulus_green from {ag.__file__}, not from {SRC}\n")
        return 2
    # failures inside the package's contract: typed errors, flagged results, CLI exit codes
    typed = {"NonFinite", "NotConverged", "exit1", "exit2", "exit3"}
    typed.update(name for name, obj in vars(ag).items()
                 if isinstance(obj, type) and issubclass(obj, ag.AnnulusError))

    import numpy
    import scipy

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"machine: nproc={os.cpu_count()} {platform.machine()}; python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")

    # move everything imported so far out of the collector's reach, so that
    # its full passes do not rescan numpy and scipy inside timed requests
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](ag, workdir)
        if args.trace:
            return traced_run(args, ag, workload, typed)
        return plain_run(args, workload, setup, setup_factor, typed)


def plain_run(args, workload, setup: list[float], setup_factor: float, typed: set[str]) -> int:
    phase, _ = run_phase(workload, args.seed, "main", seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = check_outputs(workload, args.seed, phase)

    lat = sorted(phase.latencies_ms)
    pct = workload.tail_percentile
    tail, beyond = tail_latency(lat, pct)
    metrics = {
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail,
        "success_rate": phase.ok / phase.attempted,
        "cert_hold_rate": 1.0 - checked.violations / checked.checked,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    bases = {
        "ops_per_s": f"{phase.ok} ok ops / {phase.busy_ns / 1e9:.3f} s busy "
                     f"({phase.blocks} blocks, {phase.wall_s:.3f} s wall; raw {phase.raw_ops_per_s:.3f}/s)",
        "latency_p50_ms": f"median of {phase.requests} requests",
        "latency_tail_ms": f"p{pct:g} of {phase.requests} requests, {beyond} beyond",
        "success_rate": f"{phase.ok} ok / {phase.attempted} attempted ops",
        "cert_hold_rate": f"{checked.checked - checked.violations} within bound / {checked.checked} checked",
        "setup_s": f"median of {len(setup)} fresh imports: " + " ".join(f"{s:.4f}" for s in setup)
                   + f" at nominal speed (factor {setup_factor:.3f})",
        "peak_rss_mb": "ru_maxrss after the timed region",
    }
    units = {name: unit for name, unit, _ in E2E_SPECS}
    for name, value in metrics.items():
        print(f"{name:18s} {value:14.6f} {units[name]:6s} {bases[name]}")
    print(f"error_rate {fmt_ratio(phase.failed, phase.attempted)}")
    print(f"cert_violation_rate {fmt_ratio(checked.violations, checked.checked)}")
    report_failures(phase)
    return finish(checked, typed, phase, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def traced_run(args, ag, workload, typed: set[str]) -> int:
    blocks = workload.trace_blocks
    probes = tracing.probe_metrics(ag)
    tracer = tracing.Tracer(ag)
    plain, traced = run_phase(workload, args.seed, "trace", blocks=blocks, tracer=tracer)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    checked = check_outputs(workload, args.seed, plain)

    metrics = tracer.layer_metrics(traced.attempted)
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s / plain.ops_per_s
    metrics.update(probes)

    print(f"traced {blocks} blocks, {traced.requests} requests, {traced.attempted} ops, "
          f"{len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}")
    for label, ph in (("plain", plain), ("traced", traced)):
        print(f"ops_per_s {label} {ph.ops_per_s:.3f} ({ph.ok} ok ops / {ph.busy_ns / 1e9:.3f} s busy)")
    report_failures(traced)
    result = {}
    for name, unit, _ in tracing.layer_metric_specs():
        value = metrics[name]
        print(f"{name:52s} {value:16.6f} {unit}")
        result[name] = {"value": value, "unit": unit}
    return finish(checked, typed, traced, result)


def finish(checked, typed: set[str], phase: Phase, metrics: dict) -> int:
    untyped = sorted(k for k in phase.failures if k not in typed)
    for line in checked.gross_errors:
        print(f"WRONG VALUE {line}")
    for kind in untyped:
        print(f"UNTYPED FAILURE {kind}: the package raised outside its AnnulusError contract")
    correct = not checked.gross_errors and not untyped
    print(f"reference check: {checked.checked} ops checked, {len(checked.gross_errors)} wrong, "
          f"{checked.violations} outside their reported bound; correct={correct}")
    print(json.dumps({"correct": correct, "attempted": phase.attempted, "failed": phase.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
