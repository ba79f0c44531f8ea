"""Wrapper-based tracing of annulus_green's layers, installed from outside.

``Tracer(ag)`` finds each traced entry point in every package module that
binds it (``cli`` binds ``find_critical_point``, ``critical`` binds the
gradient evaluators, ``green``/``kernels``/``specfun`` bind ``sum_series``,
...), so calls made inside the package are seen too.  ``enable`` puts the
wrappers in place and ``disable`` puts the originals back; both are a few
dozen attribute stores, cheap enough to switch around every request.  Spans are kept in memory as
``[name, start_ns, end_ns, parent, op, terms, outcome]`` and written out once
at the end.  A span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter

GREEN_EVALUATORS = (
    "green_eval",
    "green_piecewise_eval",
    "robin_eval",
    "robin_radial_gradient",
    "robin_radial_gradient_derivative",
    "robin2d_eval",
    "robin2d_first",
    "robin2d_second",
    "critical_equation_eval",
)
KERNEL_SERIES = ("newtonian_series_outer", "newtonian_series_inner", "newtonian_series_exterior")
SOLVERS = ("find_critical_point", "concentration_root")
# the solver errors reported by name; anything else is counted as "other"
SOLVER_ERRORS = ("BracketingError", "TailEnvelopeError", "DomainValidationError")
EXIT_CODES = (0, 1, 2, 3)

SPANNED = (
    [("green", f) for f in GREEN_EVALUATORS]
    + [("summation", "sum_series")]
    + [("kernels", f) for f in KERNEL_SERIES]
    + [("critical", f) for f in SOLVERS]
    + [("cli", "main")]
)
COUNTED = (("core", "sphere_surface_area"), ("specfun", "iter_gegenbauer"))

# ROADMAP baseline rows: robin_eval, n = 3, a = 0.5, abs_tol = 1e-12
PROBE_RADII = (("r0_7", 0.7), ("r0_95", 0.95), ("r0_999", 0.999))
PROBE_REPEATS = 5


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for f in GREEN_EVALUATORS:
        g = f"green.{f}"
        specs += [
            (f"{g}.calls", "count", "lower"),
            (f"{g}.terms_per_call", "terms", "lower"),
            (f"{g}.us_per_call", "us", "lower"),
            (f"{g}.self_us_per_call", "us", "lower"),
            (f"{g}.nonconverged", "count", "lower"),
        ]
    specs += [
        ("summation.sum_series.calls", "count", "lower"),
        ("summation.sum_series.terms", "count", "lower"),
        ("summation.sum_series.ns_per_term", "ns", "lower"),
        ("summation.sum_series.stop_max_terms", "count", "lower"),
        ("core.sphere_surface_area.calls_per_op", "calls/op", "lower"),
        ("specfun.iter_gegenbauer.calls", "count", "lower"),
    ]
    for f in KERNEL_SERIES:
        specs += [
            (f"kernels.{f}.calls", "count", "lower"),
            (f"kernels.{f}.terms_per_call", "terms", "lower"),
            (f"kernels.{f}.us_per_call", "us", "lower"),
        ]
    specs += [
        ("critical.find_critical_point.ms_per_call", "ms", "lower"),
        ("critical.find_critical_point.evals_per_call", "evals/call", "lower"),
        ("critical.find_critical_point.terms_per_call", "terms", "lower"),
        ("critical.find_critical_point.max_eval_terms", "terms", "lower"),
        ("critical.concentration_root.ms_per_call", "ms", "lower"),
        ("critical.concentration_root.terms_per_call", "terms", "lower"),
    ]
    specs += [(f"critical.errors.{e}", "count", "lower") for e in SOLVER_ERRORS + ("other",)]
    specs += [
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_ms_per_call", "ms", "lower"),
    ]
    specs += [(f"cli.exit_code.{k}", "count", "higher" if k == 0 else "lower") for k in EXIT_CODES]
    specs += [("trace.overhead_frac", "ratio", "lower")]
    for label, _ in PROBE_RADII:
        specs += [
            (f"probe.robin_eval.{label}.terms", "terms", "lower"),
            (f"probe.robin_eval.{label}.us", "us", "lower"),
        ]
    return specs


def is_count(name: str) -> bool:
    """Count-type metrics, which must repeat exactly for one seed."""
    last = name.rsplit(".", 1)[-1]
    return (
        last in ("calls", "terms", "nonconverged", "stop_max_terms", "terms_per_call",
                 "evals_per_call", "max_eval_terms", "calls_per_op")
        or name.startswith(("critical.errors.", "cli.exit_code."))
    )


def _summary(result) -> tuple[int, str]:
    """(terms, outcome) recorded for a returned value."""
    if isinstance(result, int):  # cli.main's exit code
        return 0, f"exit{result}"
    terms = getattr(result, "terms_used", None)
    if terms is None:  # a solver report or root
        return 0, "ok"
    return terms, "ok" if result.converged else "nonconverged"


class Tracer:
    def __init__(self, ag):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1  # id of the request being run; set by the caller
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every binding of a target
        self._bindings: list[tuple] = []
        modules = [ag] + [getattr(ag, m) for m in
                          ("core", "summation", "specfun", "kernels", "green", "critical", "cli", "verify", "oracle")]
        for targets, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for mod, attr in targets:
                original = getattr(getattr(ag, mod), attr)
                wrapper = make(f"{mod}.{attr}", original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, key, original, wrapper))

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, 0, ""]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                stack.pop()
                rec[6] = type(exc).__name__
                raise
            rec[2] = clock()
            stack.pop()
            rec[5], rec[6] = _summary(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def enable(self) -> None:
        for module, key, _original, wrapper in self._bindings:
            setattr(module, key, wrapper)

    def disable(self) -> None:
        for module, key, original, _wrapper in self._bindings:
            setattr(module, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, terms, outcome in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "terms": terms,
                                     "outcome": outcome}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac and the probes."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(s[0], []).append(i)

        def per_call(idx, values, scale=1.0):
            return sum(values[i] for i in idx) / len(idx) / scale if idx else 0.0

        terms = [s[5] for s in spans]
        self_ns = [d - c for d, c in zip(dur, child)]
        m: dict[str, float] = {}
        for f in GREEN_EVALUATORS:
            idx = by_name.get(f"green.{f}", [])
            m[f"green.{f}.calls"] = len(idx)
            m[f"green.{f}.terms_per_call"] = per_call(idx, terms)
            m[f"green.{f}.us_per_call"] = per_call(idx, dur, 1e3)
            m[f"green.{f}.self_us_per_call"] = per_call(idx, self_ns, 1e3)
            m[f"green.{f}.nonconverged"] = sum(spans[i][6] == "nonconverged" for i in idx)

        idx = by_name.get("summation.sum_series", [])
        total_terms = sum(terms[i] for i in idx)
        m["summation.sum_series.calls"] = len(idx)
        m["summation.sum_series.terms"] = total_terms
        m["summation.sum_series.ns_per_term"] = sum(dur[i] for i in idx) / total_terms if total_terms else 0.0
        m["summation.sum_series.stop_max_terms"] = sum(spans[i][6] == "nonconverged" for i in idx)
        m["core.sphere_surface_area.calls_per_op"] = self.counts["core.sphere_surface_area"] / ops
        m["specfun.iter_gegenbauer.calls"] = self.counts["specfun.iter_gegenbauer"]

        for f in KERNEL_SERIES:
            idx = by_name.get(f"kernels.{f}", [])
            m[f"kernels.{f}.calls"] = len(idx)
            m[f"kernels.{f}.terms_per_call"] = per_call(idx, terms)
            m[f"kernels.{f}.us_per_call"] = per_call(idx, dur, 1e3)

        # series terms summed under each solver call, and its direct evaluator calls
        solver_terms = Counter()
        for i in by_name.get("summation.sum_series", []):
            p = spans[i][3]
            while p >= 0 and not spans[p][0].startswith("critical."):
                p = spans[p][3]
            if p >= 0:
                solver_terms[p] += terms[i]
        evals = {f"green.{f}" for f in GREEN_EVALUATORS}
        fcp = by_name.get("critical.find_critical_point", [])
        kids = [i for i, s in enumerate(spans) if s[0] in evals and s[3] >= 0 and spans[s[3]][0] == "critical.find_critical_point"]
        m["critical.find_critical_point.ms_per_call"] = per_call(fcp, dur, 1e6)
        m["critical.find_critical_point.evals_per_call"] = len(kids) / len(fcp) if fcp else 0.0
        m["critical.find_critical_point.terms_per_call"] = per_call(fcp, solver_terms)
        m["critical.find_critical_point.max_eval_terms"] = max((terms[i] for i in kids), default=0)
        root = by_name.get("critical.concentration_root", [])
        m["critical.concentration_root.ms_per_call"] = per_call(root, dur, 1e6)
        m["critical.concentration_root.terms_per_call"] = per_call(root, solver_terms)

        errors = Counter(spans[i][6] for i in fcp + root if spans[i][6] != "ok")
        for e in SOLVER_ERRORS:
            m[f"critical.errors.{e}"] = errors.pop(e, 0)
        m["critical.errors.other"] = sum(errors.values())

        idx = by_name.get("cli.main", [])
        m["cli.main.calls"] = len(idx)
        m["cli.main.self_ms_per_call"] = per_call(idx, self_ns, 1e6)
        codes = Counter(spans[i][6] for i in idx)
        for k in EXIT_CODES:
            m[f"cli.exit_code.{k}"] = codes[f"exit{k}"]
        return m


def probe_metrics(ag) -> dict[str, float]:
    """The ROADMAP baseline rows: terms and median time of robin_eval."""
    geom = ag.AnnulusGeometry(3, 0.5)
    policy = ag.TruncationPolicy(abs_tol=1e-12)
    m = {}
    for label, r in PROBE_RADII:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter_ns()
            res = ag.robin_eval(geom, r, policy)
            times.append(time.perf_counter_ns() - t0)
        times.sort()
        m[f"probe.robin_eval.{label}.terms"] = res.terms_used
        m[f"probe.robin_eval.{label}.us"] = times[len(times) // 2] / 1e3
    return m
