"""Span timer and work counters wrapped around splitflow's layer functions.

The program is not modified: each traced function is replaced, under every
name a splitflow module imports it by, with a wrapper that records a span.
A span's self time is its duration minus the durations of the traced spans
it encloses.  Counts are exact and must repeat across runs of one seed.
"""

import importlib
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, function) pairs that get a span
TRACED = (
    ("cocycle", "propagator"),
    ("sde_bridge", "random_ode_problem"),
    ("sde_bridge", "inverse_transform"),
    ("hyperbolic", "find_hyperbolic_solution"),
    ("hyperbolic", "lambda_eta"),
    ("hyperbolic", "neighborhood_thresholds"),
    ("hyperbolic", "certify_hyperbolic"),
    ("greens", "impulse_response_projection"),
    ("greens", "bounded_solution"),
    ("dichotomy", "verify_dichotomy"),
    ("dichotomy", "autonomous_certificate"),
    ("robustness", "robust_dichotomy_discrete"),
    ("robustness", "robust_dichotomy_continuous"),
    ("noise", "ou_series"),
    ("cli", "main"),
)

# per-layer metrics reported from a traced run: name -> (unit, better)
METRICS = {
    "cocycle.propagator.calls": ("count", "lower"),
    "cocycle.propagator.self_s": ("s", "lower"),
    "cocycle.propagator.distinct_frac": ("fraction", "higher"),
    "cocycle.rk4_steps": ("computed-count", "lower"),
    "sde_bridge.field_calls": ("count", "lower"),
    "sde_bridge.random_ode_problem.s": ("s", "lower"),
    "sde_bridge.inverse_transform.s": ("s", "lower"),
    "hyperbolic.find_hyperbolic_solution.self_s": ("s", "lower"),
    "hyperbolic.kernel_iters": ("count", "lower"),
    "hyperbolic.lambda_eta.calls": ("count", "lower"),
    "hyperbolic.lambda_eta.self_s": ("s", "lower"),
    "hyperbolic.neighborhood_thresholds.self_s": ("s", "lower"),
    "hyperbolic.certify_hyperbolic.self_s": ("s", "lower"),
    "hyperbolic.errors": ("count", "lower"),
    "greens.impulse_response_projection.calls": ("count", "lower"),
    "greens.impulse_response_projection.self_s": ("s", "lower"),
    "greens.bounded_solution.calls": ("count", "lower"),
    "greens.bounded_solution.self_s": ("s", "lower"),
    "greens.picard_iters": ("count", "lower"),
    "dichotomy.verify_dichotomy.calls": ("count", "lower"),
    "dichotomy.verify_dichotomy.self_s": ("s", "lower"),
    "dichotomy.verify_dichotomy.rejects": ("count", "lower"),
    "dichotomy.autonomous_certificate.calls": ("count", "lower"),
    "dichotomy.autonomous_certificate.self_s": ("s", "lower"),
    "dichotomy.autonomous_certificate.distinct_frac": ("fraction", "higher"),
    "robustness.robust_dichotomy_discrete.self_s": ("s", "lower"),
    "robustness.robust_dichotomy_continuous.self_s": ("s", "lower"),
    "robustness.errors": ("count", "lower"),
    "noise.ou_series.calls": ("count", "lower"),
    "noise.ou_series.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metrics that are times; every other metric is a count that must repeat
TIMED = tuple(m for m, (unit, _) in METRICS.items() if unit == "s")


def rk4_steps(duration, samples, step):
    """RK4 steps of one propagator call, computed as cocycle._rk4_matrix
    chooses them (the program does not count them itself)."""
    span = abs(duration)
    if span == 0:
        return 0
    if samples is None:
        return max(1, math.ceil(span / step - 1e-12))
    return max(1, math.ceil(span / (samples * step) - 1e-12)) * samples


class Tracer:
    """Spans and counters for one process; ``install`` patches splitflow."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.keys = defaultdict(set)
        self._stack = []
        self._raised = []

    def install(self):
        targets = [(m, f, getattr(importlib.import_module(f"splitflow.{m}"), f))
                   for m, f in TRACED]
        modules = [m for name, m in sys.modules.items()
                   if name == "splitflow" or name.startswith("splitflow.")]
        for mod_name, fn_name, fn in targets:
            wrapper = self._wrap(mod_name, fn_name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, mod_name, fn_name, fn):
        name = f"{mod_name}.{fn_name}"
        after = getattr(self, f"_after_{fn_name}", None)
        signature = inspect.signature(fn)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, in the innermost layer it left
                if not any(exc is e for e in self._raised):
                    self._raised.append(exc)
                    self.counts[f"{mod_name}.errors"] += 1
                raise
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_propagator(self, a, result):
        c = a["c"]
        # the generator is held, not its id, so keys of freed ones never mix
        self.keys["cocycle.propagator"].add(
            (c.generator, float(a["shift"]), float(a["duration"]),
             float(c.step)))
        self.counts["cocycle.rk4_steps"] += rk4_steps(
            a["duration"], a["samples"], c.step)

    def _after_autonomous_certificate(self, a, result):
        m = np.atleast_2d(np.asarray(a["A"], float))
        self.keys["dichotomy.autonomous_certificate"].add(
            (m.shape, m.tobytes(), a["margin"], a["scan_points"],
             a["gap_tol"]))

    def _after_bounded_solution(self, a, result):
        self.counts["greens.picard_iters"] += result.iterations

    def _after_find_hyperbolic_solution(self, a, result):
        self.counts["hyperbolic.kernel_iters"] += result.iterations

    def _after_verify_dichotomy(self, a, result):
        self.counts["dichotomy.verify_dichotomy.rejects"] += not result.passed

    def _after_random_ode_problem(self, a, problem):
        for attr in ("f_eta", "f_eta_dy"):
            setattr(problem, attr, self._counted(getattr(problem, attr)))

    def _counted(self, fn):
        counts = self.counts

        def counted(*args):
            counts["sde_bridge.field_calls"] += 1
            return fn(*args)

        return counted

    def layer_metrics(self):
        """Per-layer values of this process's run, without the run totals."""
        out = {}
        for name in METRICS:
            parts = name.split(".")
            if parts[0] == "trace" or name == "cli.output_bytes":
                continue
            fn_name = ".".join(parts[:2])
            kind = parts[-1]
            if kind == "calls":
                out[name] = self.calls[fn_name]
            elif kind == "self_s":
                out[name] = self.self_time[fn_name]
            elif kind == "s":
                out[name] = self.total[fn_name]
            elif kind == "distinct_frac":
                calls = self.calls[fn_name]
                out[name] = len(self.keys[fn_name]) / calls if calls else 0.0
            else:
                out[name] = self.counts[name]
        return out
