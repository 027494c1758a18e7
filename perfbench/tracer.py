"""Outside-in call tracing of apmopt's public functions.

`install` replaces every module attribute that is bound to a traced
function with a timing wrapper, in every loaded ``apmopt`` module and in
the package namespace, so calls made between modules and from the CLI are
seen too.  No library source changes.  Spans are kept in memory: per
function a call count, inclusive time and self time (span minus child
spans), plus a few observations taken from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (home module, function) pairs named by the benchmark's per-layer metrics.
TRACED = (
    ("config", "parse_config"),
    ("scenarios", "enumerate_scenarios"),
    ("scenarios", "sample_scenarios"),
    ("scenarios", "expectation"),
    ("utility", "eval_u"),
    ("utility", "eval_u_prime"),
    ("optimize", "detect_unbounded"),
    ("optimize", "optimize_truncated"),
    ("optimize", "truncation_ladder"),
    ("optimize", "saa_objective"),
    ("optimize", "saa_gradient"),
    ("measures", "build_tilted_measure"),
    ("measures", "verify_pricing"),
    ("measures", "measure_moments"),
    ("diagnostics", "exp_ui_bound"),
    ("diagnostics", "holder_chain_check"),
    ("diagnostics", "emit_report"),
)
# DistributionSpec.ppf is a method; it is wrapped on the class.
PPF = "distributions.ppf"
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED) + (PPF,)


class Tracer:
    """Span aggregation for one process; all times in seconds."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYER_NAMES}
        self.self_s = {name: 0.0 for name in LAYER_NAMES}
        self.incl_s = {name: 0.0 for name in LAYER_NAMES}
        self.top_s = 0.0           # time covered by outermost spans
        self._child = []           # child-time accumulator per open span
        self.rows = 0              # largest scenario set built
        self.expectation_rows = 0  # rows summed by expectation, all calls
        self.levels = []           # (iterations, grad_norm, converged)
        self.lp_rows = 0
        self.lp_calls = []         # (scenario set, model, witness or None)
        self.max_pricing_residual = 0.0

    def wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._child.pop()
                self.calls[name] += 1
                self.incl_s[name] += dur
                self.self_s[name] += dur - child
                if self._child:
                    self._child[-1] += dur
                else:
                    self.top_s += dur
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, out)
            return out

        return traced

    # Observations record references only; anything costly is computed
    # after the operation, outside every span.
    def _observe_enumerate_scenarios(self, args, out):
        self.rows = max(self.rows, out.n)

    _observe_sample_scenarios = _observe_enumerate_scenarios

    def _observe_expectation(self, args, out):
        self.expectation_rows += args["s"].n

    def _observe_optimize_truncated(self, args, out):
        self.levels.append((out.iterations, out.grad_norm, bool(out.converged)))

    def _observe_detect_unbounded(self, args, out):
        s = args["s"]
        self.lp_rows = max(self.lp_rows, min(s.n, args["direction_budget"]))
        self.lp_calls.append((s, args["model"], out[1]))

    def _observe_verify_pricing(self, args, out):
        self.max_pricing_residual = max(self.max_pricing_residual,
                                        float(out["max_residual"]))

    def summary(self) -> dict:
        """JSON-ready totals; checks every LP witness against all rows."""
        from workloads import witness_valid
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "top_s": self.top_s,
            "rows": self.rows,
            "expectation_rows": self.expectation_rows,
            "levels": self.levels,
            "lp_rows": self.lp_rows,
            "lp_witness_valid": all(witness_valid(m, s, w)
                                    for s, m, w in self.lp_calls),
            "max_pricing_residual": self.max_pricing_residual,
        }


def install(tracer: Tracer) -> None:
    """Bind wrappers over every loaded apmopt namespace that holds a
    traced function.  Call after the package (and apmopt.cli, if used)
    is imported."""
    homes = {mod: importlib.import_module(f"apmopt.{mod}") for mod, _ in TRACED}
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "apmopt" or name.startswith("apmopt."))]
    for mod_name, fn_name in TRACED:
        home = homes[mod_name]
        original = getattr(home, fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    spec_cls = sys.modules["apmopt.distributions"].DistributionSpec
    spec_cls.ppf = tracer.wrap(PPF, spec_cls.ppf)
