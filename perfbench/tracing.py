"""Per-layer spans around the package's public callables.

The tracer wraps callables from the benchmark's side, with no edit to the
package: every module attribute that holds a traced function is replaced
(`schlicht.cli.fuzz_bounds` and `schlicht.subordination.fuzz_bounds` are
the same function under two names, and both get the wrapper), and
ComplexSeries methods are replaced on the class.

Spans nest by call stack and are folded into per-name totals as they
close, so memory stays flat however many calls a run makes.  A span's
self time is its duration minus the durations of its direct children.
Total time counts only the outermost span of a name, so a function that
recurses through its own module name is not counted twice.
"""

import functools
import sys
import time
from collections import Counter

# layer -> traced callables; "construct" is ComplexSeries.__init__
TRACED = {
    "series": ("construct", "coefficient", "mul", "div", "exp0", "log1", "powc",
               "eval_at", "eval_on_circle", "solve_log_derivative"),
    "params": ("classify_case", "reduce_subclass"),
    "bounds": ("coefficient_bound", "coefficient_bound_cauchy_euler"),
    "extremals": ("build_extremal", "certify_sharpness"),
    "subordination": ("sample_schwarz", "member_from_schwarz", "quadratic_sum_slack",
                      "fuzz_bounds", "schwarz_from_member", "is_member"),
    "jack": ("build_spiral_instance", "quotient_source_ratio", "spiral_membership",
             "gb_membership", "winding_number", "growth_check", "gb_spiral_threshold"),
    "output": ("fixed_json_dumps",),
    "cli": ("main",),
}

SERIES_METHODS = {"construct": "__init__", "coefficient": "coefficient", "mul": "mul",
                  "div": "div", "exp0": "exp0", "log1": "log1", "powc": "powc",
                  "eval_at": "eval_at", "eval_on_circle": "eval_on_circle"}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)

# inner span -> outer span whose nested calls of it are counted: the fuzzer
# never reads the sup grid that sample_schwarz evaluates
WATCHED = {"series.eval_on_circle": "subordination.sample_schwarz"}


class Tracer:
    """Nested spans folded into per-name [calls, total, self] on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.active = Counter()  # open spans per name
        self.nested = Counter()  # (outer, inner) -> inner spans opened inside outer
        self._stack = []  # [name, start, child_time]

    def enter(self, name: str) -> None:
        outer = WATCHED.get(name)
        if outer is not None and self.active[outer]:
            self.nested[outer, name] += 1
        self.active[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.active[name] -= 1
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        if not self.active[name]:
            stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


class Patched:
    """Context manager that installs a tracer's wrappers and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing = []  # traced names the package no longer defines
        self._undo = []

    def __enter__(self):
        from schlicht.series import ComplexSeries

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "schlicht" or key.startswith("schlicht.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"schlicht.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if layer == "series" and name in SERIES_METHODS:
                    owner, attr = ComplexSeries, SERIES_METHODS[name]
                else:
                    owner, attr = module, name
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(span)
                    continue
                wrapper = self.tracer.wrap(original, span)
                if owner is ComplexSeries:
                    self._set(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
        return self.tracer

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False
