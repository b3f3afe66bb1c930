"""Layer spans and counters, patched in from outside the program.

`Tracer.installed()` replaces each traced layer function with a wrapper
for the duration of a `with` block and restores the originals after.
Each name is patched where its caller looks it up: `hubbard_bethe`
imports `solve_damped` and `continue_path` by name, `continue_path`
calls `_newton.solve_damped` through its module globals, `ty_system`
imports `generate_from_seed` by name, and `qsystem` imports
`exact_div` by name.  Operators are patched on the classes.

A span's self time is its duration minus the durations of the spans it
encloses.  The root span of each item is `trace.item`; its self time is
the item time that no layer span covers, so the self times of all spans
add up to the traced item time exactly.
"""

from __future__ import annotations

import collections
import contextlib
import time
from typing import Callable, Dict, List

from qsc22 import _newton, ed_oracle, exact_poly, hubbard_bethe, qsystem, ty_system

ROOT = "trace.item"

# (span name, owner, attribute).  Several owners of one span are the
# places where different callers look the same function up.
SPANS = (
    ("exact_poly.shift", exact_poly.TwistedPoly, "shift"),
    ("exact_poly.mul", exact_poly.TwistedPoly, "__mul__"),
    ("exact_poly.mul", exact_poly.TwistedPoly, "__rmul__"),
    ("exact_poly.add", exact_poly.TwistedPoly, "__add__"),
    ("exact_poly.add", exact_poly.TwistedPoly, "__radd__"),
    ("exact_poly.add", exact_poly.TwistedPoly, "__sub__"),
    ("exact_poly.add", exact_poly.TwistedPoly, "__rsub__"),
    ("exact_poly.add", exact_poly.TwistedPoly, "__neg__"),
    ("exact_poly.exact_div", exact_poly, "exact_div"),
    ("exact_poly.exact_div", qsystem, "exact_div"),
    ("qsystem.generate_from_seed", qsystem, "generate_from_seed"),
    ("qsystem.generate_from_seed", ty_system, "generate_from_seed"),
    ("qsystem.seed_components", qsystem, "seed_components"),
    ("qsystem.check_qq", qsystem, "check_qq"),
    ("qsystem.hodge", qsystem, "hodge"),
    ("ty_system.check_hirota", ty_system, "check_hirota"),
    ("ty_system.t_function", ty_system, "t_function"),
    ("ty_system.wronskian_T", ty_system, "wronskian_T"),
    ("ty_system.character_solution", ty_system, "character_solution"),
    ("ed_oracle.build_hamiltonian", ed_oracle, "build_hamiltonian"),
    ("hubbard_bethe.solve_liebwu", hubbard_bethe, "solve_liebwu"),
    ("newton.continue_path", hubbard_bethe, "continue_path"),
)

# Spans with their own wrappers below.
SPECIAL_SPANS = ("ed_oracle.spectrum", "newton.solve_damped",
                 "hubbard_bethe.residual")

# Spans whose failures (an exception leaving them) are counted.
FAILING = ("hubbard_bethe.solve_liebwu", "newton.continue_path",
           "newton.solve_damped")

SPAN_NAMES = tuple(dict.fromkeys(
    [ROOT] + [name for name, _, _ in SPANS] + list(SPECIAL_SPANS)))


class Tracer:
    """Accumulates span self times and counters across traced items."""

    def __init__(self) -> None:
        self.calls: collections.Counter = collections.Counter()
        self.failed: collections.Counter = collections.Counter()
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.counters: collections.Counter = collections.Counter()
        self.dim_max = 0
        # Child time accumulated by each open span, innermost last.
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        calls, failed, self_s, stack = self.calls, self.failed, self.self_s, self._stack
        clock = time.perf_counter
        counts_failures = name in FAILING

        def traced(*args, **kwargs):
            calls[name] += 1
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if counts_failures:
                    failed[name] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                self_s[name] += took - child[0]
                if stack:
                    stack[-1][0] += took

        traced.__wrapped__ = fn
        return traced

    def item(self, fn: Callable, arg):
        """Run fn(arg) as one traced item under the root span."""
        return self.wrap(ROOT, fn)(arg)

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for name, owner, attr in SPANS:
                patch(owner, attr, self.wrap(name, getattr(owner, attr)))
            patch(exact_poly.GaussRat, "__init__",
                  self._counting("exact_poly.gaussrat.created",
                                 exact_poly.GaussRat.__init__))
            patch(ed_oracle, "spectrum", self._spectrum(ed_oracle.spectrum))
            solve = self._solve_damped(_newton.solve_damped)
            patch(_newton, "solve_damped", solve)
            patch(hubbard_bethe, "solve_damped", solve)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _counting(self, key: str, fn: Callable) -> Callable:
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spectrum(self, fn: Callable) -> Callable:
        traced = self.wrap("ed_oracle.spectrum", fn)

        def spectrum(ham, *args, **kwargs):
            n = len(ham)
            self.dim_max = max(self.dim_max, n)
            self.counters["ed_oracle.spectrum.dim3_sum"] += n ** 3
            return traced(ham, *args, **kwargs)

        return spectrum

    def _solve_damped(self, fn: Callable) -> Callable:
        """Newton's span; the residual callback it evaluates gets a span
        of its own, so Newton's self time excludes residual time."""
        traced = self.wrap("newton.solve_damped", fn)

        def solve_damped(fun, *args, **kwargs):
            return traced(self.wrap("hubbard_bethe.residual", fun), *args, **kwargs)

        return solve_damped
