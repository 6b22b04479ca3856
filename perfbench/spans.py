"""Outside-in span recorder for the layer modules of ``hyperres``.

While installed, it replaces every public function of each layer module by a
recording wrapper at every place the function is bound in the loaded
``hyperres`` namespaces: its own module, the package, and each module that
imported it by name. So a solver's internal call to ``distance_matrix`` or
``twin_classes`` records a child span of the solver's span. No source is
edited and private helpers are not wrapped. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

PACKAGE = "hyperres"
LAYERS = ("cli", "hgformat", "core", "metric", "resolving", "partition",
          "transforms", "families", "verify")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: int


def public_functions() -> dict[object, str]:
    """Each public function defined in a layer module -> ``module.function``.
    The package must already be imported."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found[value] = f"{layer}.{attr}"
    return found


class SpanRecorder:
    """Install with ``with recorder:``; set ``op`` before each op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return wrapper

    def __enter__(self):
        targets = public_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per function: calls; busy time, the time at least one of its spans is
    open (a span nested in one of the same name adds nothing); and self
    time, the span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, LayerTotals] = {}
    for i, span in enumerate(spans):
        t = totals.setdefault(span.name, LayerTotals())
        duration = span.end - span.start
        t.calls += 1
        t.self_s += duration - child_time[i]
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            t.busy_s += duration
    return totals


def root_time(spans: list[Span]) -> float:
    """Total duration of root spans, which equals the sum of all self times."""
    return sum(s.end - s.start for s in spans if s.parent < 0)
