"""Span tracer for the traced benchmark run.

The library is not instrumented: at run time every public callable of the
traced modules is replaced by a wrapper that records one span per call, in
every module namespace that binds it, and the originals are put back after
the traced phase. A span is ``[name, start, end, parent, op]``: ``parent`` is
the index of the enclosing span (-1 at top level) and ``op`` the id of the
benchmark op that was running. Span times are process CPU seconds, the clock
the calibrated end-to-end times start from. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "axialreid"
TRACED_MODULES = ("attention", "toytrain", "aggregation", "tensor", "detect_link", "evaluate")

# The multiply counter is the trace's own instrument (see counting hooks in
# run.py), not a layer: spans around it would only measure the trace.
NOT_TRACED = frozenset({"attention.count_multiplies", "attention.MultiplyCounter"})


class Tracer:
    """Collects spans from wrapped callables; ``op`` is set by the runner."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.work: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Span wrapper around fn. A hook ``hook(work, call, args, kwargs)``
        runs outside the span, calls ``call`` once and adds the work the call
        did (multiplies, bytes, pairs) to ``work``."""
        clock, spans, stack = time.process_time, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        if hook is None:
            return traced
        work = self.work[name]

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            return hook(work, traced, args, kwargs)

        return measured

    def install(self, hooks=None) -> list[str]:
        """Wrap the public functions and public methods of public classes
        defined in each traced module; returns the wrapped names."""
        hooks = hooks or {}
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        names: list[str] = []
        seen: set[int] = set()
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or id(obj) in seen:
                    continue
                if getattr(obj, "__module__", None) != module.__name__ or f"{short}.{attr}" in NOT_TRACED:
                    continue
                seen.add(id(obj))
                if inspect.isclass(obj):
                    names += self._wrap_methods(obj, f"{short}.{attr}", hooks)
                elif inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped = self.wrap(name, obj, hooks.get(name))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._undo.append((ns, key, obj))
                                setattr(ns, key, wrapped)
                    names.append(name)
        return names

    def _wrap_methods(self, cls, prefix: str, hooks) -> list[str]:
        names = []
        for meth, desc in list(vars(cls).items()):
            if meth.startswith("_"):
                continue
            name = f"{prefix}.{meth}"
            if isinstance(desc, staticmethod):
                wrapped = staticmethod(self.wrap(name, desc.__func__, hooks.get(name)))
            elif inspect.isfunction(desc):
                wrapped = self.wrap(name, desc, hooks.get(name))
            else:
                continue  # properties, class attributes
            self._undo.append((cls, meth, desc))
            setattr(cls, meth, wrapped)
            names.append(name)
        return names

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(start, end, children.get(i, ()))
            for i, (name, start, end, parent, op) in enumerate(spans)]


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """name -> {"calls": count, "self_s": summed self time} over the spans
    recorded inside ops."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        if span[4] is None:
            continue
        row = out[span[0]]
        row["calls"] += 1
        row["self_s"] += own
    return dict(out)


def top_level_seconds(spans) -> float:
    """Summed duration of the spans inside ops that no other span encloses."""
    return sum(end - start for name, start, end, parent, op in spans if parent < 0 and op is not None)
