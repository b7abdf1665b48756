"""Span tracing from outside the program, for the per-layer metrics.

The tracer replaces each traced library function by a wrapper, at every
name the function is bound to in the loaded `mbsp` modules, because callers
look the function up there: `solver` calls `LP.solve` and `C.separate_*`
through module attributes, but names pulled in with `from ... import` (such
as `mbsp.ggmz.spanning_forest` or `mbsp.solver.is_balanced`) are separate
bindings of the same object.  Modules are reached through `sys.modules`,
because `mbsp.ggmz` and `mbsp.grasp` are shadowed by functions of the same
name in the package namespace.

A wrapper records a span (name, start, end, parent span, trace id, note)
only while a root span opened by the benchmark is active, so the
benchmark's own checks are not traced.  Spans stay in memory until the run
writes them out.  Leaving the `with` block restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


def _rows(args, kwargs, out):
    return {"rows": len(args[0].rows), "infeasible": out.status != "optimal"}


def _hit(args, kwargs, out):
    return {"hit": bool(out)}


def _found(args, kwargs, out):
    return {"found": len(out)}


def _lifted(args, kwargs, out):
    return {"lifted": out.key != args[1].key}


def _children(args, kwargs, out):
    return {"children": len(out)}


def _strategy(args, kwargs, out):
    return {"strategy": args[1].value}


def _improved(args, kwargs, out):
    return {"improved": out.size() > args[1].size()}


# (span name, defining module, function, note) for every traced function.
TARGETS = (
    ("lp.solve", "mbsp.lp", "solve", _rows),
    ("cuts.initial", "mbsp.cuts", "initial_formulation", None),
    ("cuts.pool_scan", "mbsp.cuts", "scan_pool", _hit),
    ("cuts.sep_cycle", "mbsp.cuts", "separate_odd_negative_cycle", _found),
    ("cuts.lift", "mbsp.cuts", "lift_odd_negative_cycle", _lifted),
    ("cuts.sep_clique", "mbsp.cuts", "separate_clique", _found),
    ("cuts.sep_hole", "mbsp.cuts", "separate_lifted_odd_hole", _found),
    ("cuts.rounding", "mbsp.cuts", "rounding_heuristic", None),
    ("solver.branch", "mbsp.solver", "branch", _children),
    ("graph.is_balanced", "mbsp.graph", "is_balanced", None),
    ("graph.induced", "mbsp.graph", "induced", None),
    ("graph.switch", "mbsp.graph", "switch", None),
    ("graph.negative_part", "mbsp.graph", "negative_part", None),
    ("graph.is_feasible", "mbsp.graph", "is_feasible", None),
    ("spanning.forest", "mbsp.spanning", "spanning_forest", _strategy),
    ("ggmz.switch_set", "mbsp.ggmz", "switch_set_from_forest", None),
    ("ggmz.stable_set", "mbsp.ggmz", "stable_set_grasp", None),
    ("grasp.construct", "mbsp.grasp", "construct", None),
    ("grasp.local_search", "mbsp.grasp", "local_search", _improved),
    ("instances.generate", "mbsp.instances", "generate", None),
    ("instances.io", "mbsp.instances", "write", None),
    ("instances.io", "mbsp.instances", "read", None),
)


@dataclass
class Span:
    name: str
    trace: str
    parent: int  # index of the parent span, -1 for a root
    start: float
    end: float = 0.0
    note: dict = None


def mbsp_modules():
    return [m for name, m in list(sys.modules.items()) if name == "mbsp" or name.startswith("mbsp.")]


class Tracer:
    """Context manager that wraps TARGETS while active and collects spans."""

    def __init__(self):
        self.spans = []
        self.patched = []  # (module, attribute, original function)
        self._stack = []
        self._trace = None

    def __enter__(self):
        modules = mbsp_modules()
        for name, module, attr, note in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self.patched):
            setattr(mod, key, original)
        return False

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = Span(name, self._trace, stack[-1], time.perf_counter())
            stack.append(len(spans))
            spans.append(span)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if note is not None and out is not None:
                    span.note = note(args, kwargs, out)

        wrapper.__traced__ = True
        return wrapper

    @contextlib.contextmanager
    def root(self, name, trace_id):
        """Root span around one call made by the benchmark."""
        span = Span(name, trace_id, -1, time.perf_counter())
        self._trace = trace_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._trace = None


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]
