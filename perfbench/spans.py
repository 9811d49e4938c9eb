"""Per-layer spans for the localp2 benchmark, recorded from outside the package.

``install`` replaces every public function of each localp2 module with a
wrapper that records a span around the call.  The wrapper is bound wherever
the original function object is reachable as a module attribute, so calls
made through ``from x import f`` bindings and through ``module.f`` lookups
are both seen.  Nothing inside ``src/`` is changed.

Spans are aggregated while they close, because one period vector alone makes
about ten thousand kernel calls: per span name the tracer keeps the call
count, the inclusive time of outermost calls and the self time (duration
minus the time covered by direct child spans).  It also counts calls (and,
for ``track_roots``, sampled points) made inside each enclosing span name,
which gives ratios such as segment calls per period vector where the work
happens.  The direct children of a ``cli.dispatch`` span are kept in order,
so the stages of ``localp2 reproduce`` can be timed from the public calls
they make.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Layer name -> module.  Package import is set-up and is not traced.
LAYERS = {
    "cli": "localp2.cli",
    "specfun": "localp2.specfun",
    "picard_fuchs": "localp2.picard_fuchs",
    "mirror_geometry": "localp2.mirror_geometry",
    "mirror_map": "localp2.mirror_map",
    "cohomology": "localp2.cohomology",
    "kernels": "localp2._kernels",
}

# Root span whose direct children are kept in order (the reproduce stages).
STAGE_ROOT = "cli.dispatch"

# Public names that are not numeric entry points of their layer.
_SKIP = {"localp2._kernels": {"njit"}}


def _span_name(name, args, kwargs):
    """Closed-form checks are split by precision mode; they cost 3x apart."""
    if name == "specfun.closed_form_checks":
        cfg = args[0] if args else kwargs.get("config")
        if cfg is None:
            cfg = importlib.import_module("localp2.specfun").default_config()
        return f"{name}.{cfg.mode}"
    return name


def _points(name, args, kwargs):
    if name == "kernels.track_roots":
        return len(args[0] if args else kwargs["zs"])
    return 0


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    skip = _SKIP.get(module.__name__, set())
    for name in names:
        obj = getattr(module, name)
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and name not in skip):
            yield name, obj


class Tracer:
    """Span accounting for one process; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.within_calls = defaultdict(int)   # (ancestor, name) -> calls
        self.within_points = defaultdict(int)  # (ancestor, name) -> points
        self.points = defaultdict(int)
        self.top_children = []                 # (name, duration) under STAGE_ROOT
        self._stack = []                       # [name, start, child_time]
        self._active = defaultdict(int)
        self._installed = []

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, name):
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, points):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        dur = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._active[name] == 0:
            self.incl_s[name] += dur
        self.points[name] += points
        for ancestor in {frame[0] for frame in self._stack}:
            self.within_calls[(ancestor, name)] += 1
            self.within_points[(ancestor, name)] += points
        if self._stack:
            self._stack[-1][2] += dur
            if len(self._stack) == 1 and self._stack[0][0] == STAGE_ROOT:
                self.top_children.append((name, dur))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(_span_name(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(_points(name, args, kwargs))

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer; returns self."""
        originals = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for fname, fn in _public_functions(module):
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "localp2" and not modname.startswith("localp2."):
                continue
            for attr, val in list(vars(module).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, val))
        return self

    def uninstall(self):
        for module, attr, val in reversed(self._installed):
            setattr(module, attr, val)
        self._installed.clear()

    # -- summaries ------------------------------------------------------------

    def layer_totals(self, layer):
        prefix = layer + "."
        names = [n for n in self.calls if n.startswith(prefix)]
        return (sum(self.calls[n] for n in names),
                sum(self.self_s[n] for n in names))

    def summary(self):
        """Plain-JSON form, so a child process can hand its spans back."""
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "self_s": dict(self.self_s),
            "points": dict(self.points),
            "within_calls": [[a, n, c] for (a, n), c in self.within_calls.items()],
            "within_points": [[a, n, c] for (a, n), c in self.within_points.items()],
            "top_children": self.top_children,
        }


def merge(summaries):
    """Sum several ``Tracer.summary`` results into one Tracer-like object."""
    total = Tracer()
    for s in summaries:
        for key in ("calls", "incl_s", "self_s", "points"):
            acc = getattr(total, key)
            for name, v in s[key].items():
                acc[name] += v
        for a, n, c in s["within_calls"]:
            total.within_calls[(a, n)] += c
        for a, n, c in s["within_points"]:
            total.within_points[(a, n)] += c
        total.top_children.extend(tuple(x) for x in s["top_children"])
    return total
