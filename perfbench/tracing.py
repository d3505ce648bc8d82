"""In-memory span recorder and the patching that puts spans around calls
into the trianglecf modules.

A span is (trace_id, name, start, end, parent index).  Spans are appended
to a list in the order they open and are returned to the caller at the
end; nothing is written while the measured code runs.  Spans nest because
every caller runs on one thread, so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LIBRARY = ("field", "group", "quadratic", "dynamics", "planar", "dioph",
           "ergodic", "numeric")

# Called millions of times per command from inner float loops, or plain
# settings accessors: a span around each call would cost more than the call.
UNTRACED = {
    "numeric.step_scalar",
    "numeric.derivative_factor",
    "field.get_precision_cap",
    "field.set_precision_cap",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = 0
        self._stack = []
        self._undo = []

    def span(self, name):
        """Context manager form, for spans around benchmark code."""
        return _Span(self, name)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def patch_layers(self):
        """Wrap every public module-level function of the library layers,
        replacing it in each trianglecf module that bound it by name (for
        example `dioph` imports `f_step` from `dynamics`)."""
        modules = [importlib.import_module(f"trianglecf.{m}") for m in LIBRARY + ("cli",)]
        modules.append(sys.modules["trianglecf"])
        for layer in LIBRARY:
            mod = importlib.import_module(f"trianglecf.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                self.replace(modules, obj, self.wrap(name, obj))

    def replace(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def restore(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append([tr.trace_id, self.name, perf_counter(), None, parent])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][3] = perf_counter()
        tr._stack.pop()
        return False

    @property
    def seconds(self):
        start, end = self.tracer.spans[self.index][2:4]
        return end - start


def self_times(spans):
    """Seconds of self time per span name: duration minus direct children."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for i, (_, name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def layer_self_times(spans):
    """Self time summed per layer (the part of the span name before the dot)."""
    out = {}
    for name, sec in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + sec
    return out
