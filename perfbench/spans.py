"""Per-module spans and counters, installed from outside the program.

install() wraps every public function, public method, property and
arithmetic dunder defined in each layer module of mtwcheck, and rebinds each
name that refers to the original anywhere in the package, so calls from one
module into another go through the wrapper.  A wrapper counts the call and
times it; a module's self time is the time inside its spans minus the time
of the spans nested in them.  Spans are aggregated as they close rather than
kept one by one, since a single op makes tens of thousands of jet calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "checker", "curvature", "costs", "expressions", "jets", "geometry",
          "oracle")

# Other modules use Jet and TangentVector through these, so they count as
# public entry points of their modules.
_PUBLIC_DUNDERS = frozenset({
    "__init__", "__post_init__", "__call__", "__neg__", "__add__", "__radd__",
    "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__pow__",
})

# Functions whose argument size is counted as points: name -> parameter.
# _profiles is private but is the single entry point of the profile
# computation, so it is wrapped as well.
_POINT_ARGS = {"mtwcheck.costs.eval_cost_jet": "z0", "mtwcheck.curvature._profiles": "z"}

# Per-layer metric -> (kind, key): "calls" counts calls of one callable,
# "points" sums its argument sizes, "layer_calls" counts every wrapped call
# into a layer.
COUNT_METRICS = {
    "jets.mul.calls": ("calls", "mtwcheck.jets.Jet.__mul__"),
    "jets.compose.calls": ("calls", "mtwcheck.jets.jet_compose"),
    "costs.eval_cost_jet.calls": ("calls", "mtwcheck.costs.eval_cost_jet"),
    "costs.eval_cost_jet.points": ("points", "mtwcheck.costs.eval_cost_jet"),
    "costs.zmax.calls": ("calls", "mtwcheck.costs.CostFunction.zmax"),
    "curvature.profile_points": ("points", "mtwcheck.curvature._profiles"),
    "geometry.calls": ("layer_calls", "geometry"),
}


class Tracer:
    """Call counts, point counts and per-layer self time since install()."""

    def __init__(self):
        self.calls = Counter()
        self.points = Counter()
        self.layer_calls = Counter()
        self.self_s = Counter()
        self._open = []  # child time accumulated by each open span

    def _wrap(self, layer, key, fn):
        calls, layer_calls, points = self.calls, self.layer_calls, self.points
        self_s, open_spans, clock = self.self_s, self._open, time.perf_counter
        size_param = _POINT_ARGS.get(key)
        signature = inspect.signature(fn) if size_param else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            layer_calls[layer] += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                points[key] += int(np.size(bound.arguments[size_param]))
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                self_s[layer] += span - open_spans.pop()
                if open_spans:
                    open_spans[-1] += span

        return traced

    def _wrap_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _PUBLIC_DUNDERS:
                continue
            key = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                wrapped = property(self._wrap(layer, key, member.fget), member.fset,
                                   member.fdel, member.__doc__)
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(layer, key, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(layer, key, member)
            else:
                continue
            setattr(cls, attr, wrapped)

    def install(self):
        """Wrap the layer modules of the already imported mtwcheck package."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mtwcheck.{layer}")
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = f"{module.__name__}.{name}"
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and (not name.startswith("_")
                                                  or key in _POINT_ARGS):
                    replacements[id(obj)] = self._wrap(layer, key, obj)
        # rebind every reference, including `from .x import f` copies
        for module_name, module in list(sys.modules.items()):
            if module_name == "mtwcheck" or module_name.startswith("mtwcheck."):
                for name, obj in list(vars(module).items()):
                    wrapped = replacements.get(id(obj))
                    if wrapped is not None:
                        setattr(module, name, wrapped)

    def per_op(self, ops):
        """Per-layer metrics divided by the number of traced ops."""
        metrics = {f"{layer}.self_ms": (1000.0 * self.self_s[layer] / ops, "ms")
                   for layer in LAYERS}
        sources = {"calls": self.calls, "points": self.points,
                   "layer_calls": self.layer_calls}
        for name, (kind, key) in COUNT_METRICS.items():
            metrics[name] = (sources[kind][key] / ops, "count")
        return metrics

    def summary(self):
        """Every wrapped callable's call and point counts, for the trace file."""
        return {
            "self_ms": {layer: 1000.0 * self.self_s[layer] for layer in LAYERS},
            "calls": dict(sorted(self.calls.items())),
            "points": dict(sorted(self.points.items())),
        }
