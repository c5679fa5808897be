"""Per-layer spans for gridtopo, recorded from outside the package.

The tracer swaps each listed public function for a wrapper in every
gridtopo module that binds it, so calls made through ``from ... import``
names are caught as well as calls through the defining module.  A span
records name, start, end, parent span and input id; spans stay in memory
and are written out once, when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# Layer -> public functions wrapped.  ``cells`` is left out on purpose: its
# functions are called millions of times per contraction, so wrapping them
# would time the wrappers rather than the layer.
LAYERS = {
    "engine": ("contract", "probe_obstruction", "is_irreducible_sphere", "radius_sweep"),
    "curviness": (
        "valid_reports",
        "candidate_arcs",
        "fit_region",
        "replacement_filling",
        "curviness",
        "arc_sign",
    ),
    "filling": (
        "one_sided_min_cut",
        "min_filling",
        "inside_region",
        "lofted",
        "jordan_split",
        "enclosed_cells",
    ),
    "metric": ("ball", "diameter"),
    "deform": ("interpolate", "replace_arc", "replay"),
    "complexes": ("validate",),
    "io": ("trace_to_json", "trace_from_json"),
    "render": ("render",),
}


def span_names():
    """Every span name, in report order; min_filling splits by codimension."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            if (layer, fn) == ("filling", "min_filling"):
                names += ["filling.min_filling.path", "filling.min_filling.parity"]
            else:
                names.append(f"{layer}.{fn}")
    return names


def _min_filling_name(args, kwargs):
    cycle = args[1] if len(args) > 1 else kwargs["cycle"]
    return "filling.min_filling.path" if cycle.dim == 0 else "filling.min_filling.parity"


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._index = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.failed = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.budget_exceeded = 0
        self.item = -1
        self._stack = []  # [span index, child seconds] per open span
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._item = array("i")
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every listed function in every loaded gridtopo module."""
        if not self._patches:
            self._patches = self._bindings()
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _wrapper in self._patches:
            setattr(mod, attr, original)

    @property
    def bindings(self):
        return len(self._patches)

    def _bindings(self):
        from gridtopo.errors import SearchBudgetExceeded

        self._budget_error = SearchBudgetExceeded
        modules = [m for k, m in sorted(sys.modules.items()) if k == "gridtopo" or k.startswith("gridtopo.")]
        patches = []
        for layer, fns in LAYERS.items():
            home = sys.modules[f"gridtopo.{layer}"]
            for fn in fns:
                original = getattr(home, fn, None)
                if not callable(original):
                    raise RuntimeError(f"gridtopo.{layer}.{fn} is gone; update perfbench/tracer.py")
                if (layer, fn) == ("filling", "min_filling"):
                    wrapper = self._wrap(None, original, _min_filling_name)
                else:
                    wrapper = self._wrap(f"{layer}.{fn}", original, None)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, attr, original, wrapper))
        return patches

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = tracer._index[name_of(args, kwargs) if name_of else name]
            tracer._open(key)
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(key, failed=True)
                if isinstance(err, tracer._budget_error) and name_of is not None:
                    tracer.budget_exceeded += 1
                raise
            tracer._close(key, failed=out is None)
            return out

        return wrapper

    def _open(self, key):
        idx = len(self._name)
        self._name.append(key)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._item.append(self.item)
        self._end.append(0.0)
        self._stack.append([idx, 0.0])
        self._start.append(time.perf_counter())

    def _close(self, key, failed):
        end = time.perf_counter()
        span, child_s = self._stack.pop()
        duration = end - self._start[span]
        self._end[span] = end
        self.calls[key] += 1
        self.failed[key] += failed
        self.self_s[key] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    @property
    def spans(self):
        return len(self._name)

    def totals(self):
        """name -> (calls, self seconds, failed)."""
        return {n: (self.calls[i], self.self_s[i], self.failed[i]) for i, n in enumerate(self.names)}

    def write(self, path, item_ids):
        """Write every span as one JSON line: name, start, end, parent, item."""
        t0 = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i in range(len(self._name)):
                item = self._item[i]
                out.write(
                    json.dumps(
                        [
                            i,
                            self.names[self._name[i]],
                            round(self._start[i] - t0, 7),
                            round(self._end[i] - t0, 7),
                            self._parent[i],
                            item_ids[item] if item >= 0 else None,
                        ]
                    )
                    + "\n"
                )
