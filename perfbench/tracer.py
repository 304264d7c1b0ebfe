"""Span tracer that wraps public ordcalc functions from outside the package.

`Tracer.install(spec)` replaces each named function with a timing wrapper in
every loaded `ordcalc` module that holds it, as a module attribute or as a
value of a small module-level dict (such as `harness._COMPARE`).  Private
helpers are never wrapped, so their time is charged to the public caller.

A span is (layer, start, end, parent).  Spans live in compact in-memory
arrays and are written out by `dump` when the run ends.  Each layer keeps
aggregates as well: outermost calls, inclusive seconds and self seconds (a
span's duration minus the time its child spans cover).  A call of a layer
that is already open on the stack (recursion through the public name, or
one constructor calling another) folds into the open span, so recursion is
charged to the outermost call.

Generator functions (`core.subterms`) are timed per resumption; their
resumptions count towards self time and the stack but are not stored as
spans, because a single traversal resumes once per yielded node.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

SPAN_CAP = 3_000_000


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.items: list[int] = []
        self._open: list[int] = []
        self.s_layer = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.dropped = 0
        # Open spans: stored span index (-1 when not stored) and the time
        # their finished children covered.  The sentinel frame is the root.
        self._stack = [-1]
        self._child = [0.0]

    def layer_id(self, layer: str) -> int:
        lid = self._ids.get(layer)
        if lid is None:
            lid = self._ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
            self.items.append(0)
            self._open.append(0)
        return lid

    # -- wrappers ---------------------------------------------------------------

    def _wrap_function(self, fn, lid, count_items):
        items = self.items
        opened, stack, child = self._open, self._stack, self._child
        s_layer, s_parent, s_start, s_end = (
            self.s_layer, self.s_parent, self.s_start, self.s_end,
        )
        calls, incl, self_s = self.calls, self.incl, self.self_s
        tracer = self

        def wrapper(*args, **kwargs):
            if opened[lid]:
                return fn(*args, **kwargs)
            opened[lid] = 1
            idx = len(s_layer)
            if idx < SPAN_CAP:
                s_layer.append(lid)
                s_parent.append(stack[-1])
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                tracer.dropped += 1
                idx = -1
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count_items:
                    items[lid] += len(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                d = t1 - t0
                child[-1] += d
                if idx >= 0:
                    s_start[idx] = t0
                    s_end[idx] = t1
                calls[lid] += 1
                incl[lid] += d
                self_s[lid] += d - covered
                opened[lid] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, fn, lid):
        opened, stack, child = self._open, self._stack, self._child
        calls, incl, self_s = self.calls, self.incl, self.self_s

        def drive(gen):
            while True:
                if opened[lid]:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                else:
                    opened[lid] = 1
                    stack.append(-1)
                    child.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        covered = child.pop()
                        d = t1 - t0
                        child[-1] += d
                        incl[lid] += d
                        self_s[lid] += d - covered
                        opened[lid] = 0
                yield item

        def wrapper(*args, **kwargs):
            if opened[lid]:
                return fn(*args, **kwargs)
            calls[lid] += 1
            return drive(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, spec, count_items=()):
        """spec: iterable of (module, attribute, layer, replace_in_home).
        Every listed function is replaced wherever a loaded ordcalc module
        refers to it; with replace_in_home false, its own module keeps the
        original.  Layers in count_items also sum len(result)."""
        replace = {}
        for module, attr, layer, in_home in spec:
            fn = getattr(module, attr)
            lid = self.layer_id(layer)
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(fn, lid)
            else:
                wrapped = self._wrap_function(fn, lid, layer in count_items)
            home = None if in_home else module
            replace[id(fn)] = (fn, wrapped, home)
        for name, module in list(sys.modules.items()):
            if not (name == "ordcalc" or name.startswith("ordcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value and hit[2] is not module:
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict) and len(value) <= 64:
                    for key, item in list(value.items()):
                        hit = replace.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer aggregates: {layer: (calls, inclusive_s, self_s)}."""
        return {
            layer: (self.calls[i], self.incl[i], self.self_s[i])
            for i, layer in enumerate(self.layers)
        }

    def items_of(self, layer: str) -> int:
        lid = self._ids.get(layer)
        return 0 if lid is None else self.items[lid]

    def dump(self, path_prefix: str):
        """Write spans (four binary arrays) and a JSON index next to them."""
        with open(path_prefix + ".spans", "wb") as f:
            for arr in (self.s_layer, self.s_parent, self.s_start, self.s_end):
                arr.tofile(f)
        index = {
            "layers": self.layers,
            "spans": len(self.s_layer),
            "dropped": self.dropped,
            "arrays": ["layer:i32", "parent:i32", "start:f64", "end:f64"],
        }
        with open(path_prefix + ".json", "w") as f:
            json.dump(index, f)


def delta(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots."""
    out = {}
    for layer, (c, i, s) in after.items():
        c0, i0, s0 = before.get(layer, (0, 0.0, 0.0))
        out[layer] = (c - c0, i - i0, s - s0)
    return out
