"""Span recording around the public functions of each qedq layer.

The tracer wraps every public function a layer module defines, and
rebinds the wrapper under every name the function has in the qedq
modules (``qedq.staffing.erlang_c`` is ``qedq.exact.erlang_c`` imported by
name), so a call from one layer into another produces a child span.
Nothing under ``src/`` changes: the wrappers live only while the tracer
is installed and the original functions are restored afterwards.

Spans are kept in memory as ``(layer, name, start, end, parent)`` tuples
in start order; ``parent`` is the index of the enclosing span or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("sim", "exact", "staffing", "timevarying", "qed", "bulk", "special", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent)

        return traced

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module("qedq." + layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        for mod in [importlib.import_module("qedq"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))
        return self

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def mark(self) -> int:
        """Index of the next span; pass to ``root_seconds`` after a call."""
        return len(self.spans)

    def root_seconds(self, mark: int) -> float:
        """Duration of the first span recorded since ``mark``: the span of
        the top-level call the benchmark made."""
        _, _, t0, t1, _ = self.spans[mark]
        return t1 - t0

    def layer_totals(self, start: int = 0, stop: int | None = None) -> dict:
        """Self seconds and call counts per layer over spans[start:stop].

        A span's self time is its duration minus the durations of its
        direct children, so nested calls (timevarying -> staffing ->
        exact) are charged to the layer that did the work.
        """
        spans = self.spans[start:stop]
        child = [0.0] * len(spans)
        for layer, name, t0, t1, parent in spans:
            if parent >= start:
                child[parent - start] += t1 - t0
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for i, (layer, name, t0, t1, parent) in enumerate(spans):
            totals[layer][0] += (t1 - t0) - child[i]
            totals[layer][1] += 1
        return {layer: {"self_s": v[0], "calls": v[1]} for layer, v in totals.items()}

    def count_nested(self, layer: str, name: str, under: str,
                     start: int = 0, stop: int | None = None) -> int:
        """Number of ``layer.name`` spans with an ancestor in layer ``under``."""
        spans = self.spans
        stop = len(spans) if stop is None else stop
        n = 0
        for i in range(start, stop):
            lay, nm, _, _, parent = spans[i]
            if lay != layer or nm != name:
                continue
            while parent >= 0:
                if spans[parent][0] == under:
                    n += 1
                    break
                parent = spans[parent][4]
        return n

    def dump(self) -> dict:
        names = sorted({(s[0], s[1]) for s in self.spans})
        index = {key: i for i, key in enumerate(names)}
        base = self.spans[0][2] if self.spans else 0.0
        return {
            "fields": ["function", "start_s", "end_s", "parent"],
            "functions": ["%s.%s" % key for key in names],
            "spans": [[index[(s[0], s[1])], round(s[2] - base, 9),
                       round(s[3] - base, 9), s[4]] for s in self.spans],
        }
