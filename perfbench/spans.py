"""Span recording around the public functions of each package module.

Tracer.install() replaces every public function defined in a layer module,
plus FamilySpec.build, with a wrapper that records a span, and rebinds every
name in the package that refers to the original, including names a module
took with `from ... import`. Tracer.restore() puts the originals back. Spans
are (name, start, end, parent) with parent the index of the enclosing span or
-1; they stay in memory until dump() writes them.

Nothing here changes the package's files; end-to-end runs never install it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

LAYERS = ("graph_core", "labeling", "oracle", "certify", "families", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.examined = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            # OracleResult carries an exact count of labelings visited
            self.examined += getattr(result, "labelings_examined", 0)
            return result

        return span

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"cordial.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        spec = modules["graph_core"].FamilySpec
        wrappers[id(spec.build)] = (spec.build, self._wrap("graph_core.FamilySpec.build", spec.build))
        namespaces = [importlib.import_module("cordial"), spec, *modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def restore(self) -> None:
        for ns, attr, obj in reversed(self._saved):
            setattr(ns, attr, obj)
        self._saved.clear()

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, since: int = 0) -> dict[str, float]:
        """Seconds of self time per layer over spans[since:]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[since:]:
            if parent >= since:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(since, len(self.spans)):
            name, start, end, _ = self.spans[i]
            out[name.split(".", 1)[0]] += (end - start) - child[i]
        return out

    def busy(self, layer: str, since: int = 0) -> float:
        """Seconds spent inside outermost spans of one layer."""
        prefix = layer + "."
        total = 0.0
        for name, start, end, parent in self.spans[since:]:
            if not name.startswith(prefix):
                continue
            while parent >= since and not self.spans[parent][0].startswith(prefix):
                parent = self.spans[parent][3]
            if parent < since:
                total += end - start
        return total

    def self_ms_of(self, name: str) -> float:
        """Median self time in ms of the spans with this name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = [(s[2] - s[1] - child[i]) * 1e3
               for i, s in enumerate(self.spans) if s[0] == name]
        return statistics.median(own) if own else 0.0

    def extend(self, spans: list[list], examined: int) -> None:
        """Append spans recorded by another process, re-based on this list."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
        self.examined += examined

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"examined": self.examined, "spans": self.spans}, fh,
                      separators=(",", ":"))
