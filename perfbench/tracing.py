"""Span tracing of library functions, patched in from outside the library.

A Tracer replaces each listed function, in every module namespace of the
package that binds it (the modules use ``from .x import f``, so one
function object can sit under several names) with a wrapper that records
one span per call: name, parent span, start, end and busy time. Spans are
kept in flat arrays and aggregated once tracing ends.

Busy time is the span's duration for an ordinary call. For a generator
function it is the sum of the intervals in which the generator itself was
running (one span per generator object, parented to the span active when
it first runs), so consumer code between two yields is never charged to it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Iterable


def package_modules(package: str) -> list:
    """Every loaded module of the package, the package itself included."""
    prefix = package + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    ]


def patch_everywhere(package: str, original: Callable, replacement: Callable) -> list:
    """Rebinds every name in the package's modules that is bound to
    ``original``; returns (module, name, original) triples for undoing."""
    patched = []
    for mod in package_modules(package):
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def unpatch(patched: Iterable) -> None:
    for mod, attr, original in patched:
        setattr(mod, attr, original)


class Tracer:
    """Records spans for the functions it is asked to wrap.

    ``on_result`` hooks see each return value and may bump named counters
    (for example, rejected candidates); a generator's yields are counted
    under ``yields_counter`` when one is given.
    """

    def __init__(self, package: str) -> None:
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        self.counters: Counter = Counter()
        self.current = -1
        self._patched: list = []

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.current)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def wrap(
        self,
        module: str,
        function: str,
        on_result: Callable[[Counter, object], None] | None = None,
        yields_counter: str | None = None,
    ) -> None:
        mod = sys.modules[f"{self.package}.{module}"]
        original = getattr(mod, function)
        name_id = len(self.names)
        self.names.append(f"{module}.{function}")
        tracer = self

        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = tracer._open(name_id)
                inner = original(*args, **kwargs)
                busy = 0.0
                yielded = 0
                try:
                    while True:
                        outer = tracer.current
                        tracer.current = idx
                        t = perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            busy += perf_counter() - t
                            tracer.current = outer
                        yielded += 1
                        yield item
                finally:
                    tracer.span_end[idx] = perf_counter()
                    tracer.span_busy[idx] = busy
                    if yields_counter:
                        tracer.counters[yields_counter] += yielded

        else:

            @functools.wraps(original)
            def traced(*args, **kwargs):
                idx = tracer._open(name_id)
                outer = tracer.current
                tracer.current = idx
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer.span_end[idx] = end
                    tracer.span_busy[idx] = end - tracer.span_start[idx]
                    tracer.current = outer
                if on_result is not None:
                    on_result(tracer.counters, result)
                return result

        self._patched += patch_everywhere(self.package, original, traced)

    def remove(self) -> None:
        unpatch(reversed(self._patched))
        self._patched = []

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per function: calls, self time and total time in seconds.

        Self time is busy time minus the busy time of direct child spans.
        Total time counts a span only when no ancestor has the same name,
        so recursion through a patched name is not counted twice.
        """
        count = len(self.span_start)
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_busy[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for i in range(count):
            entry = out[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.span_busy[i] - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != self.span_name[i]:
                p = self.span_parent[p]
            if p < 0:
                entry["total_s"] += self.span_busy[i]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in opening order; times are seconds on
        the perf_counter clock."""
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.span_name[i]],
                            "parent": self.span_parent[i],
                            "start": self.span_start[i],
                            "end": self.span_end[i],
                            "busy": self.span_busy[i],
                        }
                    )
                    + "\n"
                )
