"""Spans around the public functions of the iwqm modules, recorded from outside.

``Tracer.install`` replaces every public function of every iwqm module by
a wrapper that records a span (name, parent span, start, end).  A module
that bound a function at import (``from .kernels import eval_poly``) or
keeps it in a tuple (``verify._SUITES``) gets the wrapper in that place
too, so the span appears wherever callers look the function up.
``Tracer.uninstall`` puts every original back.

Spans stay in memory until the run ends.  A function's self time is its
span's duration minus the durations of its direct child spans; calls run
on one thread, so children nest inside their parent.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

#: Modules whose public functions are wrapped.
MODULES = ("algebra", "coherent", "dynamics", "eigenfunctions", "expressions",
           "kernels", "quadrature", "verify", "cli")

#: Left unwrapped: ``quadrature.moment`` and the ``fresnel_gaussian`` it
#: calls run once per polynomial coefficient (about 70 000 times per
#: round of the ``basis`` workload); their time stays in the self time of
#: ``integrate_by_moments``.
SKIP = {"quadrature.moment", "quadrature.fresnel_gaussian"}


def _steps_argument(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments["steps"]


#: Counters read from call arguments: counter name -> (span name, reader).
ARGUMENT_COUNTERS = {"dynamics.split_steps": ("dynamics.grid_split_step", _steps_argument)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # four integers per span: name id, offset of the parent span or -1,
        # start and end in perf_counter nanoseconds
        self.spans = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, counter: tuple[str, object] | None = None):
        name_id = self.name_id(name)
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter_ns, self.counters

        def traced(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs)
            at = len(spans)
            spans.extend((name_id, stack[-1] if stack else -1, clock(), 0))
            stack.append(at)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[at + 3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a span measured without a wrapper."""
        self.spans.extend((self.name_id(name), -1, start, end))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every imported iwqm module."""
        modules = {short: sys.modules[f"iwqm.{short}"] for short in MODULES
                   if f"iwqm.{short}" in sys.modules}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in SKIP or isinstance(value, type)
                        or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                counter = next(((cname, reader(value))
                                for cname, (span, reader) in ARGUMENT_COUNTERS.items()
                                if span == name), None)
                wrappers[id(value)] = (value, self._wrap(name, value, counter))
        if "quadrature" in modules:
            rule = modules["quadrature"].ContourQuadrature
            build = rule.__dict__["build"].__func__
            self._set(rule, "build", classmethod(self._wrap("quadrature.rule_build", build)))
        # rebind wherever a module holds an original: its own globals, the
        # names other modules imported, and tuples of functions
        for module in [sys.modules["iwqm"], *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(module, attr, wrappers[id(value)][1])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    self._set(module, attr, tuple(
                        wrappers[id(v)][1] if id(v) in wrappers and wrappers[id(v)][0] is v else v
                        for v in value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def merge(self, payload: dict) -> None:
        """Append the spans and counters another process dumped with ``dump``."""
        ids = [self.name_id(name) for name in payload["names"]]
        offset = len(self.spans)
        spans = payload["spans"]
        for at in range(0, len(spans), 4):
            name_id, parent, start, end = spans[at:at + 4]
            self.spans.extend((ids[name_id], parent + offset if parent >= 0 else -1, start, end))
        self.counters.update(payload["counters"])

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans.tolist(),
                "counters": dict(self.counters)}

    def write(self, path: Path) -> None:
        """Span names and counters to ``path``, spans as int64 quadruples beside it."""
        with open(path.with_suffix(".spans"), "wb") as handle:
            self.spans.tofile(handle)
        header = {"names": self.names, "counters": dict(self.counters),
                  "spans_file": path.with_suffix(".spans").name,
                  "span_fields": ["name", "parent_offset", "start_ns", "end_ns"]}
        path.write_text(json.dumps(header), encoding="utf-8")

    def summarize(self, lo: int, hi: int) -> tuple[dict[str, float], Counter, Counter]:
        """Self seconds and call counts per span name over the spans at offsets lo..hi.

        Also counts each (parent name, child name) edge, from which
        ratios such as integrand evaluations per integral are read.
        """
        self_ns: dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        edges: Counter = Counter()
        names, spans = self.names, self.spans
        for at in range(lo, hi, 4):
            name_id, parent, start, end = spans[at:at + 4]
            name = names[name_id]
            calls[name] += 1
            self_ns[name] += end - start
            if parent >= lo:
                parent_name = names[spans[parent]]
                self_ns[parent_name] -= end - start
                edges[(parent_name, name)] += 1
        return {k: v * 1e-9 for k, v in self_ns.items()}, calls, edges
