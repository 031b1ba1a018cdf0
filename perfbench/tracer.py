"""Spans around the public functions of ``friable``, installed from outside.

The tracer replaces each traced function at its module or class attribute,
and in every other ``friable`` module that imported the same object, with
a wrapper that records a span: name, start, end, parent span and job id.
Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import threading
import types
from dataclasses import dataclass
from time import perf_counter

# per-element helpers: wrapping them would time the tracer, not the layer
NOT_WRAPPED = {
    "friable.forms.evaluate",
    "friable.sieve.largest_prime_factor",
    "friable.sieve.smallest_prime_factor",
    "friable.sieve.is_friable",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    size: object = None


def _arg(fn, name):
    """Reader of one argument of ``fn`` by parameter name, defaults applied."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments[name]

    return read


def _size_reader(name: str, fn):
    """What a span of ``name`` keeps for the work counters, read after it ends."""
    if name in ("sieve.build_factor_sieve", "forms.shared_factor_table"):
        return lambda args, kwargs, result: len(result)
    if name == "sieve.psi_count":
        N, y, threads = _arg(fn, "N"), _arg(fn, "y"), _arg(fn, "threads")
        return lambda a, k, r: (N(a, k), y(a, k), threads(a, k))
    if name == "forms.count_friable_values":
        body = _arg(fn, "body")
        return lambda a, k, r: body(a, k)
    if name == "gowers.gowers_norm_cyclic":
        return lambda a, k, r: len(a[0])
    if name == "gowers.gowers_norm_interval":
        order = _arg(fn, "k")
        return lambda a, k, r: 2 ** order(a, k) * len(a[0])
    if name == "correlate.PhaseSequence.values":
        N = _arg(fn, "N")
        return lambda a, k, r: N(a, k) + 1
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = "setup"
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        size = _size_reader(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, tracer.job)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the layers, plus two hot methods."""
        modules = {name: getattr(package, name)
                   for name in ("sieve", "dickman", "forms", "analytic", "gowers",
                                "correlate", "cli")}
        targets = []
        for short, mod in modules.items():
            if short == "cli":
                targets.append(("cli.run", mod.run))
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{mod.__name__}.{attr}" not in NOT_WRAPPED):
                    targets.append((f"{short}.{attr}", obj))
        wrapped = {id(fn): self.wrap(name, fn) for name, fn in targets}
        for cls, attr in ((modules["correlate"].PhaseSequence, "values"),
                          (modules["dickman"].DickmanTable, "eval")):
            fn = vars(cls)[attr]
            wrapped[id(fn)] = self.wrap(f"{cls.__module__.split('.')[-1]}."
                                        f"{cls.__name__}.{attr}", fn)
        # every attribute bound to a traced function, wherever it was imported
        holders = list(modules.values()) + [modules["correlate"].PhaseSequence,
                                            modules["dickman"].DickmanTable]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrapped and obj is not wrapped[id(obj)]:
                    self._saved.append((holder, attr, obj))
                    setattr(holder, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._saved):
            setattr(holder, attr, obj)
        self._saved.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, [])]
        out.append((s.end - s.start) - _covered([k for k in kids if k[1] > k[0]]))
    return out
