"""In-memory spans around the circarc functions the benchmark traces.

``instrumented`` replaces each traced function with a recording wrapper in
every loaded ``circarc`` module that binds it (a caller that did ``from .x
import f`` holds its own reference), so a call made from anywhere inside the
library opens a span, and calls nested inside it become its children.  A
traced name that the library no longer defines is reported as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index in Tracer.spans, -1 for a root


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable,
             counter: Callable[[tuple, Any], dict[str, int]] | None = None) -> Callable:
        spans, counts, stack = self.spans, self.counts, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
            return result

        return traced


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per name: (total span time minus time covered by child spans, calls)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span, inner in zip(spans, child_time):
        entry = out[span.name]
        entry[0] += span.end - span.start - inner
        entry[1] += 1
    return {name: (t, c) for name, (t, c) in out.items()}


@contextmanager
def instrumented(tracer: Tracer, package: str, targets: dict[str, Callable | None]
                 ) -> Iterator[list[str]]:
    """Trace `package.<module>.<function>` for each "module.function" key.

    The value is an optional counter reading structural counts from the
    call's arguments and return value.  Yields the names that could not be
    found; every binding is restored on exit.
    """
    absent: list[str] = []
    patched: list[tuple[object, str, Callable]] = []
    for name, counter in targets.items():
        module_name, _, attr = name.rpartition(".")
        try:
            module = importlib.import_module(f"{package}.{module_name}")
        except ImportError:
            absent.append(name)
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            absent.append(name)
            continue
        wrapper = tracer.wrap(name, original, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    try:
        yield absent
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)
