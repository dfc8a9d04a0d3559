"""In-memory span tracing of mimolab from outside the package.

A :class:`Tracer` wraps the public functions of every ``mimolab`` module,
the public methods of its classes, and the ``__init__`` of its classes that
are not dataclasses (``RandomStream``).  It rebinds each function's wrapper
wherever a module bound the original name, for example
``mimolab.cli.squint_sweep`` and ``mimolab.channels.derive_seed``, so calls
are recorded across module boundaries and inside a module alike.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span or -1.  Span names are ``<module>.<qualified name>``, such as
``geometry.array_response`` or ``rng.RandomStream.init``.  A span's self time
is its duration minus the durations of its direct children; a module's self
time is the sum over its spans.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import sys
import time
import tracemalloc
from typing import Callable

PACKAGE = "mimolab"

# work counters: span name -> function(result) returning {counter: amount}
COUNTERS: dict[str, Callable[[object], dict[str, int]]] = {
    "geometry.array_response": lambda r: {"geometry.elements": r.entries.size},
    "rng.RandomStream.uniform": lambda r: {"rng.samples": r.size},
    "rng.RandomStream.phases": lambda r: {"rng.samples": r.size},
    "rng.RandomStream.complex_normal": lambda r: {"rng.samples": r.size},
    "capacity.sweep_csv_text": lambda r: {
        "capacity.sweep_csv_text.bytes": len(r.encode()),
        "capacity.sweep_csv_text.rows": r.count("\n") - 1,
    },
}

# spans whose peak traced allocation is recorded (tracemalloc around the call)
ALLOC_SPANS = ("channels.drift_bound_check",)


def _layer_modules() -> list:
    return [
        module for name, module in sorted(sys.modules.items())
        if name.startswith(PACKAGE + ".") and module is not None
    ]


def _targets(module) -> list[tuple[object, str, str, Callable]]:
    """(owner, attribute, span name, original) for each traced callable of a module."""
    layer = module.__name__.rpartition(".")[2]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, f"{layer}.{name}", obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not inspect.isfunction(member):
                    continue
                if attr == "__init__" and not dataclasses.is_dataclass(obj):
                    found.append((obj, attr, f"{layer}.{name}.init", member))
                elif not attr.startswith("_"):
                    found.append((obj, attr, f"{layer}.{name}.{attr}", member))
    return found


class Tracer:
    """Records spans and work counters of mimolab calls while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.peak_alloc: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.peak_alloc.clear()

    def _wrap(self, name: str, func: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        alloc = name in ALLOC_SPANS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced callable and rebind it in every module that holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _layer_modules()
        wrappers = {}  # id of a module-level function -> its wrapper
        for module in modules:
            for owner, attr, span, original in _targets(module):
                wrapper = self._wrap(span, original)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                else:
                    wrappers[id(original)] = wrapper
        for module in modules + [sys.modules[PACKAGE]]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def span_stats(spans: list) -> tuple[dict[str, SpanStats], dict[str, float], float]:
    """Per-name stats, per-module self time, and the summed top-level duration."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, SpanStats] = collections.defaultdict(SpanStats)
    by_module: dict[str, float] = collections.defaultdict(float)
    top_level = 0.0
    for (name, start, end, parent), children in zip(spans, child_time):
        stats = by_name[name]
        stats.calls += 1
        stats.seconds += end - start
        stats.self_seconds += end - start - children
        by_module[name.partition(".")[0]] += end - start - children
        if parent < 0:
            top_level += end - start
    return dict(by_name), dict(by_module), top_level
