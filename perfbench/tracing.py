"""Per-layer tracing from outside the package.

`Tracer.install` replaces every public function of the layer modules
with a timing wrapper, in every loaded ``schmidt`` namespace that holds
it (the modules import each other's functions by name, so patching only
the defining module would miss most calls).  Generator functions and
recursive helpers are left alone: a wrapper would time only generator
creation, or add a span per level of recursion.

Spans are not kept one by one; each wrapper folds its span into
per-function totals (calls, total time, self time) and into counts read
from the call's arguments and return value.  Self time is a span's
duration minus the durations of wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "schmidt"
LAYERS = ("cli", "textform", "harness", "bijection", "partitions", "series")
RECURSIVE = frozenset({"partitions_of", "_schmidt_suffixes", "_bounded_vectors"})
ENUMERATORS = (
    "partitions.enumerate_two_color",
    "partitions.enumerate_schmidt",
    "partitions.enumerate_two_color_refined",
    "partitions.enumerate_schmidt_refined_literal",
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


@dataclass
class _Frame:
    child_s: float = 0.0
    child_objects: int = 0


def _conjugate_cells(stat: Stat, frame: _Frame, args: tuple, result: Any) -> None:
    p = args[0]
    stat.add("cells", len(p) * p[0] if len(p) else 0)


def _shape_cells(stat: Stat, frame: _Frame, args: tuple, result: Any) -> None:
    stat.add("cells", sum(result))


def _objects(stat: Stat, frame: _Frame, args: tuple, result: Any) -> None:
    stat.add("objects", len(result))


def _kept(stat: Stat, frame: _Frame, args: tuple, result: Any) -> None:
    # the filter keeps len(result) of what the enumerators called inside it built
    _objects(stat, frame, args, result)
    stat.add("enumerated", frame.child_objects)


COUNTERS: dict[str, Callable[[Stat, _Frame, tuple, Any], None]] = {
    "partitions.conjugate": _conjugate_cells,
    "bijection.wright_build": _shape_cells,
    "partitions.enumerate_two_color": _objects,
    "partitions.enumerate_schmidt": _objects,
    "partitions.enumerate_two_color_refined": _kept,
    "partitions.enumerate_schmidt_refined_literal": _objects,
}


def layer_functions() -> dict[str, Callable]:
    """``"<module>.<function>"`` -> function, for every function to wrap."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and name not in RECURSIVE
                and not inspect.isgeneratorfunction(fn)
            ):
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Wraps the layer functions while installed and totals their spans."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self._stack: list[_Frame] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def take(self) -> dict[str, Stat]:
        """The totals so far; the tracer starts again from zero."""
        taken = {}
        for name, stat in self.stats.items():
            taken[name] = Stat(stat.calls, stat.total_s, stat.self_s, dict(stat.counts))
            stat.calls, stat.total_s, stat.self_s = 0, 0.0, 0.0
            stat.counts.clear()
        return taken

    def _wrap(self, qualname: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(qualname, Stat())
        stack = self._stack
        count = COUNTERS.get(qualname)
        is_enumerator = qualname in ENUMERATORS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame.child_s
                if stack:
                    stack[-1].child_s += elapsed
            if count is not None:
                count(stat, frame, args, result)
            if is_enumerator and stack:
                stack[-1].child_objects += len(result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(qualname, fn) for qualname, fn in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != PACKAGE:
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
