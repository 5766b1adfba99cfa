"""The reference kernel that benchmark times are scaled by.

On a shared virtual machine the same pure-Python code runs up to 1.8
times slower at some moments than at others, and the speed shifts
within a fraction of a second.  So each timed piece of work is
bracketed by two probes of a fixed kernel that calls nothing of the
package, and its time is divided by the slowdown they show: the mean of
the two probes over REFERENCE_S.  Scaled times are those of a machine
on which the kernel takes REFERENCE_S; the package getting faster or
slower moves them, the machine's contention does not.

    python3 perfbench/reference.py MODULE

imports MODULE in this fresh interpreter and prints the import's scaled
time in seconds, with the probes taken in this interpreter.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time

REFERENCE_S = 0.35e-3  # the kernel's time that scaled times are those of
WARM_RUNS = 3  # runs before the first probe in a fresh interpreter


def reference_kernel() -> None:
    """A fixed slice of pure-Python work of the kind the package does:
    small tuples built, sorted and tallied."""
    rows = [sorted(tuple(range(i % 17)), reverse=True) for i in range(300)]
    totals: dict[int, int] = {}
    for row in rows:
        totals[len(row)] = totals.get(len(row), 0) + sum(row)


def probe() -> float:
    """Time of one run of the kernel, with the garbage collector off so
    that a collection owed by the work before is not charged to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work bracketed by probes ``before`` and ``after``, as
    it would take on the reference machine."""
    return seconds * 2 * REFERENCE_S / (before + after)


def scaled_import(module: str) -> float:
    for _ in range(WARM_RUNS):
        before = probe()
    start = time.perf_counter()
    importlib.import_module(module)
    elapsed = time.perf_counter() - start
    return scale(elapsed, before, probe())


if __name__ == "__main__":
    print(scaled_import(sys.argv[1]))
