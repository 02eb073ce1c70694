"""Machine speed, measured by a fixed kernel that does not use starnet.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds.  A run times this kernel between ops and scales
each op's time by REFERENCE_S / (kernel time around the op): the result
is the op's time on a machine where the kernel takes REFERENCE_S, and
most of the machine's drift cancels.  The kernel does the kind of work
starnet does: exact arithmetic on small fractions, with small
allocations and dict stores.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# the kernel's time on an idle 2-core x86-64 host under CPython 3.11
REFERENCE_S = 0.0100


def kernel():
    # small fractions that do not grow, as in the field's coordinates
    values = [Fraction(i, i + 2) for i in range(1, 12)]
    table = {}
    for i in range(2000):
        x, y = values[i % 11], values[(i * 7) % 11]
        table[(i % 13, i % 7)] = x * y - y / (x + 1)
    return table


def measure() -> float:
    """Seconds of one kernel run.

    The cyclic collector is off while the kernel runs, so that collecting
    the garbage an op left behind is charged to the op, not to the kernel.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def measure_pair() -> list:
    """Seconds of two kernel runs back to back."""
    return [measure(), measure()]
