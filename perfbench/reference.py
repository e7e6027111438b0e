"""Reference kernel that tracks the machine's current speed.

On a shared 2-vCPU host the interpreter's speed was measured to swing by
up to 1.8x within seconds.  The kernel's time follows the swing, so
timings divided by it do not; the benchmark reports times scaled to
``REFERENCE_MS``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the kernel's median time around drops in the baseline runs
REFERENCE_MS = 0.57


def reference_kernel() -> float:
    """Fixed interpreter-bound work with small numpy calls, like the solvers'."""
    a = np.arange(8.0)
    total = 0.0
    for _ in range(200):
        total += float(a @ a) + sum(range(30))
    return total


def time_reference() -> float:
    """Seconds one call of the kernel takes now."""
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def median_reference(calls: int = 7) -> float:
    """Median seconds over ``calls`` calls, after one untimed call."""
    reference_kernel()
    return statistics.median(time_reference() for _ in range(calls))
