"""A fixed reference kernel that measures how fast the machine is right now.

On a shared sandbox the speed of one core drifts by up to 1.7x over tens
of seconds, with no steal time visible to the guest, so raw times of
runs a minute apart differ by more than any useful bound.  The drift
scales every kind of work alike, closely enough that dividing a time by
the duration of this kernel, measured next to it, cancels most of it.

The kernel mixes the three kinds of work the benchmark's workloads do:
an interpreted integer loop, big-int multiplication and a numpy sort of
int64 keys.  It uses no symnabla code, so no library change moves it.
"""

from __future__ import annotations

import time

import numpy as np

#: Times are reported in seconds at the speed where the kernel takes
#: exactly this long (roughly its duration in a 2-core sandbox's faster
#: phases).
NOMINAL_S = 0.1

_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 1 << 19)
_BIG = 3**60000


def kernel_s() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    for _ in range(20):
        acc ^= _BIG * (_BIG + 1)
    for _ in range(4):
        keys = _KEYS.copy()
        keys.sort()
    return time.perf_counter() - t0


def normalise(elapsed: float, before: float, after: float) -> float:
    """elapsed in seconds at nominal speed, given kernel times measured
    just before and just after it."""
    return elapsed * NOMINAL_S * 2 / (before + after)
