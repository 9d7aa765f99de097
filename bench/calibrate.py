"""Machine-speed reference for the end-to-end times.

The machine this benchmark was defined on moves between CPU speed states:
the reference loop below took from 0.45 ms to 0.79 ms within a few minutes,
and op latencies followed it.  Each end-to-end time is therefore timed
together with this loop and reported at the nominal speed at which the loop
takes ``NOMINAL_S``: ``time * NOMINAL_S / reference time``.  The loop uses
only the standard library, so no change to the program can speed it up or
slow it down.  Raw times are reported alongside.
"""
from __future__ import annotations

import math
import time

NOMINAL_S = 0.0005
_STEPS = 1000


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def reference_seconds() -> float:
    """Time one pass of a fixed interpreter-bound loop: small objects,
    attribute access, math calls and float arithmetic, like the library's."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_STEPS):
        t = i * 0.01
        p = _Pair(math.cos(t), math.sin(t))
        q = (p.x * 2.0 - p.y, p.y * 0.5 + p.x)
        acc += math.sqrt(q[0] * q[0] + q[1] * q[1])
    return time.perf_counter() - t0
