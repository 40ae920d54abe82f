"""A fixed pure-Python probe that times how fast the core is right now.

On a shared host the same run can take half as long again from one
second to the next, as other tenants come and go. The benchmark runs
this probe between short slices of every measured phase and scales each
slice by the probes on either side of it. That turns host seconds into
reference seconds: seconds on a core where the probe takes ``PROBE_S``.
The probe uses no disthash code, so no change to the program moves it;
it must never change either, or old and new figures stop being
comparable.
"""
from __future__ import annotations

import heapq
import time

PROBE_S = 0.005


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str):
        self.a = a
        self.b = b

    def key(self) -> int:
        return self.a


def _work() -> int:
    """Allocation, dict updates, heap traffic and method calls, the mix
    the simulator's event loop is made of."""
    heap, counts, out = [], {}, 0
    for i in range(3000):
        item = _Item(i % 977, str(i % 311))
        counts[item.b] = counts.get(item.b, 0) + item.key()
        heapq.heappush(heap, (item.a, i, item))
        if len(heap) > 500:
            out += heapq.heappop(heap)[0]
    return out + len(sorted(counts.items()))


def probe() -> float:
    """Host seconds the fixed work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Clock:
    """Times calls in host seconds and in reference seconds, running a
    probe after each call; a call is scaled by the probes on either side
    of it."""

    def __init__(self):
        for _ in range(3):      # the first calls in a process run cold
            probe()
        self._last = probe()

    def time(self, fn, *args):
        """``fn(*args)``, its host seconds and its reference seconds."""
        t0 = time.perf_counter()
        result = fn(*args)
        host_s = time.perf_counter() - t0
        after = probe()
        ref_s = host_s * 2 * PROBE_S / (self._last + after)
        self._last = after
        return result, host_s, ref_s
