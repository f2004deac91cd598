"""The reference kernel that scales the benchmark's times to one host speed.

The host this benchmark was written on changes speed by up to 2x within
seconds, for minutes at a time, while the work of a run stays the same.  So
every end-to-end time the benchmark reports is scaled: the worker times this
kernel right before and right after each op, and every ``SAMPLE_S`` during
it, and a stretch of ``t`` ms of the op between two kernel passes of mean
``r`` ms counts as ``t * NOMINAL_MS / r`` ms.  ``NOMINAL_MS`` is about the
kernel's median time on that host, so scaled times are close to the times
measured there at its usual speed.

The kernel is pure Python of the kind nodalpic runs (recursion over edge
subsets with union-find, bitmask subsets, dicts of tuples), does not import
nodalpic, and must not change: a change to it changes every scaled figure.
It runs with the garbage collector off, so that the size of the program's
heap does not change the kernel's time.
"""

from __future__ import annotations

import gc
import signal
import time

# a fixed multigraph on 6 vertices: parallel edges, one loop
EDGES = ((0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5), (3, 3))
VERTICES = 6
# Median of timed() over 200 rounds on a 2-core Intel Xeon host with Python
# 3.11.  That host ran at two speeds, about 0.33 ms and 0.55 ms per pass.
NOMINAL_MS = 0.50
# The speed can switch in the middle of a long op: sample it every 50 ms,
# at a cost of about 1% of the op's time.
SAMPLE_S = 0.05


def _forests() -> list[int]:
    counts = [0] * VERTICES
    simple = [(u, v) for u, v in EDGES if u != v]

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def grow(i, parent, k):
        if i == len(simple):
            counts[k] += 1
            return
        grow(i + 1, parent, k)
        u, v = simple[i]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            joined = parent[:]
            joined[ru] = rv
            grow(i + 1, joined, k + 1)

    grow(0, list(range(VERTICES)), 0)
    return counts


def _subsets() -> dict[tuple[int, ...], int]:
    inside = {}
    for mask in range(1, 1 << VERTICES):
        members = tuple(v for v in range(VERTICES) if mask >> v & 1)
        inside[members] = sum(1 for u, v in EDGES if mask >> u & 1 and mask >> v & 1)
    return inside


def kernel() -> int:
    return sum(_forests()) + sum(_subsets().values())


def timed() -> float:
    """Milliseconds of one kernel pass, with the garbage collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def scaled_ms(segments_ms, passes_ms) -> float:
    """Time at the nominal speed of segments that lie between kernel passes.

    ``segments_ms[j]`` lies between ``passes_ms[j]`` and ``passes_ms[j + 1]``.
    """
    return sum(t * NOMINAL_MS * 2 / (passes_ms[j] + passes_ms[j + 1]) for j, t in enumerate(segments_ms))


class Sampler:
    """Times the code in a ``with`` block in segments, with kernel passes between them.

    A SIGALRM timer interrupts the block every ``interval_s`` seconds (never,
    when it is 0), and the handler times one kernel pass.  ``segments_ms``
    holds the block's own time, without the passes, cut at each pass;
    ``passes_ms`` the passes: one fewer than the segments.
    """

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.segments_ms: list[float] = []
        self.passes_ms: list[float] = []
        self._open = False

    def __enter__(self):
        self._start = time.perf_counter()
        self._open = True
        if self.interval_s:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def _sample(self, signum, frame):
        if not self._open:  # the block has ended, or a pass is running
            return
        self._open = False
        self.segments_ms.append((time.perf_counter() - self._start) * 1e3)
        self.passes_ms.append(timed())
        self._start = time.perf_counter()
        self._open = True

    def __exit__(self, *exc):
        self._open = False
        self.segments_ms.append((time.perf_counter() - self._start) * 1e3)
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return False
