"""Express measured times at a reference CPU speed.

The machines this benchmark runs on share their cores, and the speed one
process gets drifts by 10-20% over seconds to minutes. That drift is as
large as the changes the benchmark has to detect. So while a run
measures, a SIGALRM handler times a fixed pure-Python computation,
`reference()`, every 50 ms. Each measured interval is then scaled by
NOMINAL_S / (mean duration of `reference()` over the samples taken
during that interval, or over the MIN_SAMPLES nearest to it when it is
short). The result is in "reference seconds": what the time would have
been had `reference()` taken NOMINAL_S throughout. At the typical speed
of the machine the benchmark was written on, reference seconds are about
wall seconds.

The handler's own time is kept out of every measurement: the clocks the
ops read are `Sampler.work_clock`, which stops while the handler runs.
The reference shares no code with the program under test, and it runs
with the garbage collector held off, so a program that keeps more
objects alive cannot make it slower through collections of its heap.
What the two still share is the CPU cache; the reference touches a few
kilobytes, so a program with a larger working set costs it at most a
few microseconds of misses per 0.9 ms sample. bench.py also reports the
raw work-clock figures, so a gap between raw and reference figures shows.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import signal
import statistics
import time
from contextlib import contextmanager

NOMINAL_S = 0.0009
INTERVAL_S = 0.05
MIN_SAMPLES = 10


# The reference is a small subgraph search (triangles through paths in a
# fixed G(60, 0.12)) because its speed tracks asymcolor's own set, tuple
# and generator work: measured under load, both slowed down alike, where
# asymcolor slowed down 1.35 times as much as a plain integer loop.
_REF_VERTICES = 60
_ref_rng = random.Random(11)
_REF_ADJ = [set() for _ in range(_REF_VERTICES)]
for _u in range(_REF_VERTICES):
    for _v in range(_u + 1, _REF_VERTICES):
        if _ref_rng.random() < 0.12:
            _REF_ADJ[_u].add(_v)
            _REF_ADJ[_v].add(_u)


def _paths(path: list[int], depth: int):
    if depth == 0:
        yield tuple(path)
        return
    for w in _REF_ADJ[path[-1]]:
        if w not in path:
            path.append(w)
            yield from _paths(path, depth - 1)
            path.pop()


def reference() -> int:
    """Count the triangles through every third vertex of the fixed graph."""
    triangles = set()
    for v in range(0, _REF_VERTICES, 3):
        for p in _paths([v], 2):
            if p[0] in _REF_ADJ[p[-1]]:
                triangles.add(frozenset((frozenset(p[:2]), frozenset(p[1:]), frozenset((p[0], p[2])))))
    return len(triangles)


def time_reference() -> float:
    """Seconds one reference() takes, with no garbage collection inside."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def reference_factor(samples: list[float]) -> float:
    """Multiply a measured time by this to get reference seconds."""
    return NOMINAL_S / statistics.fmean(samples)


class Sampler:
    """Times reference() from a timer signal while running().

    Samples are stamped on the work clock, so any interval measured on
    that clock can be scaled by the samples taken during it.
    """

    def __init__(self):
        self.stamps: list[float] = []  # work clock at each sample
        self.samples: list[float] = []  # duration of each sample
        self.busy = 0.0  # seconds spent in the handler so far

    def work_clock(self) -> float:
        """perf_counter without the time spent in the handler."""
        return time.perf_counter() - self.busy

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        try:
            sample = time_reference()
        except RecursionError:
            # the interrupted code is near the recursion limit; do not
            # raise in its place, skip this sample
            sample = None
        if sample is not None:
            self.stamps.append(t0 - self.busy)
            self.samples.append(sample)
        self.busy += time.perf_counter() - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self.samples) < MIN_SAMPLES:  # a run too short for the timer
            self.stamps.append(self.work_clock())
            self.samples.append(time_reference())

    def factor(self, start: float, end: float) -> float:
        """Reference factor for the work-clock interval [start, end]: the
        samples taken in it, widened to the MIN_SAMPLES nearest in time.
        Call it after running() has ended."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < MIN_SAMPLES:
            before = start - self.stamps[lo - 1] if lo > 0 else math.inf
            after = self.stamps[hi] - end if hi < len(self.stamps) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return reference_factor(self.samples[lo:hi])

    def ref_seconds(self, start: float, end: float) -> float:
        """The work-clock interval [start, end] in reference seconds."""
        return (end - start) * self.factor(start, end)
