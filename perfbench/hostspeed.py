"""Host-speed calibration for the end-to-end host times.

On a shared host, neighbouring tenants slow every Python process down,
by 10-20% averaged over a second and by far more for tenths of a
second; a pass of a workload can read 30-60% slower than the same pass
a minute later.  :class:`SpeedProbe` times a short fixed pure-Python loop
that uses no simulator code, so its duration tracks only how fast the
host runs Python right now.  While a measurement runs,
:class:`SpeedSampler` runs the probe every :data:`INTERVAL_S` seconds
from a timer signal, and the benchmark reports every host time rescaled
to the speed at which the loop takes :data:`REFERENCE_S` seconds::

    reported = measured * REFERENCE_S / mean probe seconds during the measurement

Time spent inside the probe is taken out of every measurement (see
:meth:`SpeedSampler.clock`).  The probe runs no simulator code, so a
change to the simulator moves it only through the cache contents it
leaves behind: a real speed-up or slow-down shows in full.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import time
from array import array
from typing import List

#: 8-byte cells in the probe's pool, and loop steps per call
POOL_SIZE = 4_000_000
ITERATIONS = 3_000
#: the probe's duration on the host the bounds were set on, when quiet;
#: valid only for the two constants above
REFERENCE_S = 0.0021
#: host seconds between two samples while a measurement runs
INTERVAL_S = 0.05


class _Accumulator:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def touch(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFFF
        return self.value


class SpeedProbe:
    """A fixed loop of method calls, random reads and writes over a pool
    of 32 MB and heap pushes, the operations the simulator's hot paths are
    made of.  Calling the probe returns the host seconds one loop took.

    The pool is larger than the caches, so the probe slows down with
    memory contention as the simulator does: on the benchmark's host a
    pool that fit in cache slowed down more than the workloads under
    load and over-corrected them, by up to 7% a run.  The pool is one
    flat array, which the cyclic garbage collector never scans, and the
    loop allocates no object it tracks, so probing does not change when
    or how long the measured program's collections run.  ``rss_mb`` is
    the resident memory the pool added, which the benchmark takes off
    the process's peak.
    """

    def __init__(self) -> None:
        before = resident_mb()
        self.pool = array("q", range(POOL_SIZE))
        self.rss_mb = max(resident_mb() - before, 0.0)
        self.accumulator = _Accumulator()
        self.heap: List[int] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        pool, accumulator, heap = self.pool, self.accumulator, self.heap
        index, total = 12345, 0
        heap.clear()
        for step in range(ITERATIONS):
            index = (index * 1103515245 + 12345) & 0x7FFFFFFF
            slot = index % POOL_SIZE
            value = pool[slot]
            pool[slot] = (value + step) & 0xFFFFFFF
            total += accumulator.touch(value) + pool[(index >> 7) % POOL_SIZE]
            heapq.heappush(heap, total & 1023)
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - start


class SpeedSampler:
    """Samples host speed with a :class:`SpeedProbe` on a timer while
    active (``with sampler:``), and keeps a clock that stops while the
    probe runs.

    A measurement reads ``mark()`` before and after; ``speed(start,
    end)`` is the mean probe time between the two marks.  Outside a
    ``with`` block (traced runs, ``reference.py``) nothing samples, and
    ``speed`` probes once on demand.
    """

    def __init__(self) -> None:
        self.probe = SpeedProbe()
        self.samples: List[float] = []
        #: host seconds spent inside the probe so far
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(self.probe())
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """Host seconds, less the time spent sampling."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.samples)

    def speed(self, start: int, end: int) -> float:
        """Mean probe seconds between two marks; the nearest sample if
        none fell between them."""
        if end > start:
            return statistics.fmean(self.samples[start:end])
        if self.samples:
            return self.samples[min(start, len(self.samples)) - 1]
        return self.probe()


def rescale(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured while the probe took ``probe_seconds``,
    expressed at the reference host speed."""
    return seconds * REFERENCE_S / probe_seconds



def resident_mb() -> float:
    """This process's resident memory now (0 where ``/proc`` is absent)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
