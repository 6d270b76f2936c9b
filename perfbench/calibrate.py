"""A fixed mix of work, independent of segpc, timed to gauge the host's speed.

The benchmark runs on a few cores of a shared host.  There the same code
runs up to ~60% slower while other tenants are busy, for seconds to
minutes at a time, so wall times of one program differ by more than 25%
between runs.  Process CPU time moves with wall time (the slowdown is in
the core, not descheduling), so it does not help.

:class:`Gauge` times one pass between units, between the stages of a unit
and between the chunks of a surrogate Monte Carlo, at most one every
``MIN_GAP_S``.  A pass has a core part (a pure-Python loop, small numpy
ufunc calls, sparse LU solves and a pivoted dense QR, ~32 ms on a quiet
host), the kinds of work Newton solves and fits do.  For a workload with a
``memory_share`` it also has a memory part, timed apart: one streaming pass
over a 36 MB array into fresh arrays (~24 ms).  Arrays over 32 MB, glibc's
largest mmap threshold, are mapped anew on every allocation, so their cost
is page faults and memory traffic; a chaos basis evaluated at 10^5 points
makes such arrays, and busy neighbours slow it as they slow the memory
part, not the core part.
A wall time is reported as

    wall * ((1 - share) * NOMINAL_CORE_S / core + share * NOMINAL_MEMORY_S / memory)

with ``core`` and ``memory`` the median part times of the passes taken
around it: seconds on a host that runs the parts in their nominal times.
The time spent in passes is taken out of the time being measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

#: the parts of a pass on this benchmark's reference host (2-core Xeon VM, quiet)
NOMINAL_CORE_S = 0.032
NOMINAL_MEMORY_S = 0.024
#: a pause within this many wall seconds of the last pass does nothing, so
#: passes sample the run evenly in time and cost ~7-10% of it
MIN_GAP_S = 0.5
#: 36 MB: above glibc's largest mmap threshold (32 MB)
MEMORY_DOUBLES = 4_500_000

_rng = np.random.default_rng(12345)
_vec = _rng.standard_normal(50)
_tri = scipy.sparse.diags(
    [np.full(59, -1.0), np.full(60, 4.0), np.full(59, -1.0)], [-1, 0, 1], format="csc"
)
_rhs = np.ones(60)
_tall = _rng.standard_normal((2000, 120))


def core_pass():
    """Run the core part once; return its wall time in seconds."""
    start = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i
    x = _vec
    for _ in range(4400):
        x = np.tanh(x * 0.5 + 0.1)
    for _ in range(170):
        scipy.sparse.linalg.splu(_tri).solve(_rhs)
    scipy.linalg.qr(_tall, pivoting=True, mode="r")
    return time.perf_counter() - start


def memory_pass(stream):
    """Run the memory part once over ``stream``; return its wall time in seconds."""
    start = time.perf_counter()
    float((stream * 1.5 + stream).sum())
    return time.perf_counter() - start


class Gauge:
    """Pass times taken through a run, and the wall time they took.

    ``memory_share`` is the share of the measured work that behaves like the
    memory part; at 0 the memory part is not run (nor its array allocated).
    """

    def __init__(self, memory_share):
        self.memory_share = memory_share
        self._stream = (np.random.default_rng(1).standard_normal(MEMORY_DOUBLES)
                        if memory_share else None)
        self.samples = []
        self.spent = 0.0
        self._last = float("-inf")

    def pause(self, passes=1):
        """Time ``passes`` passes, unless the last ended under ``MIN_GAP_S`` ago.

        Callers subtract ``spent`` from their own timings.
        """
        start = time.perf_counter()
        if start - self._last < MIN_GAP_S:
            return
        for _ in range(passes):
            memory = NOMINAL_MEMORY_S if self._stream is None else memory_pass(self._stream)
            self.samples.append((core_pass(), memory))
        self._last = time.perf_counter()
        self.spent += self._last - start

    def scale(self, first=0, last=None):
        """Factor taking wall seconds to reference-host seconds over passes ``first..last``."""
        window = self.samples[first:None if last is None else last + 1]
        core = statistics.median(c for c, _ in window)
        memory = statistics.median(m for _, m in window)
        share = self.memory_share
        return (1.0 - share) * NOMINAL_CORE_S / core + share * NOMINAL_MEMORY_S / memory


def no_pause():
    """Stand-in for ``Gauge.pause`` where nothing is being measured."""
