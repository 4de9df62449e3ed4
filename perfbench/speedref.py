"""The machine's speed, sampled while a repetition runs.

The benchmark runs on shared hosts whose speed for one single-threaded
process drifts, on a 2-core VM by up to 40% over a few minutes, and process
CPU time drifts with wall time.  So repetition times are reported in units of
a fixed reference workload timed during the same repetition: the drift slows
both alike and largely cancels in the ratio.

The reference is made of four parts (:data:`PARTS`), each a kind of work the
program's hot loop does: a periodic 4th-order stencil made of ``np.roll``,
elementwise updates and a banded LAPACK solve, at n = 256, 1024 and 2048,
and a scalar Python loop.  Host slowdowns hit these kinds of work unequally,
so one ``ref`` is the geometric mean of the parts' mean times, which weighs
them equally.  The parts depend on nothing in ``sgnlab``, so no change to the
program moves them.

:meth:`SpeedSampler.sampling` runs the next part in turn every :data:`INTERVAL`
seconds from a ``SIGALRM`` handler, which Python runs in the main thread
between the program's bytecodes; the samples are spread evenly over the
repetition.  :meth:`SpeedSampler.clock` is ``perf_counter`` minus the time
spent in the handler, so intervals measured with it exclude the samples.
Nothing of the program is patched.
"""

from __future__ import annotations

import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

#: seconds between two samples; one sample (one part) takes 0.4-0.9 ms on a
#: 2-core Xeon VM, so sampling takes about 2% of a repetition's time
INTERVAL = 0.04


def _stencil_part(n: int, iterations: int):
    x = np.linspace(-20.0, 20.0, n)
    f0 = 1.0 + 0.05 * np.exp(-(x**2))
    ab = np.vstack([np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0)])

    def part() -> float:
        f = f0.copy()
        for _ in range(iterations):
            d = (8.0 * (np.roll(f, -1) - np.roll(f, 1)) - (np.roll(f, -2) - np.roll(f, 2))) * 0.1
            u = solve_banded((1, 1), ab, f + 0.001 * d)
            f = 0.5 * (f + 0.75 * u) + 0.25
        return float(np.sum(f))

    return part


def _scalar_part() -> float:
    s = 0
    for i in range(10000):
        s += i * 3 % 7
    return float(s)


#: the reference's parts
PARTS = (_stencil_part(256, 6), _stencil_part(1024, 6), _stencil_part(2048, 6), _scalar_part)


class SpeedSampler:
    """Reference samples taken during one block of code."""

    def __init__(self):
        self.samples: list[list[float]] = [[] for _ in PARTS]  # seconds, per part
        self.spent = 0.0  # seconds inside the handler, bookkeeping included
        self._next = 0
        self._busy = False
        for part in PARTS:  # the first calls pay for scipy's lazy set-up
            part()

    def clock(self) -> float:
        """``perf_counter`` without the time spent sampling."""
        return perf_counter() - self.spent

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a late signal while the previous sample runs
            return
        self._busy = True
        t0 = perf_counter()
        i = self._next
        self._next = (i + 1) % len(PARTS)
        PARTS[i]()
        self.samples[i].append(perf_counter() - t0)
        self.spent += perf_counter() - t0
        self._busy = False

    @contextmanager
    def sampling(self):
        """Sample every :data:`INTERVAL` seconds while the block runs; at its end,
        also every part not sampled yet, so that a short block has a
        reference too."""
        for s in self.samples:
            s.clear()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        while not all(self.samples):
            self._sample()

    def ref_s(self) -> float:
        """One ``ref`` for the last sampled block: the geometric mean over the
        parts of each part's mean time.  Means, because a repetition's time is
        the sum of its moments, slow and fast alike."""
        return math.exp(statistics.fmean(math.log(statistics.fmean(s)) for s in self.samples))
