"""Host-speed sampling, so that times can be read at one reference speed.

The benchmark's host is a shared VM whose CPU speed drifts: a fixed
pure-Python loop ran up to 1.4x slower from one minute to the next, and
the same drift moved whole passes of a workload.  Taking the fastest pass
does not remove it, because the slow stretches last longer than a pass.

``SpeedSampler`` measures the drift while the workload runs.  A
``SIGALRM`` interval timer interrupts the single benchmark thread every
``PERIOD_S`` seconds; the handler times one fixed reference kernel (exact
integer elimination in pure Python, like the library's own hot loops) and
records the sample.  The handler's own time is kept out of every
measurement by ``clock()``, a ``perf_counter`` that stops while the
handler runs.

``normalize(t0, t1, dt)`` turns a duration measured between two
``perf_counter`` readings into seconds at the reference speed:
``dt * REFERENCE_SAMPLE_S / m``, where ``m`` is the mean sample taken
within ``WINDOW_S`` of the interval.  Samples are evenly spaced in time, so
their mean follows the time-weighted slowness of the host over the
interval; a median would pick one of the fast and slow stretches that
alternate within a pass, and in a recording it left three times the spread
of the mean.  A program that does the same work
reads the same time whatever the host's speed; a program that does more
work reads more time.  The kernel does not use the library, so a change to
the library cannot change the yardstick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05  # one sample every 50 ms: about 2% of the run
WINDOW_S = 0.5  # samples this close to an interval are its speed
REFERENCE_SAMPLE_S = 0.001  # sample time that counts as reference speed
KERNEL_REPEATS = 20

_MATRIX = [[(7 * i + 3 * j * j + 1) % 11 - 5 for j in range(9)] for i in range(9)]


def reference_kernel():
    """Fraction-free (Bareiss) elimination of a fixed 9x9 integer matrix."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        p = next((r for r in range(k, n) if a[r][k]), None)
        if p is None:
            continue
        a[k], a[p] = a[p], a[k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * ak[k] - ai[k] * ak[j]) // prev
            ai[k] = 0
        prev = ak[k]
    return a[n - 1][n - 1]


class SpeedSampler:
    """Samples host speed on a timer while it is installed."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.samples = []  # seconds the kernel took
        self.spent = 0.0  # seconds spent in the handler
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        for _ in range(KERNEL_REPEATS):
            reference_kernel()
        t1 = perf_counter()
        self.starts.append(t0)
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def clock(self) -> float:
        """``perf_counter`` without the time spent sampling."""
        return perf_counter() - self.spent

    def speed(self, t0: float, t1: float) -> float:
        """Mean sample time within ``WINDOW_S`` of ``[t0, t1]``."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        window = self.samples[lo:hi]
        if not window:  # the run ended before the first sample
            window = self.samples or [REFERENCE_SAMPLE_S]
        return statistics.fmean(window)

    def normalize(self, t0: float, t1: float, dt: float) -> float:
        """``dt``, measured between ``perf_counter`` readings ``t0`` and
        ``t1``, in seconds at the reference speed."""
        return dt * REFERENCE_SAMPLE_S / self.speed(t0, t1)
