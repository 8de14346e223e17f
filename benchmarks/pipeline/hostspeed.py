"""Host-speed correction for timings taken on a shared host.

On a shared host the CPU speed a process gets moves by 30-50 %, as
other tenants come and go; a state can last a tenth of a second or
minutes.  A :class:`HostClock` measures that speed while the benchmark
runs: a ``SIGALRM`` every :data:`TICK_S` seconds runs a fixed piece of
Python (:func:`reference_loop`) in the measured thread and records the
thread CPU time it took.  A timing is then corrected to the speed the
host has when it is quiet::

    corrected = (wall - reference loop time inside it) * mean(NOMINAL_REF_S / ref)

where the mean runs over the reference samples taken during the interval
(and one tick either side, so an interval shorter than a tick still has
one).  Taking the mean of the speeds, not of the times, weights a fast
and a slow stretch by the time each lasted.  The reference is timed in
thread CPU time, so waiting for the lock, for I/O or for another process
on the same CPU does not count as a slow host; only the host's own
slowdown does.  On a quiet host the correction is close to 1.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

#: Thread CPU seconds the reference loop takes when the host is quiet:
#: the fast state of a 2-vCPU Xeon KVM guest under Python 3.11.
NOMINAL_REF_S = 180e-6
#: Seconds between reference samples (a sample costs 0.7-1.2 % of it).
TICK_S = 0.05


def reference_loop() -> str:
    """Python arithmetic, then building and serializing small objects.

    The pipeline does both kinds of work.  Timed next to its operations
    on a shared host, an arithmetic loop alone slowed less than they did;
    with the objects it slows about as much.
    """
    x = 0
    for j in range(1000):
        x += j * j
    return json.dumps({j: [j, x] for j in range(250)})


class HostClock:
    """Reference samples taken on a timer while the clock is running."""

    def __init__(self) -> None:
        #: Monotonic time at the end of each sample.
        self.ends: list[float] = []
        #: Host speed at each sample, relative to a quiet host.
        self.speeds: list[float] = []
        #: Wall seconds of each sample, taken out of the timed intervals.
        self.wall: list[float] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        w0 = time.monotonic()
        # A first, untimed pass warms the caches the interrupted code (or
        # another process on this CPU) left cold.
        reference_loop()
        c0 = time.thread_time()
        reference_loop()
        c1, w1 = time.thread_time(), time.monotonic()
        self.ends.append(w1)
        self.speeds.append(NOMINAL_REF_S / (c1 - c0))
        self.wall.append(w1 - w0)

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return (bisect.bisect_left(self.ends, t0),
                bisect.bisect_right(self.ends, t1))

    def speed(self, t0: float, t1: float) -> float:
        """The host's mean speed over ``[t0, t1]``, relative to quiet."""
        lo, hi = self._window(t0 - TICK_S, t1 + TICK_S)
        if lo >= hi:
            return 1.0
        return statistics.fmean(self.speeds[lo:hi])

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than quiet the host ran over ``[t0, t1]``."""
        return 1.0 / self.speed(t0, t1)

    def seconds(self, t0: float, t1: float) -> float:
        """The corrected length of the interval ``[t0, t1]``."""
        lo, hi = self._window(t0, t1)
        own = sum(self.wall[lo:hi])
        return (t1 - t0 - own) * self.speed(t0, t1)
