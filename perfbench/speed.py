"""Reference-speed time: measured seconds scaled by the machine's speed meanwhile.

The machine this benchmark was built on shares its cores with other tenants,
and its speed flips between states on a sub-second scale: a fixed 20 ms loop
took either about 21 ms or about 35 ms depending on the moment, and wall
times of identical 3-second suite passes varied by 14 % (coefficient of
variation).  While :class:`SpeedSampler` is active, a timer signal every
PERIOD_S interrupts the work and times a fixed float loop (about 1 ms; no
hypmid code).  A unit of work's seconds, less the time spent in the handler,
multiplied by ``REF_KERNEL_S / mean kernel time`` over the samples around the
unit, is its reference-speed time: the time at the speed where the loop
takes REF_KERNEL_S.  On those identical suite passes this cut the variation
to 2.4 %.  A change to hypmid does not change the loop, so it moves
reference-speed times as it moves wall times.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array

REF_KERNEL_S = 1.0e-3  # nominal kernel time; sets the scale of reference-speed seconds
PERIOD_S = 0.1  # wall time between kernel samples
WINDOW_S = 1.0  # samples this close to a unit of work set its factor


def kernel(n: int = 4000) -> float:
    """Float math only: it allocates no containers, so no collection runs in it."""
    acc = 0.0
    for i in range(n):
        c, s = math.cos(i), math.sin(i)
        acc += c * s / (1.0 + math.hypot(c, s))
    return acc


class SpeedSampler:
    """Context manager that samples kernel speed from a SIGALRM handler.

    ``stolen`` is the total time spent in the handler, for callers to take
    out of what they measured.
    """

    def __init__(self):
        self.at = array("d")
        self.seconds = array("d")
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.seconds.append(t1 - t0)
        self.stolen += t1 - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)  # a run shorter than PERIOD_S still gets a sample

    def factor(self, t0: float, t1: float) -> float:
        """REF_KERNEL_S / mean kernel time of the samples within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < 3:  # too short a run for a window: use every sample
            lo, hi = 0, len(self.at)
        return REF_KERNEL_S / statistics.fmean(self.seconds[lo:hi])

    def mean_factor(self) -> float:
        return REF_KERNEL_S / statistics.fmean(self.seconds)
