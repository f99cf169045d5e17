"""How fast the machine is running, sampled while a workload runs.

The benchmark shares its host with other tenants, and the speed of a vCPU
drifts between regimes about 1.5x apart that last from seconds to minutes.
A wall-clock median from one run then says as much about the neighbours as
about rulkit. So every SAMPLE_INTERVAL_S of wall time a SIGALRM handler
times one run of a fixed reference kernel, which calls no rulkit code. The
slowness over an interval is the median reference time measured inside it
divided by REF_NOMINAL_S, and a calibrated duration is the wall-clock
duration, minus the handler's own time, divided by that slowness: seconds
at the speed at which the reference kernel takes REF_NOMINAL_S.

The handler only runs between Python bytecodes of the main thread and
changes no state of the program under test, so results are unchanged.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.05
REF_NOMINAL_S = 0.0003
MIN_READINGS = 5

_A = np.random.default_rng(0).uniform(-1.0, 1.0, (64, 64))
_B = _A.T.copy()
_SMALL = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 8))
_LINE = " ".join(f"{v:.4f}" for v in np.random.default_rng(2).uniform(0, 100, 26))


def reference_kernel() -> None:
    """Text parsing, small-array calls and 64x64 products in equal parts.

    The mix of rulkit's own parsing, preprocessing and model code.
    """
    rows = []
    for _ in range(20):
        rows.append(tuple(float(t) for t in _LINE.split()))
    x = _SMALL
    for _ in range(30):
        x = np.tanh(x * 0.5 + _SMALL)
    z = _A
    for _ in range(8):
        z = np.tanh(z @ _B) * 0.5 + _A


class SpeedSampler:
    """Context manager that samples the reference kernel on a wall-clock timer."""

    def __init__(self):
        self.times: list[float] = []
        self.readings: list[float] = []
        self.busy = 0.0  # total seconds spent in the handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.readings.append(elapsed)
        self.busy += elapsed

    def __enter__(self) -> "SpeedSampler":
        reference_kernel()  # first-call costs stay out of the readings
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        """A start point for interval(): (wall clock, handler time so far)."""
        return time.perf_counter(), self.busy

    def interval(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, handler seconds) of the interval since mark."""
        return mark[0], time.perf_counter(), self.busy - mark[1]

    def slowness(self, start: float, end: float) -> float:
        """Median reference time over [start, end] relative to REF_NOMINAL_S.

        An interval too short to hold MIN_READINGS readings uses the
        MIN_READINGS readings nearest to its middle.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_READINGS:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_READINGS // 2, len(self.times) - MIN_READINGS))
            hi = lo + MIN_READINGS
        return statistics.median(self.readings[lo:hi]) / REF_NOMINAL_S

    def calibrated(self, interval: tuple[float, float, float]) -> float:
        start, end, busy = interval
        return (end - start - busy) / self.slowness(start, end)
