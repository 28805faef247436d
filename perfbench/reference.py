"""A reference loop that gauges how fast the machine runs during a run.

On a shared machine the same Python code can run up to twice as slowly
while neighbours are busy, for seconds at a time.  While a workload runs, a
timer signal interrupts it every PERIOD_S seconds and times one short
reference loop; the workload's time divided by the mean loop time is then
much less dependent on that slowdown.  The loop uses only the standard
library (exact fractions, tuples as dict keys), the same kind of work as the
library's inner loops, so no change to ``treewave`` moves it.  The time spent
in the probe is subtracted from the run's time.  Set-up, too short to be
interrupted, is bracketed by timed loops instead.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
# Time of one reference loop on the quiet 2-vCPU machine where this benchmark
# was defined; it converts set-up times measured in loops back to seconds.
NOMINAL_LOOP_S = 0.002
LOOPS_AROUND_SETUP = 8


def reference_loop() -> None:
    step = Fraction(1, 3)
    total = Fraction(0)
    for i in range(300):
        total = (total + step * Fraction(i + 1, 7)) % 13
    table = {}
    for i in range(1500):
        table[(i, i % 7)] = i


def _trimmed_mean(samples: list[float]) -> float:
    """Mean without the slowest tenth (a garbage collection can land in one)."""
    ordered = sorted(samples)
    return statistics.fmean(ordered[: max(1, len(ordered) * 9 // 10)])


def loop_s(loops: int = LOOPS_AROUND_SETUP) -> float:
    """Time of one reference loop now, from ``loops`` timed loops after one
    untimed warm-up loop."""
    reference_loop()
    samples = []
    for _ in range(loops):
        start = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - start)
    return _trimmed_mean(samples)


class SpeedProbe:
    """Context manager timing ``reference_loop`` every PERIOD_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(end - start)
        # the handler's own entry and exit are charged to the probe as well
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_s(self) -> float:
        """Mean time of one reference loop during the run (slowest tenth
        dropped).  A mean, unlike a median, follows a slowdown that lasts for
        only part of the run.  At least one sample is taken, after the run if
        it was shorter than PERIOD_S."""
        if not self.samples:
            self._sample(None, None)
        return _trimmed_mean(self.samples)
