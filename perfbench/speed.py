"""Timings scaled to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by 10-30% over
seconds, with the neighbours' load: the same pass of exact arithmetic took
0.89-1.67 s of CPU time within one minute on a 2-CPU container.  Medians of
raw wall time then differ between runs by more than any regression bound
worth having.

So the benchmark times a fixed interpreter-bound probe (Fraction and integer
arithmetic, independent of copekit) between certifications, at most every
``INTERVAL_S`` of measuring.  Each timing is multiplied by
``REFERENCE_PROBE_S`` over the median of the probes taken from
``WINDOW_S`` before it started to ``WINDOW_S`` after it ended.  A timing
then reads as the time it would take on a machine where the probe takes
``REFERENCE_PROBE_S``, about the probe's median on the 2-CPU container
that froze the baseline.  A window of several probes follows the drift
better than the two probes that bracket a timing, which left long
certifications at the mercy of two instants.  Raw wall times stay in the
``details`` line.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.007
INTERVAL_S = 0.5
WINDOW_S = 2.0
_REPEATS = 5


def _work():
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    total = 0
    for i in range(30000):
        total += i * i % 7
    return acc, total


def probe_seconds() -> float:
    """The probe's duration: the median of a few repeats."""
    durations = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _work()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class SpeedScale:
    """Sets ``scale`` on timed items from the probes around them."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (perf_counter at the end, seconds)
        self._items: list[tuple] = []
        self._probe()

    def _probe(self) -> None:
        seconds = probe_seconds()
        self.probes.append((time.perf_counter(), seconds))

    def add(self, item, start: float, end: float) -> None:
        """Queue ``item``, timed from ``start`` to ``end``; probe if one is due."""
        self._items.append((item, start, end))
        if end - self.probes[-1][0] >= INTERVAL_S:
            self._probe()

    def finish(self) -> None:
        """Probe once more and scale every queued item."""
        self._probe()
        for item, start, end in self._items:
            near = [s for t, s in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
            near = near or [min(self.probes, key=lambda p: abs(p[0] - end))[1]]
            item.scale = REFERENCE_PROBE_S / statistics.median(near)
        self._items = []
