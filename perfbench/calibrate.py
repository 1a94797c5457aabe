"""Host-speed calibration, interleaved with the timed work.

The benchmark runs on a few vCPUs of a shared host whose single-thread
speed swings by up to 1.6x within tens of seconds: on a 2-vCPU Xeon VM a
fixed arithmetic loop timed in 30 ms slices read from 23 to 48 ms, and
``theorem-accept`` passes over the same inputs took 6.6 to 9.9 s.  Process
CPU time swung just as much as wall time (no steal was accounted), so
neither a longer run nor a CPU clock steadies the figures.

What does: after every verdict a fixed interpreter loop (one "unit") is run
for about a tenth of the time since the last sample, and timed apart from
the work.  The units sample the host's speed in the same stretches of time
as the work, weighted as the work is, so the work's time divided by the
units' mean time barely moves when the host speeds up or slows down, while
it moves in full with the cost of the program's own work.  On that VM it
took passes that spread by +-20% down to +-5%.  Times are reported as
*reference* seconds: rescaled to a host on which one unit takes
``REF_UNIT_S``, about what it takes on that VM.  The wall-clock figures are
reported next to them.
"""

from __future__ import annotations

import time

REF_UNIT_S = 50e-6
# Calibration time per second of measured work.
SHARE = 0.1


def unit() -> int:
    """A fixed mix of what the recognizers spend their time on: integer and
    bit operations, set and dict updates, calls."""
    seen = set()
    counts = {}
    acc = 0
    x = 0x9E3779B9
    for _ in range(48):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        m = x & 0xFFF
        acc += (m & (m - 1)).bit_count() + len(bin(m >> 6))
        seen.add(m >> 4)
        counts[m & 15] = counts.get(m & 15, 0) + 1
    return acc + len(seen) + len(counts)


class Calibrator:
    """Runs units after each stretch of work and keeps their times.

    ``start`` marks the beginning of the work; each ``after`` call samples
    for SHARE of the time since the last sample, so every stretch of the
    pass, the work between verdicts included, is weighted by its length.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.units = 0
        self.seconds = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self.units = 0
        self.seconds = 0.0
        self._mark = self.clock()

    def after(self, units: int = 0) -> None:
        """Sample for ``units`` units, or for SHARE of the time since the
        last sample ended."""
        clock = self.clock
        t0 = clock()
        k = units or max(1, round(SHARE * (t0 - self._mark) / REF_UNIT_S))
        for _ in range(k):
            unit()
        self._mark = clock()
        self.seconds += self._mark - t0
        self.units += k

    def scale(self) -> float:
        """Factor from measured to reference seconds for the samples so far."""
        return REF_UNIT_S * self.units / self.seconds
