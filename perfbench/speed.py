"""Time at a reference CPU speed.

On a shared host the same pass can run 1.5 to 2.4 times slower for tens of
seconds at a time, because of other tenants, so raw seconds from two runs
are not comparable.  A SpeedProbe measures how fast the machine is while
the benchmark runs: every PERIOD_S a SIGALRM handler times a fixed
pure-Python snippet that does not use amecode.  Each stretch of time
between two probes is converted to reference seconds with the speed the
probes around it saw:

    reference seconds = raw seconds * REFERENCE_NS / snippet time

A reference second is the time in which the snippet runs
1e9 / REFERENCE_NS times, so on a machine as fast as the reference the two
agree.  The probe's own time is left out of both.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
REFERENCE_NS = 25_000  # the snippet's time at the reference speed
WINDOW = 2             # probes on each side whose median gives a stretch's speed


def reference_snippet():
    """Fixed work of the kind amecode does: small tuples, dict inserts and
    big-integer arithmetic.  Its cost must never change."""
    acc = {}
    x = 12345678901234567
    for i in range(40):
        acc[(i, x % 97, i * 3)] = x
        x = (x * 31 + i) // 3 + (x & 1023)
    return acc


class SpeedProbe:
    """Samples the machine's speed from start() to stop()."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []  # (start ns, snippet ns)
        self._previous = None
        for _ in range(50):  # warm the snippet's code and allocator paths
            reference_snippet()

    def _tick(self, signum, frame):
        t0 = time.monotonic_ns()
        reference_snippet()
        self.samples.append((t0, time.monotonic_ns() - t0))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def measure(self, t0: int, t1: int) -> tuple[float, float]:
        """(raw seconds, reference seconds) of [t0, t1] (monotonic ns),
        both without the probe's own time.  Time before the first sample
        takes the speed of the first samples."""
        s = self.samples
        durations = [d for _, d in s]
        raw = ref = 0.0
        cursor = t0
        for k, (start, d) in enumerate(s + [(t1, 0)]):
            end = min(max(start, t0), t1)
            if end > cursor:
                near = durations[max(0, k - WINDOW - 1):k + WINDOW]
                span = end - cursor
                raw += span
                ref += span * REFERENCE_NS / statistics.median(near)
            cursor = max(cursor, min(start + d, t1))
        return raw / 1e9, ref / 1e9
