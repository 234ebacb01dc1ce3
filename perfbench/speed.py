"""Host-speed normalization of the measured times.

The 2-core VM this benchmark was calibrated on runs the same pure-Python
work up to a quarter slower or faster from one window of a few seconds to
the next (other tenants share the physical cores; steal time stays near
zero and there are no hardware counters).  Raw times of identical runs
differ by 20-40%.  So the measured process also times a fixed reference
computation of the same kind as the program's hot paths, every
PROBE_INTERVAL_S while the operations run (from a timer signal, between
bytecodes), and each operation's time is scaled by NOMINAL_REF_S divided by
the mean reference time around it.  The result reads as seconds on the
calibration host at its quiet speed.  Probe time inside an operation is
subtracted from it.

The host's slow and quiet states alternate faster than the probes, so probe
times are bimodal; their mean tracks the share of time spent slow, where a
median jumps between the modes.  The top and bottom tenth are dropped, since
a probe can also absorb a garbage-collector pass.  On the calibration host
the normalized time of the rank-3 catalog repeated within 1% while its raw
time moved by 10%.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# reference time on the calibration host in a quiet window
NOMINAL_REF_S = 0.004
PROBE_INTERVAL_S = 0.25
# probes this close to an operation set its local speed
WINDOW_S = 2.0


def reference_work() -> Fraction:
    """Fixed work like the program's hot paths: Fraction arithmetic and
    small-dict updates.  About 4 ms on the calibration host."""
    s = Fraction(0)
    d: dict = {}
    for i in range(1, 1500):
        s += Fraction(i % 89 + 1, i % 97 + 1)
        d[i & 255] = d.get(i & 255, 0) + i
    return s


def time_reference() -> tuple[float, float]:
    t = perf_counter()
    reference_work()
    return t, perf_counter() - t


def trimmed_mean(values) -> float:
    """Mean without the top and bottom tenth."""
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.mean(ordered[k:len(ordered) - k])


class SpeedProbe:
    """Times `reference_work` on a timer while active; `probes` holds
    (start, duration) pairs."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._previous = None

    def _probe(self, signum=None, frame=None):
        self.probes.append(time_reference())

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def inside(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]."""
        return sum(d for t, d in self.probes if t0 <= t < t1)

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_REF_S over the mean reference time near [t0, t1]."""
        near = [d for t, d in self.probes if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return NOMINAL_REF_S / trimmed_mean(near)

    def overall_factor(self) -> float:
        return NOMINAL_REF_S / trimmed_mean(d for _, d in self.probes)
