"""Host-speed calibration: a fixed pure-Python probe timed between verdicts.

The benchmark runs on shared hosts whose speed swings by up to 1.7x for
seconds to minutes at a time.  The same verdict on the same inputs then
takes that much longer, in wall time and CPU time alike, so raw times of
one program spread across runs by more than any useful bound.

A fixed probe, timed between verdicts, measures the host's speed at that
moment.  A verdict's scaled time is its measured time multiplied by
REFERENCE_PROBE_S over the mean time of the probes nearest to it: the
time it would have taken on a host where the probe takes REFERENCE_PROBE_S.
A slower program lengthens the verdict and not the probe, so it passes
through; a slower host lengthens both, and cancels.  Each verdict is scaled
by the probes around it, so a verdict that is slow on its own stays slow.

The probe is interpreter-bound work of the kind loccon does: small objects
with slots, modular integer arithmetic, method calls and dict stores.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left

REFERENCE_PROBE_S = 1e-3  # about the probe's time on an idle 2-core x86_64
PROBE_EVERY_S = 0.05      # at most one probe per this much verdict time
NEAREST = 4               # probes taken on each side of a timed interval
PROBE_STEPS = 1400


class _Cell:
    __slots__ = ("v", "m")

    def __init__(self, v, m):
        self.v = v
        self.m = m

    def mul(self, other):
        return _Cell(self.v * other.v % self.m, self.m)

    def add(self, other):
        return _Cell((self.v + other.v) % self.m, self.m)


def probe():
    """The fixed calibration work; returns a value so nothing is elided."""
    m = 5 ** 12
    a, b = _Cell(7, m), _Cell(11, m)
    seen = {}
    for i in range(PROBE_STEPS):
        a = a.mul(b).add(_Cell(i, m))
        seen[i & 31] = a.v
    return a.v + len(seen)


class HostClock:
    """Probe times along a run, and the scaling they give to intervals."""

    def __init__(self):
        self.starts = []
        self.times = []
        self._next = 0.0
        for _ in range(20):  # warm the probe's code and allocator
            probe()

    def _probe(self):
        # a collection during the probe would charge the program's heap
        # to the host, so the collector waits until the probe is done
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self._next = t1 + PROBE_EVERY_S

    def tick(self):
        """Probe if the last probe ended PROBE_EVERY_S or more ago."""
        if time.perf_counter() >= self._next:
            self._probe()

    def burst(self):
        """NEAREST probes now, to close or open a long interval."""
        for _ in range(NEAREST):
            self._probe()

    def factor(self, t0, t1):
        """REFERENCE_PROBE_S over the mean of the NEAREST probes before t0
        and the NEAREST probes after t1 (and any in between).  The mean,
        not the median: a verdict lasts through the slow stretches of the
        host as well as the fast ones."""
        lo = max(bisect_left(self.starts, t0) - NEAREST, 0)
        hi = bisect_left(self.starts, t1) + NEAREST
        window = self.times[lo:hi]
        if not window:
            raise RuntimeError("no host probe near the interval")
        return REFERENCE_PROBE_S / statistics.fmean(window)

    def scaled(self, t0, t1):
        """The interval's length at reference host speed."""
        return (t1 - t0) * self.factor(t0, t1)

    def summary(self):
        ms = sorted(t * 1e3 for t in self.times)
        q = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
        return {"probes": len(ms), "reference_ms": REFERENCE_PROBE_S * 1e3,
                "probe_median_ms": statistics.median(ms),
                "probe_p10_ms": q[0], "probe_p90_ms": q[-1]}
