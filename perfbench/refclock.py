"""Reference clock: the machine's current speed, from a fixed kernel that never changes.

The benchmark's host can change speed by 1.5x within seconds and drift over
tens of minutes, for reasons outside the program (shared cores).  While a
request runs, ``Speed`` times the kernel below every ``PERIOD_S`` of wall
time, from a timer signal, and once just before and just after.  The
request's time is then reported in *reference seconds*: its wall time, less
the time the kernel took, scaled by ``REF_S / mean(kernel times)``.  That
is the time it would take on a machine on which the kernel takes ``REF_S``.
The kernel belongs to the benchmark and imports nothing from ``satcycles``,
so a change to the program moves the request times and never the reference.
The mean, not the median, of the samples is used: the request's time is
the integral of the host's slowness over it, which the mean estimates.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# The kernel's typical time on the 2-vCPU host where the bounds were set;
# only the ratio of two runs on one machine is meaningful.
REF_S = 0.002
# One kernel run every PERIOD_S of wall time costs about 4 % of it.
PERIOD_S = 0.05
_STEPS = np.arange(1, 65, dtype=float)


def kernel(n=40):
    """Scan n small grids: numpy arithmetic over 64 points, then a Python
    loop that reads each point as a float, compares signs and evaluates
    ``math`` functions at the hits -- the pattern of the program's contact
    and root scans, written independently of it."""
    hits = 0
    for j in range(n):
        tau = 0.01 * j
        ts = tau + 0.0245 * _STEPS
        us = np.exp(-0.3 * (ts - tau)) * (1.0 + 0.1 * j) - 0.8 * np.cos(ts)
        dus = -0.3 * us + np.sin(ts)
        found = []
        u_l, du_l = 0.2, 0.0
        for i in range(len(ts)):
            t_r, u_r, du_r = float(ts[i]), float(us[i]), float(dus[i])
            if (du_l > 0.0) != (du_r > 0.0) or (u_l - 0.5) * (u_r - 0.5) < 0.0:
                found.append((t_r, u_r, math.exp(-0.3 * t_r) * math.sin(t_r)))
            u_l, du_l = u_r, du_r
        hits += len(found)
    return hits


def kernel_s():
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speed:
    """Samples the kernel while the ``with`` body runs.

    ``paused_s`` is the time the samples took inside the body, to subtract
    from the body's wall time; ``scale`` turns seconds into reference seconds.
    """

    def __enter__(self):
        self.samples = [kernel_s()]
        self.paused_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_s())
        self.scale = REF_S / statistics.fmean(self.samples)
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_s())
        self.paused_s += time.perf_counter() - start
