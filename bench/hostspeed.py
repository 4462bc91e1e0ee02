"""Wall time rescaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over a few seconds, because other tenants share the cores.  On a 2-vCPU
host, medians of ``shipped`` passes over 20 s windows spread by 38%
(quartile distance over median), so raw wall times of one run are not
comparable with the next.

:class:`HostSpeed` gauges the speed while work runs.  Inside ``with
speed:`` a SIGALRM every ``PERIOD_S`` seconds times :func:`chunk`, a fixed
piece of interpreter work, and :meth:`HostSpeed.sample` takes one more
gauge by hand.  :meth:`HostSpeed.scaled` turns the wall time of an interval
into the time it would take on a host that runs the chunk in exactly
``REF_CHUNK_S``: the interval minus the gauge time spent inside it, times
the mean of ``REF_CHUNK_S / chunk time`` over the gauges around it.  The
mean is the time average of the speed over the interval; the top and
bottom tenth of the gauges are dropped first, because a single gauge can
be hit by an interrupt.  On the host above, rescaling cut the spread of
those windows to 2%, and the rescaled time per ``evaluate`` call of five
``class2_quadrature`` runs agreed within 2.4%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

PERIOD_S = 0.05
REF_CHUNK_S = 1e-3
_WINDOW_S = 0.25  # gauges this close to an interval describe its speed


def chunk() -> float:
    """Fixed interpreter work: float math, calls and dict lookups."""
    acc = 0.0
    scale = {"a": 1.5, "b": 2.5}
    for i in range(6500):
        x = i * 0.001 + scale["a"]
        acc += math.sin(x) * x / (scale["b"] + x)
    return acc


class HostSpeed:
    def __init__(self):
        self.samples = []  # (start, seconds) of each gauge
        self._previous = None

    def sample(self, *_signal_args):
        start = time.perf_counter()
        chunk()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self.samples.clear()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] takes at the reference speed.

        Needs a gauge within _WINDOW_S of the interval; callers take one
        by hand just before and after it."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - _WINDOW_S <= t < end + _WINDOW_S]
        ratios = sorted(REF_CHUNK_S / d for d in near)
        trim = len(ratios) // 10
        return (end - start - inside) * statistics.fmean(ratios[trim : len(ratios) - trim])
