"""Machine-speed meter: a small fixed probe, run on a timer during the timed
phase, that gives the machine's speed at each moment.

The machine this benchmark was defined on (two vCPUs of a shared host) runs
the same code at speeds that drift by 15-30% (interquartile range) over any
window from 2 s to 40 s, so the wall times of whole runs spread as much: the
same qft-5 circuit took 1.3 s in one run and 2.2 s in another. The probe is
fixed work of the kinds charforge does (interpreted Python, many calls on
small numpy arrays, small matrix products, and two sums over a 1 MiB array
for the cache and memory bandwidth that large numpy kernels depend on). Its
working set is small beside the caches and arrays of the code it interrupts.
It never calls the package, so a change to charforge moves the reported
times fully. The sums matter: with the compute parts alone, the probe
over-corrected the large state-vector and sampling kernels of verify-wide,
whose speed drifts less than the interpreter's.

A SIGALRM timer runs the probe every PERIOD_S while operations run. The
handler runs between Python bytecodes, so long numpy calls delay it and are
never interrupted. An operation's latency is its wall time minus the probes
that ran inside it, divided by the median probe time around it over
REFERENCE_S: the time it would take on the machine at reference speed. On
the defining machine, over ten seeds per workload, it brought the
interquartile spread of ops_per_s from 0.05-0.20 (raw wall clock) to
0.02-0.09.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# median probe time on the defining machine (2-vCPU x86, single-thread BLAS)
# when it runs between the benchmark's operations
REFERENCE_S = 0.00066
PERIOD_S = 0.05
# probes this close to an operation's ends also describe its speed
MARGIN_S = 0.1
MIN_SAMPLES = 3

_M = (np.arange(24 * 24, dtype=np.float64).reshape(24, 24) % 7) / 24.0
_SMALL = np.zeros(64, dtype=np.uint8)
_SWEEP = np.ones(1 << 17)          # 1 MiB
_clock = time.perf_counter


def _work() -> None:
    s = 0
    for i in range(2500):
        s += (i * i) % 7
    a = _SMALL.copy()
    for _ in range(40):
        a ^= (a + 1) & 3
    m = _M
    for _ in range(4):
        m = (m @ _M) * 0.04
    _SWEEP.sum()
    _SWEEP.sum()


def probe() -> float:
    """Seconds one probe takes now."""
    t0 = _clock()
    _work()
    return _clock() - t0


def factor_now(n: int = 15) -> float:
    """The machine's current slowness against the reference speed."""
    for _ in range(n):
        _work()
    return statistics.median(probe() for _ in range(n)) / REFERENCE_S


class Meter:
    """Probes every PERIOD_S inside a `with` block; `scaled(t0, t1, wall)`
    turns the wall time of an interval into reference-speed seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._old = None

    def _sample(self, *_):
        t0 = _clock()
        _work()
        self.starts.append(t0)
        self.lengths.append(_clock() - t0)

    def __enter__(self):
        for _ in range(50):
            _work()
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(MIN_SAMPLES):
            self._sample()
        return False

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time spent in probes that started inside [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.lengths[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """Median probe time within MARGIN_S of [t0, t1], widened to at
        least MIN_SAMPLES probes, over the reference."""
        lo = bisect.bisect_left(self.starts, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.starts, t1 + MARGIN_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return statistics.median(self.lengths[lo:hi]) / REFERENCE_S
