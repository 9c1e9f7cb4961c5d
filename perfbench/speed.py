"""Machine-speed probe that puts timings from a shared host on one scale.

On a host shared with other tenants the same CPU-bound operation can take
1.4-1.8 times longer in one minute than in the next, and such phases last
from seconds to longer than a whole run. A fixed probe kernel (a Python loop
plus small NumPy operations, owned by the benchmark and independent of the
library) is therefore timed before, after and every SAMPLE_INTERVAL_S
during each measured operation. An operation's normalized time is its wall
time, less the probes run inside it, times the mean probe speed over the
operation relative to a nominal probe time:

    normalized = (wall - probe time inside) * NOMINAL_PROBE_S * mean(1 / p)

that is, the time the operation would take on a machine that runs the probe
in NOMINAL_PROBE_S. The probe speed is averaged as 1/p because work done is
speed integrated over time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_PROBE_S = 0.004
SAMPLE_INTERVAL_S = 0.5
_EDGE_SAMPLES = 3  # probes before and after an operation


_PROBE_INPUT = np.random.default_rng(0).random((64, 64))


def probe() -> float:
    """Seconds of one run of the fixed probe kernel (about 4 ms): the mix
    of interpreter loops, dict updates, FFTs and a BLAS product that the
    library's own operations spend their time in."""
    clock = time.perf_counter
    t0 = clock()
    total = 0
    for i in range(20000):
        total += i * i
    a = _PROBE_INPUT
    for _ in range(6):
        a = np.fft.irfft2(np.fft.rfft2(a), s=a.shape)
        b = a @ a.T
        a = b / b.max()
    counts = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
    return clock() - t0


class SpeedSampler:
    """Probe samples around and during one operation."""

    def __init__(self):
        self.samples: list = []
        self.inside = 0.0  # probe seconds spent inside the operation
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(probe())
        finally:
            self.inside += time.perf_counter() - t0
            self._busy = False

    def __enter__(self):
        self.samples = [probe() for _ in range(_EDGE_SAMPLES)]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [probe() for _ in range(_EDGE_SAMPLES)]
        return False

    @property
    def factor(self) -> float:
        """Mean probe speed relative to nominal: NOMINAL_PROBE_S * mean(1/p)."""
        return NOMINAL_PROBE_S * float(np.mean(1.0 / np.asarray(self.samples)))

    def normalize(self, wall: float) -> float:
        return (wall - self.inside) * self.factor
