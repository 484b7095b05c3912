"""Host-speed probe: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts: for
seconds to minutes at a time the same code runs up to 1.5 times slower,
process CPU time included, so neither medians nor minima of a 35-second run
can hide a slow spell that covers the whole run. A daemon thread therefore
times a small fixed unit of work every PERIOD_S seconds while the run
measures. The unit is shaped like a sweep layer (gathers and batched 3x3
products on small arrays) plus a pure-Python loop, and is timed in the
thread's own CPU time, so waiting for the GIL or for the core does not count.

`scaled(raw_s, t0, t1)` returns raw_s * REF_UNIT_S / m, where m is the mean
unit time of the samples taken from t0 - PAD_S to t1 + PAD_S. The mean
follows the share of time spent in each speed state the way a long interval's
duration does. REF_UNIT_S is the unit's time on the 2-core x86-64 host this
benchmark was written on, when it ran at full speed, so scaled values are
seconds at that speed. The unit is fixed and calls nothing of rte2d, so a
change to the program moves the scaled times as it moves the raw ones.
"""

import bisect
import math
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
PAD_S = 1.0
REF_UNIT_S = 2.8e-4

_RNG = np.random.default_rng(0)
_A = _RNG.random((64, 3, 3))
_B = _RNG.random((64, 3))
_LAYER = np.arange(0, 64, 2)


def _unit():
    c = np.zeros((64, 3))
    for _ in range(12):
        b = _B[_LAYER] + np.einsum("kij,kj->ki", _A[_LAYER], c[_LAYER])
        c[_LAYER] = np.einsum("kij,kj->ki", _A[_LAYER], b)
    x = 0
    for i in range(1000):
        x += i * i
    return c, x


class SpeedProbe:
    """Samples (time, unit seconds) on a daemon thread between start() and stop()."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def _sample(self):
        c0 = time.thread_time()
        _unit()
        self.samples.append((time.perf_counter(), time.thread_time() - c0))

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def start(self):
        self._sample()
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()

    def unit_s(self, t0, t1):
        """Mean unit time of the samples near [t0, t1] (all samples if none are)."""
        # samples are appended in time order
        lo = bisect.bisect_left(self.samples, (t0 - PAD_S,))
        hi = bisect.bisect_right(self.samples, (t1 + PAD_S, math.inf))
        return statistics.fmean(u for _, u in self.samples[lo:hi] or self.samples)

    def scaled(self, raw_s, t0, t1):
        return raw_s * REF_UNIT_S / self.unit_s(t0, t1)
