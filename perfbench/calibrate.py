"""A fixed loop that measures how fast the machine runs at the moment.

The benchmark shares a host whose speed drifts by tens of percent over
minutes as other tenants come and go, and every job slows by about the same
share.  ``Calibration()`` times a fixed mix of interpreter work (integer
arithmetic, a dict and a list) and cache-missing numpy work (a gather from a
2 MB mask and a sort).  It uses no ``friable`` code, so no change to the
library moves it.  A job's reference-speed time is its measured time times
``REF_S`` over the mean of the loop's times just before and just after it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# the loop's time at the reference speed: about its median between jobs on a
# 2-vCPU x86_64 VM (Xeon, 2.0 GHz) with Python 3.11
REF_S = 0.03


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.mask = rng.random(1 << 21) < 0.3
        self.index = rng.integers(0, 1 << 21, size=1 << 20, dtype=np.int32)
        self.keys = rng.integers(0, 1 << 30, size=1 << 18)
        self.expected = self._work()

    def _work(self) -> tuple[int, int, int]:
        s, table, low = 0, {}, []
        for i in range(72000):
            s += (i * 7919) % 104729
            table[i & 1023] = s
            low.append(s & 7)
        hits = int(np.count_nonzero(self.mask[self.index]))
        top = int(np.sort(self.keys)[-1])
        return s + sum(low), hits, top

    def __call__(self) -> float:
        """Seconds of one pass.  An untimed pass first refills the caches the
        last job evicted, and the collector is off, so what a job leaves
        behind does not move the figure."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            start = time.perf_counter()
            result = self._work()
            seconds = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if result != self.expected:
            raise RuntimeError("calibration loop gave a different result")
        return seconds
