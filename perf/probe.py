"""Host-speed probe: a fixed CPU kernel timed between measured intervals.

On a shared host the speed of a core drifts by tens of percent over
minutes, which no amount of repetition inside one run averages away.
A run therefore takes a short probe session before its first measured
interval and after every one, and reports its times scaled to a
reference host: ``seconds * REFERENCE_S / p`` (rates by the inverse),
where ``p`` is the median of all the run's probe samples.  On a host
whose probe takes ``REFERENCE_S`` the scaled and raw numbers are equal;
raw numbers are kept in every run's record.  One factor per run, from
every sample the run took, follows the slow drift between runs without
adding the noise of any single short session.

The kernel mixes NumPy array passes and an interpreter loop, the two
cost regimes of the program, and depends on nothing in ``src`` — so a
change to the program cannot move the yardstick.  It runs on one core,
between intervals, never alongside the workload.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List

import numpy as np

__all__ = ["REFERENCE_S", "Probe"]

#: Median probe time on a quiet 2-vCPU host (Intel Xeon, Python 3.11,
#: NumPy 2.4): the speed every scaled number refers to.
REFERENCE_S = 0.0063
_REPEATS = 5
_WARMUP = 3


def _kernel() -> float:
    x = np.arange(1, 200_001, dtype=np.float64)
    total = 0.0
    for _ in range(3):
        total += float((np.sqrt(x) * 1.0000001 + np.log(x)).sum())
    acc = 0.0
    for i in range(25_000):
        acc += math.sin(i & 1023) * 0.5
    return total + acc


class Probe:
    """Collects probe samples; :meth:`factor` scales a run's seconds."""

    def __init__(self) -> None:
        for _ in range(_WARMUP):  # first-touch allocation, caches
            _kernel()
        self.samples: List[float] = []
        self.session()

    def session(self) -> None:
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _kernel()
            self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """``REFERENCE_S / p``: multiply seconds by it, divide rates."""
        return REFERENCE_S / statistics.median(self.samples)
