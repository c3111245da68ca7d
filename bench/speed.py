"""Core-speed sampler that converts pass time into calibrated seconds.

The 2-vCPU host this benchmark was built on runs the same pass 1.3-2x
slower while its neighbours load the machine, in episodes that last from
seconds to minutes; raw throughput spread by 20-30% between runs.  Over
windows of 20-40 s, the time of a fixed calibration kernel tracks that
slowdown closely (correlation 0.85-0.95, slope 0.6-1.0 against the
long_train and analytic_landscape passes), although single samples do
not.  So the sampler interrupts the measured code every INTERVAL_S with
SIGALRM and times the kernel; the mean of REFERENCE_S / kernel time over
the samples is the core's average speed during the interval, and the
interval's work time times that speed is its length in calibrated
seconds: seconds on a core that runs the kernel in REFERENCE_S.

The kernel is a frozen stand-in for the program's hot loops (a
fixed-point iteration on a 4x4 complex matrix, a cached segment product
and scalar closed-form arithmetic with float formatting).  It imports no
hyperpol code, so a change to the program cannot move the yardstick.
"""

from __future__ import annotations

import math
import signal
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.2
# kernel time on this host when uncontended
REFERENCE_S = 2.0e-3

_CONTRACTION = np.eye(4, dtype=complex) * 0.999
_ROTATION = np.array([[0.6, 0.8, 0, 0], [-0.8, 0.6, 0, 0],
                      [0, 0, 0.6, 0.8], [0, 0, -0.8, 0.6]], dtype=complex)


@dataclass(frozen=True)
class _Segment:
    kind: str
    duration: float


_SEGMENTS = [_Segment("free", float(i % 9)) for i in range(150)]


def kernel() -> None:
    x = np.array([0.5, 0, 0, 0.5], dtype=complex)
    history = []
    for _ in range(150):
        new = _CONTRACTION @ x
        float(np.max(np.abs(new - x)))
        x = new
        history.append((x[0] - x[3]).real)
    cache = {}
    u = np.eye(4, dtype=complex)
    for segment in _SEGMENTS:
        factor = cache.get(segment)
        if factor is None:
            factor = cache[segment] = _ROTATION.copy()
        u = factor @ u
    for i in range(150):
        t = 0.01 * i + 0.1
        a = 0.1 * math.sin(t / 2) * math.sin(4 * t) / (4 * math.sin(t))
        format(a * math.sqrt(max(0.0, 1 - a * a / 2)), ".17g")


class SpeedSampler:
    """Samples core speed over a with-block.

    Afterwards ``work_s`` is the block's wall time minus the time spent
    sampling inside it, ``speed()`` the mean relative speed over the
    samples and ``calibrated_s()`` their product.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.work_s = 0.0
        self._previous = None
        self._sampling_s = 0.0
        self._start = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        # the first run refills the caches the interrupted code evicted
        kernel()
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self._sampling_s += end - start

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._sampling_s = 0.0
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.work_s = end - self._start - self._sampling_s
        self._sample()

    def speed(self) -> float:
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def calibrated_s(self) -> float:
        return self.work_s * self.speed()
