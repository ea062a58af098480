"""Host-speed calibration for the benchmark's timings.

The 2-core host this benchmark was tuned on changes speed by up to 2x
within seconds and over minutes (the process stays on the CPU, it just
runs slower).  Over ten runs of one workload the raw wall times spread by
7-34% (quartile distance over median).  So each timing is paired with
calibration samples, a fixed unit of numpy work that does not touch
robustroa, taken while the timed code runs, and reported as
t * CAL_REF_S / mean(samples): the time at the speed where one sample
takes CAL_REF_S.  Rescaled, the same runs spread by 2-8%.  Samples taken
only before and after a 15 s invocation do not track the speed; samples
spread over it do.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# mean sample time on the host the benchmark was tuned on
CAL_REF_S = 0.01
PERIOD_S = 0.25


def calibration_sample():
    """Seconds taken by a small-vector loop like the RK4/MPC/SDP inner loops
    plus stencil sweeps on a 101 x 101 grid like the HJ update."""
    t0 = time.perf_counter()
    x, k = np.zeros(6), np.arange(6.0)
    for _ in range(800):
        y = x + 0.001 * (k - x)
        x = 0.999 * y + 1e-3 * np.sin(y)
    a = np.linspace(0.0, 1.0, 101 * 101).reshape(101, 101)
    for _ in range(40):
        p = np.pad(a, 1, mode="edge")
        g = (p[2:, 1:-1] - p[:-2, 1:-1]) + (p[1:-1, 2:] - p[1:-1, :-2])
        a = np.maximum(a - 1e-3 * np.abs(g), 0.5 * a)
    return time.perf_counter() - t0


class SpeedSampler:
    """Takes a calibration sample every PERIOD_S while the `with` block runs.

    Samples run in a SIGALRM handler on the main thread, between bytecodes
    of the timed code; `spent_s` is the time the handlers took, which the
    caller subtracts from its wall time.  One more sample is taken on entry,
    before the timed code starts, so that even a short block has one.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append(calibration_sample())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(calibration_sample())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Factor that maps this block's times to the reference speed."""
        return CAL_REF_S / statistics.fmean(self.samples)
