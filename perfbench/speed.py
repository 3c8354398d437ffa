"""Machine-speed normalisation for a shared, noisy host.

On a shared 2-core host the same operation can take 1.8 times longer from
one minute to the next, because other tenants slow the CPU down.  A
``SpeedSampler`` samples that slowdown while the measured code runs: a
SIGALRM timer interrupts the main thread every ``period`` seconds and times a
fixed pure-Python kernel (float arithmetic, ``math`` calls, small lists, the
mix of the generated vector-field code).  The samples are taken on the same
core, in the same process, at the same moments as the measured work.

``normalise(raw)`` removes the sampler's own time from ``raw`` and rescales
the rest to a host on which the kernel runs at ``NOMINAL_S`` per call:
``(raw - spent) * mean(NOMINAL_S / kernel_time)``.  Work done is the integral
of speed over time, so the mean of the sampled speeds (not of the sampled
durations) is the right average.

This module imports nothing beyond the standard library's ``math``,
``signal`` and ``time``, so the set-up probe can load it before it starts
timing the import of avgcycle.
"""

from __future__ import annotations

import math
import signal
import time

KERNEL_ITERS = 1000
NOMINAL_S = 2.5e-4     # kernel seconds per call on an uncontended host


def kernel():
    acc, t = 0.0, 0.1
    for _ in range(KERNEL_ITERS):
        s, c = math.sin(t), math.cos(t)
        v = [s * c, s * s - c, 1.5 * s + c * c]
        acc += v[0] * v[1] - v[2] / (1.0 + c * c)
        t += 1e-3
    return acc


class SpeedSampler:
    """Context manager sampling host speed while the body runs."""

    def __init__(self, period=0.05):
        self.period = period
        self.durations = []
        self.spent = 0.0

    def _kernel_time(self):
        t0 = time.perf_counter()
        kernel()
        duration = time.perf_counter() - t0
        self.durations.append(duration)
        return duration

    def _on_alarm(self, *_):
        self.spent += self._kernel_time()

    def __enter__(self):
        self._kernel_time()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._kernel_time()
        return False

    def speed(self):
        """Mean host speed over the samples, 1.0 = nominal."""
        return math.fsum(NOMINAL_S / d for d in self.durations) / len(self.durations)

    def normalise(self, raw):
        return (raw - self.spent) * self.speed()


if __name__ == "__main__":
    # calibration aid: kernel seconds per call on this host
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    print(f"kernel median {times[len(times) // 2]:.3e} s, min {times[0]:.3e} s")
