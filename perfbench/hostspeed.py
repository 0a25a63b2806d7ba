"""Host-speed probe: express measured times in reference-host seconds.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same fixed work takes up to a third longer from one minute to the next, on
every kind of work at once, and each core drifts on its own.  Raw wall times
of one workload therefore spread more between runs than any change worth
detecting.

While a timed repetition runs, an interval timer interrupts it every
``INTERVAL_S`` and times a small fixed kernel on the same core.  The mean
kernel time over the repetition says how fast the host ran during it, and

    reference time = (wall time - probe time) * REFERENCE_S / mean kernel time

is the repetition's time on a host that runs the kernel in ``REFERENCE_S``.
The probe only reads the clock and runs its own arrays: it touches no state
of the program, and its own time is taken out of the wall time.  A signal
that arrives during a long numpy call is handled when the call returns, so a
repetition made of few long calls gets fewer samples; one sample is always
taken before the repetition and one after it.

Kinds of work drift by different amounts, so the kernel should do the kind
of work the workload does.  ``mixed_kernel`` (numpy transcendentals and a
pure-Python loop) follows numpy-heavy workloads best; ``interpreted_kernel``
follows work dominated by Python callbacks, such as adaptive quadrature.
Both take about ``REFERENCE_S`` on the reference host.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds between samples; each sample costs about 0.4 ms.
INTERVAL_S = 0.1
# Typical mean kernel time inside workload repetitions on the host the
# benchmark was tuned on (2-vCPU x86-64 KVM guest, numpy 2.4, Python 3.11).
# It only sets the scale: reference seconds read close to wall seconds there.
REFERENCE_S = 4.0e-4

_X = np.linspace(-3.0, 3.0, 4096)


def _loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def mixed_kernel() -> float:
    """Half numpy transcendentals, half interpreted loop."""
    return float(np.cos(_X * 1.3 + 0.2).sum()) + float(np.exp(-_X * _X).sum()) + _loop(2000)


def interpreted_kernel() -> int:
    """Interpreted loop only."""
    return _loop(4000)


class HostSpeedProbe:
    """Context manager that samples the kernel time while its body runs.

    ``samples`` holds ``(start, seconds)`` of every kernel run, the two
    bracketing ones included.  Single-threaded; SIGALRM must be free.
    """

    def __init__(self, kernel=mixed_kernel, interval: float = INTERVAL_S):
        self.kernel = kernel
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        self.kernel()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def spent_between(self, start: float, end: float) -> float:
        """Probe time that fell inside the timed interval [start, end)."""
        return sum(dt for t0, dt in self.samples if start <= t0 < end)

    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time: below 1 on a slower host."""
        return REFERENCE_S / statistics.fmean(dt for _, dt in self.samples)
