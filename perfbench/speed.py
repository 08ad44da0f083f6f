"""The speed of the CPU running the benchmark, sampled while it runs.

The benchmark's machine shares its cores with other tenants, and a core runs
our code at full speed or, while a neighbour is busy on it, about 1.5 times
slower, changing every few seconds.  ``sample`` times a fixed interpreter loop
of about 0.15 ms.  ``Sampler`` runs it every 50 ms from a SIGALRM handler, on
the thread and core that run the CLI calls, so the samples see the same
slow-downs as the calls.  ``at_reference`` turns a measured time into the time
the same work takes at the reference speed, where one sample takes
REFERENCE_SAMPLE_S.  The loop calls nothing in delaylab, so a change to
delaylab moves the reported times exactly as much as the measured ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_SAMPLE_S = 1.4e-4
INTERVAL_S = 0.05


def sample() -> float:
    """Seconds one fixed interpreter loop takes now."""
    t0 = perf_counter()
    acc = 0
    for j in range(2000):
        acc += j * j % 7
    return perf_counter() - t0


def relative_speed(samples: list) -> float:
    """Mean speed over the samples, 1.0 being the reference speed."""
    return statistics.fmean(REFERENCE_SAMPLE_S / s for s in samples)


def at_reference(seconds: float, samples: list) -> float:
    """``seconds`` of wall time, less the sampling in it, at the reference speed.

    The samples are spread evenly over the wall time, so the work done is the
    time times the mean speed.
    """
    if not samples:
        return seconds
    return (seconds - sum(samples)) * relative_speed(samples)


class Sampler:
    """Context manager that samples the speed every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []

    def _handle(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
