"""
Machine speed, measured beside the program so that timings can be scaled to
a fixed reference speed.

On a shared host a virtual CPU's speed changes by the second and by the
hour.  On a 2-vCPU Xeon VM the kernel below took either about 3.6 ms or
about 5.7 ms, flipping between the two several times a minute on either
vCPU, and two 20 s runs of ``semigroup`` minutes apart had median steps of
573 and 405 ms.  Process CPU time leaves out CPU steal, but this is not
steal: CPU time moved with wall time.  It slows the workloads and the
kernel by similar factors.  So a fixed reference kernel that never touches
``spectriple`` is timed throughout each run, and a step's CPU time is
scaled to the time it would take on a machine where the kernel takes
``REFERENCE_S``.

A step's work is its CPU time times the machine's mean speed over it, and
the speed is the inverse of the kernel's time, so the scale is
``REFERENCE_S`` times the mean of 1 / (kernel time) over the samples taken
during the step and within ``MARGIN_S`` of it.  The speed flips between a
fast and a slow state several times a minute, so a median of the samples
would jump with the share of each; the mean follows it.  Set-up, which runs
before the loop, is scaled by all samples of the run.  A change to the
program moves the step times and not the kernel, so it still shows.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from array import array
from time import perf_counter, process_time

import numpy as np

# A round figure near the kernel's CPU time on the VM above, so that scaled
# times stay close to the times measured there.
REFERENCE_S = 0.005
# How often a timed run samples the kernel, and how far before and after a
# step its samples still count for it, in seconds of wall time.
INTERVAL_S = 0.2
MARGIN_S = 1.0

_rng = np.random.default_rng(20130427)
_M8 = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_M72 = _rng.standard_normal((72, 72)) + 1j * _rng.standard_normal((72, 72))
_B72 = _rng.standard_normal((72, 8)) + 1j * _rng.standard_normal((72, 8))


def reference_kernel() -> float:
    """A fixed mix like the workloads': Python calls on 8 x 8, then 72 x 72."""
    acc = np.eye(8, dtype=complex)
    total = 0.0
    for _ in range(120):
        acc = _M8 @ acc
        acc /= np.linalg.norm(acc)
        total += float(np.trace(acc).real)
    big = _M72
    for _ in range(6):
        big = _M72 @ big
        big /= np.linalg.norm(big)
    sol = np.linalg.lstsq(_M72, _B72, rcond=None)[0]
    return total + float(np.abs(sol).sum())


def time_kernel(repeats: int = 1) -> list:
    """CPU seconds of each of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        c0 = process_time()
        reference_kernel()
        times.append(process_time() - c0)
    return times


class SpeedSampler:
    """
    Runs the kernel every ``INTERVAL_S`` of a timed loop from a SIGALRM
    handler, so that long steps are sampled inside as well as between.
    ``spent`` is the CPU time the kernel took, which the loop subtracts
    from the step it interrupted.
    """

    def __init__(self):
        self.stamps = array("d")
        self.samples = array("d")
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        (dt,) = time_kernel()
        self.stamps.append(perf_counter())
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        time_kernel(3)  # warm caches and lazy imports before sampling
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a loop shorter than one interval
            self._tick(signal.SIGALRM, None)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from measured to reference-speed times between two stamps."""
        lo = bisect.bisect_left(self.stamps, start - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + MARGIN_S)
        window = self.samples[lo:hi] or self.samples
        return REFERENCE_S * statistics.fmean(1.0 / k for k in window)


class NoSampler:
    """Stand-in where timings are not scaled: the traced run."""

    spent = 0.0
