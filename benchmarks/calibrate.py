"""A fixed calibration kernel that reads the machine's current speed.

The machines this benchmark runs on drift in speed by up to 2x over tens
of seconds (other tenants share the cores), and a 20 s run cannot average
that out.  The kernel mixes interpreter work with small and medium numpy
operations, like the program does, and slows down with the machine.
Timings are scaled by ``kernel time / CAL_REF_S``: what they would read on
this machine in a quiet spell.  The kernel is the benchmark's own code, so
a change to the program never changes it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

CAL_REF_S = 0.015  # the kernel's time on the reference machine when quiet
SAMPLE_INTERVAL_S = 1.0  # a few percent of the run goes to the kernel

_RNG = np.random.default_rng(0)
_X = _RNG.random(100_000)
# The kernel writes into these, so it never allocates a large array: fresh
# pages would make it read the heap's state, not the machine's speed.
_BUF = np.empty_like(_X)
_U = np.empty(20_000)


def calibration_s() -> float:
    """Seconds one run of the kernel takes now (about 15 ms on a quiet machine)."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0.0
    for i in range(6000):
        key = (i % 97, i % 13)
        acc += float(np.array([i * 0.5, 1.0, 2.0]).sum()) + table.get(key, 0.0)
        table[key] = acc * 1e-9
    for _ in range(20):
        np.multiply(_X, 1.5, out=_BUF)
        np.add(_BUF, 0.25, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
        acc += float(_BUF.max())
        _RNG.random(out=_U)
        acc += float(np.count_nonzero(_U < 0.5))
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """How much slower than the reference the machine ran between two kernel runs.

    Multiply a rate measured in between by it, or divide a duration by it,
    to get the value at reference speed.
    """
    return (before + after) / (2.0 * CAL_REF_S)


class SpeedSampler:
    """Runs the kernel from a timer signal every second while active.

    Long passes then get samples from their middle, not only from their
    ends.  ``spent`` is the time taken by the kernel, which callers take off
    the timings they measure around it.
    """

    def __init__(self):
        self.samples: list = []  # (wall time, kernel seconds)
        self.spent = 0.0
        calibration_s()  # the first run in a process is slow; leave it out

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append((start, calibration_s()))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def factor(self, start: float, end: float) -> float:
        """Speed factor for an interval: the samples within half an interval of it."""
        near = [k for t, k in self.samples if start - SAMPLE_INTERVAL_S / 2 <= t <= end + SAMPLE_INTERVAL_S / 2]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - start))[1]]
        return sum(near) / (len(near) * CAL_REF_S)
