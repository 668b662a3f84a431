"""Times operations in seconds at a fixed reference speed of the machine.

On a shared host a process's speed can move by up to a factor of two
within seconds (measured on a 2-vCPU KVM guest), in CPU time as much as in
wall time.  A wall time alone would measure the neighbours.  So the meter
samples the machine's speed while the program runs: every ``interval``
seconds (a ``SIGALRM`` timer) and at every operation boundary it runs
:func:`reference_loop`, a fixed piece of small-array numpy and Python work
of the same kind as a training step, and records how long it took.

An operation's *reference seconds* are its wall time, with the reference
loops excluded, times the mean of ``REFERENCE_S / loop seconds`` over the
samples from its start to its end: the seconds it would have taken had the
machine run at the speed where the loop takes ``REFERENCE_S``.  A change to
the program moves them; a change in the machine's speed, which moves the
loop as much as the program, cancels out.  :meth:`Meter.clock` is a clock
that stops while a loop runs, so spans timed with it exclude the loops too.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.003        # the unit: the loop's time at the reference speed
INTERVAL_S = 0.1
_STEPS = 40
_PYTHON_OPS = 4000

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((8000, 10))
_Y = _rng.integers(0, 2, 8000)
_W = _rng.standard_normal((2, 10))


def reference_loop() -> float:
    """SGD steps of a linear softmax model on batches of 64 rows drawn from
    8000, then a little plain-Python arithmetic."""
    rng = np.random.default_rng(1)
    rows = np.arange(64)
    w, total = _W.copy(), 0.0
    for _ in range(_STEPS):
        idx = rng.integers(0, 8000, 64)
        x, y = _X[idx], _Y[idx]
        out = x @ w.T
        out = out - out.max(axis=1, keepdims=True)
        p = np.exp(out)
        p /= p.sum(axis=1, keepdims=True)
        total += float(-np.log(p[rows, y]).mean())
        p[rows, y] -= 1.0
        w -= 1e-3 * (p.T @ x) / 64
    for i in range(_PYTHON_OPS):
        total += (i * i) % 7
    return total


class Meter:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []     # seconds of each reference loop
        self._loop_s = 0.0                 # their total
        self._busy = False
        self._lap_clock = 0.0
        self._lap_index = 0
        self._previous_handler = None

    def clock(self) -> float:
        """perf_counter with the reference loops taken out."""
        return time.perf_counter() - self._loop_s

    def sample(self) -> None:
        if self._busy:       # a timer tick during an explicit sample
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            seconds = time.perf_counter() - t0
            self.samples.append(seconds)
            self._loop_s += seconds
        finally:
            self._busy = False

    def speed(self, first: int, last: int) -> float:
        """Mean of REFERENCE_S / loop seconds over samples ``first..last``."""
        window = self.samples[first:last + 1]
        return sum(REFERENCE_S / s for s in window) / len(window)

    def reset(self) -> None:
        """Sample and start the next lap here."""
        self.sample()
        self._lap_index = len(self.samples) - 1
        self._lap_clock = self.clock()

    def lap(self) -> tuple[float, float]:
        """(reference seconds, wall seconds) since the last lap or reset."""
        wall = self.clock() - self._lap_clock
        first = self._lap_index
        self.reset()
        return wall * self.speed(first, self._lap_index), wall

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self.reset()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
