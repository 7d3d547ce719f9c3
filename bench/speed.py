"""Host-speed normalisation of the benchmark's timings.

The hosts this benchmark runs on can change speed while it runs: a fixed
interpreter-bound kernel has been seen to take 1x and 2x its fastest time,
switching every few milliseconds to every few minutes. Raw medians of two
sets of runs of the same code then differ by a third. ``SpeedClock``
makes the timings comparable across such changes:

* while it runs, an interval timer interrupts the program every
  ``interval`` seconds (``SIGALRM``; the handler runs between Python
  bytecodes) and times a small reference kernel, shaped like a history
  query: a Python loop over small numpy arrays;
* the program time between two samples is weighted by
  ``NOMINAL_MS / mean(reference ms of the two samples)``;
* ``normalized(a, b)`` is the weighted program time between two
  ``time.perf_counter()`` readings, with the samples' own time left out.

A normalised second is a second on a host where the reference kernel
takes ``NOMINAL_MS``. Work the program does not do still costs nothing,
and a program change that makes it slower makes every normalised timing
slower by the same share, because the kernel lives here, outside ``src/``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# reference kernel time (ms) that a normalised timing assumes: about the
# kernel's fastest time on a 2-core x86-64 cloud VM (Python 3, numpy)
NOMINAL_MS = 1.25
KERNEL_ITERATIONS = 300

_YS = np.random.default_rng(0).normal(size=(256, 4))


def reference_kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    """Seconds taken by the fixed reference kernel."""
    ys = _YS
    t = time.perf_counter()
    acc = 0.0
    for i in range(iterations):
        x = (i % 97) / 97.0
        y = ((2 * x**3 - 3 * x**2 + 1) * ys[i & 255]
             + (-2 * x**3 + 3 * x**2) * ys[(i + 1) & 255])
        acc += float(y[0] * y[0] - y[1:] @ y[1:])
    return time.perf_counter() - t


class SpeedClock:
    """Samples host speed on a timer between ``start`` and ``stop``."""

    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self._begin: list[float] = []  # sample k runs from _begin[k] ...
        self._end: list[float] = []    # ... to _end[k]
        self._ref: list[float] = []    # reference seconds of sample k
        self._old_handler = None
        self._running = False
        self._knots = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        ref = reference_kernel()
        self._begin.append(t0)
        self._ref.append(ref)
        self._end.append(time.perf_counter())

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        """Disarm the timer and take the closing sample; idempotent."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()
        # knots of the two cumulative clocks: both stand still during a
        # sample; across gap k the normalised one runs at weight[k]
        begin, end, ref = (np.asarray(v) for v in (self._begin, self._end, self._ref))
        weight = 2e-3 * NOMINAL_MS / (ref[:-1] + ref[1:])
        gap = begin[1:] - end[:-1]
        self._knots = np.column_stack([begin, end]).ravel()
        self._raw = np.repeat(np.concatenate([[0.0], np.cumsum(gap)]), 2)
        self._norm = np.repeat(np.concatenate([[0.0], np.cumsum(weight * gap)]), 2)

    @property
    def samples(self) -> int:
        return len(self._ref)

    def reference_ms(self) -> float:
        """Median reference kernel time over the run, in ms."""
        return 1e3 * float(np.median(self._ref))

    def _at(self, clock, t):
        if self._knots is None:
            raise RuntimeError("SpeedClock.stop() must come before reading it")
        t = np.asarray(t, dtype=np.float64)
        if t.size and not (self._knots[1] <= t.min() and t.max() <= self._knots[-2]):
            raise ValueError("reading outside the sampled run")
        return np.interp(t, self._knots, clock)

    def normalized_at(self, t):
        """Normalised program seconds from the first sample to reading(s) ``t``."""
        return self._at(self._norm, t)

    def normalized(self, a: float, b: float) -> float:
        """Normalised seconds of program time between readings ``a`` and ``b``."""
        return float(self.normalized_at(b) - self.normalized_at(a))

    def raw(self, a: float, b: float) -> float:
        """Measured seconds of program time between ``a`` and ``b``."""
        return float(self._at(self._raw, b) - self._at(self._raw, a))
