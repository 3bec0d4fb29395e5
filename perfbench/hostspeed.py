"""Host speed, from a fixed reference kernel run between and during the timed ops.

The 2-core reference host changes speed in phases: seconds to minutes
long, up to about 45% slower, with CPU time tracking wall time (so it is
not descheduling, and CPU time does not help; a kernel run on the other
core tracks it poorly, so the samples must come from the benchmark's own
thread). :class:`HostSpeed` runs :func:`reference_kernel` every
:data:`EVERY_S` seconds and divides each op's time by the kernel's
slowdown (its time over :data:`REFERENCE_S`) around the op:

* short ops (a search, a write) are sampled *between* ops, by
  :meth:`HostSpeed.tick`, and scaled by the median of the
  :data:`NEAREST` samples nearest to each op (:meth:`HostSpeed.scale`);
* long ops (a build, a set-up, a recovery) run inside
  :meth:`HostSpeed.span`, which also samples *during* the op from a
  ``SIGALRM`` timer, takes the samples' time out of the op's, and scales
  it by the mean of the samples during and around it.

Times so scaled read as seconds at the reference host's typical
speed. The kernel is fixed benchmark code, so a change to the program
moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["HostSpeed", "reference_kernel", "REFERENCE_S"]

REFERENCE_S = 0.003  # the kernel's typical time on the reference host
EVERY_S = 0.1        # sampling period
NEAREST = 5          # samples whose median gives the speed around a short op

_rng = np.random.default_rng(0)
_SMALL = [_rng.integers(0, 500, 64) for _ in range(40)]
_INTS = _rng.integers(0, 1 << 62, 40_000)
_IDX = _rng.integers(0, 40_000, 40_000)


def reference_kernel() -> None:
    """Fixed work shaped like the program's: interpreter-bound dict updates,
    many numpy calls on small arrays (as in a walk or a write), and a few
    on large ones (as in a build).

    Of the kernels tried, this one's slowdown followed the program's
    closest (log-log slope 0.8-1.1 against writes, searches and builds;
    a kernel of large-array calls only had 0.9-1.3).
    """
    counts: dict[int, int] = {}
    for i in range(2000):
        key = i & 511
        counts[key] = counts.get(key, 0) + i
    for a, b in zip(_SMALL, _SMALL[1:]):
        np.isin(np.unique(a), b).sum()
        a[np.argsort(a)][:8].sum()
    np.sort(_INTS)
    np.bitwise_count(_INTS & (_INTS >> 3)).sum()
    _INTS[_IDX].sum()


class HostSpeed:
    """Samples of the reference kernel's time, and op times scaled by them."""

    def __init__(self) -> None:
        self.at: list[float] = []    # mid-point of each sample
        self.took: list[float] = []  # its duration
        self.sampled_s = 0.0         # total time spent sampling
        self._due = 0.0
        self._armed = False
        self._sampling = False

    def sample(self, n: int = 1) -> None:
        """Run the kernel ``n`` times now."""
        self._sampling = True
        for _ in range(n):
            t0 = perf_counter()
            reference_kernel()
            t1 = perf_counter()
            self.at.append(0.5 * (t0 + t1))
            self.took.append(t1 - t0)
            self.sampled_s += t1 - t0
        self._sampling = False
        self._due = perf_counter() + EVERY_S

    def _on_alarm(self, *_) -> None:
        if not self._sampling:  # a sample must not nest in another
            self.sample()

    def tick(self) -> None:
        """Sample once if :data:`EVERY_S` has passed since the last sample."""
        if perf_counter() >= self._due:
            self.sample()

    def scale(self, starts, seconds) -> np.ndarray:
        """``seconds`` of ops started at ``starts``, at reference speed.

        Call :meth:`sample` with ``n >= NEAREST`` before the first op or
        around the window, so every op has samples near it.
        """
        at = np.asarray(self.at)
        medians = np.median(sliding_window_view(np.asarray(self.took), NEAREST), axis=1)
        # The window of NEAREST samples centred on each op's position.
        lo = np.searchsorted(at, np.asarray(starts)) - NEAREST // 2
        lo = np.clip(lo, 0, medians.size - 1)
        return np.asarray(seconds) * (REFERENCE_S / medians[lo])

    @contextmanager
    def span(self):
        """Time the block, sampling the kernel before, during and after it.

        Yields a dict that gets ``raw_s`` (the block's wall time less the
        samples taken during it) and ``s`` (``raw_s`` at reference speed)
        on exit. Spans nest; the inner one's samples are taken out of the
        outer one's time.
        """
        self.sample(NEAREST)
        first = len(self.took) - 2  # the two samples just before
        outer = self._armed
        if not outer:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
            self._armed = True
        out: dict[str, float] = {}
        sampled = self.sampled_s
        t0 = perf_counter()
        try:
            yield out
        finally:
            t1 = perf_counter()
            if not outer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                self._armed = False
            out["raw_s"] = t1 - t0 - (self.sampled_s - sampled)
            after = len(self.took)
            self.sample(NEAREST)
            took = self.took[first:after + 3]  # ... and the three just after
            out["s"] = out["raw_s"] * REFERENCE_S / float(np.mean(took))

    def median_s(self) -> float:
        """The kernel's median time over every sample (how fast the host ran)."""
        return float(np.median(self.took)) if self.took else 0.0
