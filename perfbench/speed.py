"""Time an operation in units of a fixed probe kernel timed beside it.

On a shared machine the same code can run 1.6 times slower for tens of
seconds at a time, so wall seconds move with the neighbours.  While an
operation runs, ``SpeedProbe`` times a small fixed ``kernel`` once before
it, every ``INTERVAL_S`` seconds during it (SIGALRM) and once after it.
The operation's net time (its time minus the probes inside it) multiplied
by the mean reciprocal probe duration is its time counted in probe
durations.  When the whole machine slows down, the probe slows with it and
that count stays put.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

INTERVAL_S = 0.05
_WORDS = np.arange(1 << 13, dtype=np.uint64)


def kernel() -> int:
    """A fixed mix of interpreter and numpy work, well under a millisecond."""
    s = 0
    for i in range(1500):
        s += i * i % 7
    a = _WORDS
    for _ in range(8):
        a = (a ^ (a >> np.uint64(29))) * np.uint64(0x9E3779B97F4A7C15)
    return s + int(a[-1] & np.uint64(1))


@dataclass
class Timing:
    wall_s: float = 0.0  # net of the probes run inside the operation
    cpu_s: float = 0.0
    per_probe: float = 0.0  # mean of 1 / probe duration, in 1/s
    probes: int = 0

    @property
    def wall_probes(self) -> float:
        return self.wall_s * self.per_probe

    @property
    def cpu_probes(self) -> float:
        return self.cpu_s * self.per_probe


class SpeedProbe:
    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._samples: list[tuple[float, float]] = []  # (wall, cpu) of each probe

    def _probe(self, *_) -> None:
        w, c = perf_counter(), process_time()
        kernel()
        self._samples.append((perf_counter() - w, process_time() - c))

    @contextlib.contextmanager
    def timed(self):
        """Time the block; the yielded Timing is filled in on exit, also
        when the block raises."""
        timing = Timing()
        self._samples = []
        self._probe()
        previous = signal.signal(signal.SIGALRM, self._probe)
        w0, c0 = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = perf_counter() - w0, process_time() - c0
            inside = self._samples[1:]
            signal.signal(signal.SIGALRM, previous)
            self._probe()
            timing.wall_s = wall - sum(w for w, _ in inside)
            timing.cpu_s = cpu - sum(c for _, c in inside)
            timing.per_probe = statistics.fmean(1 / w for w, _ in self._samples)
            timing.probes = len(self._samples)
