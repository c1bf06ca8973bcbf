"""How fast the host runs a fixed piece of work, sampled while the program runs.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets drifts: for minutes at a time the program runs up to ~1.5x
slower, and a fixed piece of the benchmark's own code slows alike. A run
measures the program in whatever state the host is in, so its raw times
move with the host.

While timing, a timer signal interrupts the program every INTERVAL_S, and
the handler times a fixed slice of work (small numpy products and Python
string formatting, like the program's hot loops). `clock` leaves the
handler's time out, so raw times are the program's own. `scale` turns raw
seconds over a stretch of the run into reference seconds: seconds on a
host where the slice takes REFERENCE_S, by the mean slice time over that
stretch. The slice runs none of the program's code, so a change to the
program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import signal
import time

# The unit of the scaled metrics: changing it changes every reported time.
REFERENCE_S = 0.010
SLICE_STEPS = 2000
INTERVAL_S = 0.25


class HostSpeed:
    def __init__(self):
        import numpy as np  # after the benchmark has pinned the BLAS threads

        self._np = np
        self._matrix = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
        self.samples: list[tuple[float, float]] = []  # (clock when taken, slice seconds)
        self.busy_s = 0.0
        self._in_slice = False
        self._previous = None

    def clock(self) -> float:
        """perf_counter seconds, less the time spent sampling."""
        return time.perf_counter() - self.busy_s

    def _slice(self) -> int:
        np, m = self._np, self._matrix
        v = np.ones(64)
        words = []
        for i in range(SLICE_STEPS):
            v = np.tanh(m @ v)
            words.append(f"{i},{v[i % 64]:.6f}")
        words.sort()
        return len(words)

    def _on_timer(self, signum, frame) -> None:
        if self._in_slice:  # a tick that fell due while the last one ran
            return
        self._in_slice = True
        t0 = time.perf_counter()
        self._slice()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.busy_s, t1 - t0))
        self.busy_s += time.perf_counter() - t0
        self._in_slice = False

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Factor from raw to reference seconds, by the slices taken between
        `start` and `end` on `clock`, or by all of them if none were."""
        times = [s for when, s in self.samples if start <= when < end]
        times = times or [s for _, s in self.samples]
        return REFERENCE_S * len(times) / sum(times) if times else 1.0
