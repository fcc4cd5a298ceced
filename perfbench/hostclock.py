"""A clock that reads host time corrected for the host's momentary speed.

The benchmark's reference host is a shared 2-vCPU virtual machine whose
speed swings by up to 40% for minutes at a time, while the benchmark's bounds
are 25% at most.  One fixed call into the program took from 2.0 to 4.2 s
within three minutes, with no other process of ours running; plain host time
cannot tell a regression from a slow minute there.

``HostClock`` runs a fixed kernel, small Python-level integer work and small
numpy calls (the two kinds of work the program does between its larger array
operations), on a wall-clock timer every ``PERIOD_S`` seconds while a timed
pass or a set-up process runs.  The kernel is part of the benchmark, so no
change to the program can alter its own work.  How long it takes says how
fast the host runs at that moment.  ``now()`` advances by host seconds
times ``REFERENCE_S`` over the median of the last ``WINDOW`` kernel times:
it reads reference seconds, the seconds the work would take on a host where
the kernel takes ``REFERENCE_S``.  The kernel's own time is left out of the
clock.

In a 4.5-minute test on the reference host, one fixed sweep call was
repeated 67 times (2.5-4.7 s of host time each).  The log of the kernel's
median time during a call tracked the log of the call's host time with a
correlation of 0.91 and a slope of 1.08.  The spread of the calls' times
(interquartile range over median) fell from 0.20 in host time to 0.08 in
corrected time, and that of 25 s blocks of them from max/min 1.41 to 1.10.
The correction cannot remove what the kernel does not feel: a slow-down
that hits only the program's larger working sets still shows.

Signals are delivered between bytecodes of the main thread, so a long call
into C delays the next sample but is still timed, at the speed last seen.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
WINDOW = 5
PY_ITERS = 14000
NP_ITERS = 80
# A round figure near the kernel's median time on the reference host.  It
# sets the unit of the clock, not how steady the clock is.
REFERENCE_S = 0.003


class HostClock:
    """Host-speed-corrected clock; reads host time until ``start``."""

    def __init__(self):
        self.samples: list[float] = []
        self._running = False
        self._ref = 0.0             # corrected seconds up to the last sample
        self._last = 0.0            # host time at the end of the last sample
        self._scale = 1.0
        self._ticks = 0
        self._saved_handler = None

    def start(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np, self._m, self._v = np, rng.random((3, 3)), rng.random(3)
        self._ref, self._last = 0.0, time.perf_counter()
        self._sample()              # set the scale before anything is timed
        self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self._running = False

    def now(self) -> float:
        if not self._running:
            return time.perf_counter()
        while True:
            ticks = self._ticks
            value = self._ref + (time.perf_counter() - self._last) * self._scale
            if ticks == self._ticks:
                return value

    def speed(self) -> float:
        """Median host speed over the pass, as REFERENCE_S / kernel time."""
        return REFERENCE_S / statistics.median(self.samples) if self.samples else 1.0

    def _kernel(self) -> float:
        acc = 0
        for i in range(PY_ITERS):
            acc = (acc * 31 + i) & 0xFFFF
        np, m, v, x = self._np, self._m, self._v, float(acc)
        for _ in range(NP_ITERS):
            r = m @ v
            x += float(np.arctan2(r[1], r[0])) + float(np.linalg.norm(r))
            r = np.clip(r, 0.1, 0.9)
        return x

    def _sample(self) -> None:
        t_in = time.perf_counter()
        self._ref += (t_in - self._last) * self._scale
        self._kernel()
        t_out = time.perf_counter()
        self.samples.append(t_out - t_in)
        self._scale = REFERENCE_S / statistics.median(self.samples[-WINDOW:])
        self._last = t_out
        self._ticks += 1

    def _tick(self, _signum, _frame) -> None:
        self._sample()
