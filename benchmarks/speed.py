"""Speed probes: wall times measured at a fixed machine speed.

The CPUs of a shared host do not run at one speed: for stretches of a tenth of
a second to minutes the same code takes up to twice as long, with CPU time
following wall time (the steal time in /proc/stat stays near zero).  A wall
time taken over such a stretch measures the neighbours, not the program.

So while a timed region runs, an interval timer interrupts the program about
every ``INTERVAL_S`` and runs a fixed probe (a short loop of Python and small
numpy operations, no polykin code).  The probe's time says how fast the
machine is right then.  Each stretch of program time between two probes is
scaled by ``REF_S`` over the mean of the two probe times around it, and the
probes' own time is left out: the result is the time the program would take
on a machine where one probe takes ``REF_S``.  The program's time is not
otherwise changed; a program that does more or less work moves it as before.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.02
# the probe's time in the machine's fast phases on the reference machine (see README)
REF_S = 0.47e-3
_SMALL = np.linspace(0.0, 1.0, 500).reshape(5, 5, 5, 4)


def probe() -> float:
    """The probe's time: a fixed loop over a small array, timed cold.

    Cold, as the program's own code runs: the probe then pays for refilling
    the caches the program flushed, and so slows down with the program when
    neighbours crowd the memory system as well as the cores.  A probe timed
    after a warm-up pass tracked the core's speed only, and scaled
    ``convergence_smooth`` runs to between 16.3 and 22.4 s (25% spread over
    five runs) where this one read 16.3 to 17.2 s.
    """
    t0 = time.perf_counter_ns()
    s = 0.0
    for i in range(150):
        s += float(np.sum(_SMALL * 1.5)) + i % 7
    return (time.perf_counter_ns() - t0) * 1e-9


class Prober:
    """Runs the probe on a timer and converts wall intervals to reference time."""

    def __init__(self):
        self.starts: list[int] = []  # perf_counter_ns around each probe
        self.ends: list[int] = []
        self.times: list[float] = []  # what each probe returned
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        self.times.append(probe())
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())
        self._busy = False

    def start(self) -> None:
        """Probe once now, then about every INTERVAL_S until stop()."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)  # system calls restart
        self._on_alarm(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and probe once more, closing the last stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._on_alarm(signal.SIGALRM, None)

    def clear(self) -> None:
        self.starts.clear()
        self.ends.clear()
        self.times.clear()

    def reference_seconds(self, a: int, b: int) -> float:
        """Reference time of the wall interval [a, b] in perf_counter_ns.

        Must lie between the first probe's start and the last probe's end.
        """
        if not self.starts or a < self.starts[0] or b > self.ends[-1]:
            raise ValueError("interval outside the probed region")
        total = 0.0
        k = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * 2.0 * REF_S / (self.times[k] + self.times[k + 1])
            k += 1
        return total * 1e-9
