"""Machine-speed sampling, so timings survive a shared host whose speed drifts.

On a small shared VM the same request can take 5 s or 9 s minutes apart,
and the speed flips between two states every few milliseconds. CPU time
tracks wall time there, so it does not help. `SpeedSampler` instead runs
a fixed probe from a SIGALRM timer throughout the measured code (one
process, no threads): a probe shaped like natpdm's hot paths that calls
no natpdm code, so it measures the machine and not the program.

A window's time in reference seconds is its time scaled by
PROBE_REF_S / (mean probe time inside the window): the time the same
work would take on a machine where the probe takes PROBE_REF_S.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PROBE_REF_S = 3.0e-4
INTERVAL_S = 0.02

_D = np.linspace(1.0, 3.0, 40)
_E2 = np.full(39, 0.25)
_LAM = np.linspace(0.5, 2.5, 4)


def probe_s():
    """Wall time of a fixed ~0.3 ms task.

    A Python loop of 4-wide numpy updates (the Sturm recurrence), scalar
    math calls (quadrature and root finding) and 17-digit formatting
    (report serialisation).
    """
    t0 = time.perf_counter()
    q = _D[0] - _LAM
    for i in range(1, _D.size):
        q = _D[i] - _LAM - _E2[i - 1] / q
    acc = 0.0
    for i in range(1, 300):
        acc += math.sqrt(i) / (1.0 + i)
    ",".join(f"{i * 0.1:.17g}" for i in range(150))
    return time.perf_counter() - t0


class SpeedSampler:
    """Probe every INTERVAL_S of wall time while the sampler is entered.

    `mark()` snapshots the clocks; `window(mark)` gives the wall time since
    the mark, the program time (wall minus the probes run inside it) and
    the scale factor to reference seconds.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.probe_total = 0.0
        self.count = 0
        self.last = None

    def _on_alarm(self, signum, frame):
        t = probe_s()
        self.probe_total += t
        self.count += 1
        self.last = t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)  # so even the first window has a speed
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        # a probe landing between the reads would skew this snapshot
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter(), self.probe_total, self.count
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def window(self, start):
        """(wall s, program s, reference s per program s) since the `start` mark.

        A window too short to hold a probe takes the latest probe's speed.
        """
        now = self.mark()
        wall = now[0] - start[0]
        probes = now[2] - start[2]
        probe_mean = (now[1] - start[1]) / probes if probes else self.last
        return wall, wall - (now[1] - start[1]), PROBE_REF_S / probe_mean

    def clock(self):
        """Wall clock minus the time spent in probes, for span timing.

        Unmasked for speed: a probe landing between the two reads shifts
        one timestamp by one probe.
        """
        return time.perf_counter() - self.probe_total
