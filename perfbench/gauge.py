"""Gauges how fast the machine runs while a repetition runs.

The benchmark runs on shared hosts whose speed changes by a third or more
within seconds and minutes, so raw seconds from runs minutes apart disagree
by more than any useful bound.  While the timed work runs, :class:`Gauge`
interrupts it every ``PERIOD_S`` seconds (``SIGALRM``) and times a fixed
probe: ``Fraction`` arithmetic, dictionary lookups and tuple allocation, a
fraction of a millisecond of interpreter work that uses nothing from
``src/``.  The probes sample the machine's speed at the same moments as the
program runs, so ``(seconds - probe time) / mean probe time`` cancels the
host's drift while a change to the program moves it in proportion.

Forked pool workers do not inherit the interval timer, so only the process
that enters the gauge is probed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.02


class Gauge:
    """Context manager probing the machine every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.times = []
        self._table = {i: (i, str(i)) for i in range(512)}
        self._previous = None

    def probe(self):
        total = Fraction(0)
        found = 0
        for i in range(1, 60):
            total += Fraction(i, i + 3)
            found += self._table[(i * 37) % 512][0]
            _ = (i, found, (total,))
        return found

    def _tick(self, _signum, _frame):
        started = time.perf_counter()
        self.probe()
        self.times.append(time.perf_counter() - started)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def summary(self):
        """The probe count, their mean time and the time they took in all."""
        return {
            "probes": len(self.times),
            "probe_s": sum(self.times) / len(self.times),
            "probe_spent_s": sum(self.times),
        }
