"""Clocks.

Lease expiry, permission date windows and downtime measurements all depend
on time. Production code uses the wall clock; experiments and tests use a
:class:`SimulatedClock` they can advance deterministically, so a "one
hour" lease expires instantly when the experiment says so.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

#: A clock is just a zero-argument callable returning seconds.
Clock = Callable[[], float]


class SimulatedClock:
    """A manually advanced clock, safe to share across threads."""

    def __init__(self, start: float = 1_000_000.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ValueError("cannot move a simulated clock backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def set(self, now: float) -> None:
        with self._lock:
            self._now = float(now)


def wall_clock() -> float:
    """The real time (thin wrapper so call sites read uniformly)."""
    return time.time()
