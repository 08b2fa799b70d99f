"""Heartbeat-driven backend failure detection and automatic resync.

A write round demotes a backend that fails it, and a read on the HA
primary demotes the replica it ran on and moves to another, but an
*idle* dead replica — crashed while no statement reached it, or
partitioned away — fails nothing: left alone it would sit ENABLED
until a statement found it.
The :class:`FailureDetector` pings every backend on each check:

- an ENABLED backend that misses ``max_misses`` consecutive heartbeats
  is disabled around a consistent checkpoint (through the scheduler, so
  the checkpoint is atomic with the write path and pinned by name
  against log compaction),
- a backend the detector disabled — or one the write path marked FAILED
  — that answers a ping again is automatically resynchronised and
  re-enabled; when the log was compacted past its checkpoint the resync
  falls back to a dump-based cold start from a healthy sibling,
- backends an administrator disabled are left alone: operator intent
  outranks liveness. Who disabled a backend is recorded on the backend
  itself (``Backend.disabled_by``); the detector keeps no claim of its
  own.

Checks are explicit (``check()``) so experiments drive them from a
:class:`~repro.core.clock.SimulatedClock`; the controller can also run
them from a background thread at ``heartbeat_interval``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.core.clock import Clock, wall_clock
from repro.errors import DriverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.backend import Backend
    from repro.cluster.recovery.dumper import DatabaseDumper
    from repro.cluster.scheduler import RequestScheduler


class FailureDetector:
    """Polls backend liveness; auto-disables and auto-resyncs through the
    scheduler so every state flip stays atomic with the write path."""

    def __init__(
        self,
        scheduler: "RequestScheduler",
        clock: Clock = wall_clock,
        max_misses: int = 2,
        dumper_factory: Optional[Callable[[], "DatabaseDumper"]] = None,
    ) -> None:
        if max_misses < 1:
            raise ValueError("max_misses must be >= 1")
        self._scheduler = scheduler
        self._clock = clock
        self.max_misses = max_misses
        self._dumper_factory = dumper_factory
        #: Consecutive missed heartbeats per backend in the rotation.
        self._misses: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.checks = 0
        self.failures_detected = 0
        self.backends_disabled = 0
        self.backends_resynced = 0
        self.last_check_at: Optional[float] = None

    # -- one detection round ------------------------------------------------------

    def check(self) -> Dict[str, Any]:
        """Ping every backend once; returns a report of what changed."""
        from repro.cluster.backend import BackendState

        now = self._clock()
        disabled = []
        resynced = []
        pending = []
        for backend in self._scheduler.backends():
            if backend.state == BackendState.RECOVERING:
                # Mid-resync under the scheduler's write lock; pinging
                # would block this round on the backend's own lock.
                continue
            if backend.state == BackendState.DISABLED and backend.disabled_by != "detector":
                # Admin-disabled: we will never act on the result, and the
                # probe would keep reopening the connection the disable
                # deliberately closed (or pay a connect timeout each round
                # against a host down for maintenance). Its miss streak
                # ended when it left the rotation.
                with self._lock:
                    self._misses.pop(backend.name, None)
                continue
            alive = backend.ping()
            if alive:
                backend.last_heartbeat_at = now
            if backend.state == BackendState.ENABLED:
                if alive:
                    with self._lock:
                        self._misses.pop(backend.name, None)
                    continue
                with self._lock:
                    misses = self._misses.get(backend.name, 0) + 1
                    self._misses[backend.name] = misses
                if misses < self.max_misses:
                    pending.append(backend.name)
                    continue
                self._scheduler.checkpoint_and_disable(backend, by="detector")
                with self._lock:
                    self._misses.pop(backend.name, None)
                self.failures_detected += 1
                self.backends_disabled += 1
                disabled.append(backend.name)
            elif backend.state == BackendState.FAILED or (
                backend.state == BackendState.DISABLED and backend.disabled_by == "detector"
            ):
                if not alive:
                    continue
                dumper = self._dumper_factory() if self._dumper_factory else None
                try:
                    self._scheduler.resync_and_enable(backend, dumper=dumper)
                except DriverError:
                    # Open transaction, no healthy dump source, replay
                    # failure... leave it for the next round.
                    pending.append(backend.name)
                    continue
                self.backends_resynced += 1
                resynced.append(backend.name)
        self.checks += 1
        self.last_check_at = now
        return {
            "at": now,
            "disabled": disabled,
            "resynced": resynced,
            "pending": pending,
        }

    # -- observability --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        # Out by this detector's hand and not back in yet.
        auto_disabled = sorted(
            backend.name
            for backend in self._scheduler.backends()
            if backend.disabled_by == "detector"
        )
        with self._lock:
            return {
                "checks": self.checks,
                "failures_detected": self.failures_detected,
                "backends_disabled": self.backends_disabled,
                "backends_resynced": self.backends_resynced,
                "last_check_at": self.last_check_at,
                "max_misses": self.max_misses,
                "auto_disabled": auto_disabled,
                "missing_heartbeats": dict(self._misses),
            }
