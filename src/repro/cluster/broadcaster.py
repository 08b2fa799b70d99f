"""Write broadcast across the replicated backends.

A write must reach every backend hosting the tables it touches — all of
them under RAIDb-1, the placement map's hosting subset under RAIDb-0/2
(the scheduler computes the target list; this layer executes on whatever
it is handed). The broadcaster runs the statement on all target backends
concurrently on a shared thread pool, so a write's wall-clock cost does
not grow with the replica count, and aggregates the per-backend
outcomes; the scheduler then decides what a partial failure means (mark
the backend failed, keep the first success).

``parallel=False`` runs the targets one after another — the benchmarks
compare both modes on latency-injected backends.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.backend import Backend, STATEMENT_FAULTS
from repro.obs import NULL_TRACE

QueryResult = Tuple[List[str], List[Any], int]


@dataclass
class BackendOutcome:
    """Result of one statement on one backend. ``error`` is usually a
    :class:`DriverError`, but any exception the backend raised is
    captured here — see :meth:`WriteBroadcaster._run_batch_one`."""

    backend: Backend
    result: Optional[QueryResult] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BroadcastOutcome:
    """Aggregate of one write across all enabled backends.

    ``outcomes`` preserves the backend list order, so ``result`` (the
    first success in that order) is deterministic regardless of which
    thread finished first.
    """

    outcomes: List[BackendOutcome] = field(default_factory=list)

    @property
    def result(self) -> Optional[QueryResult]:
        for outcome in self.outcomes:
            if outcome.ok:
                return outcome.result
        return None

    @property
    def succeeded(self) -> List[BackendOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failed(self) -> List[BackendOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def failure_messages(self) -> List[str]:
        return [f"{o.backend.name}: {o.error}" for o in self.failed]


@dataclass
class BatchBroadcastOutcome:
    """Aggregate of one *batch* of statements across the target backends.

    ``outcomes[b][i]`` is backend ``b``'s outcome for statement ``i`` —
    backend-major because that is how the work is dispatched (one task
    per backend carrying the whole batch). :meth:`per_statement`
    re-slices statement-major so the scheduler can account each
    statement exactly as if it had been broadcast alone."""

    statement_count: int = 0
    outcomes: List[List[BackendOutcome]] = field(default_factory=list)

    def per_statement(self, index: int) -> BroadcastOutcome:
        return BroadcastOutcome([per_backend[index] for per_backend in self.outcomes])


class WriteBroadcaster:
    """Executes an ordered batch of statements — a lone statement is a
    batch of one — on many backends, optionally in parallel."""

    #: Auto-sizing floor: the pool never shrinks below the historical
    #: default, so small clusters keep their headroom for concurrent
    #: disjoint-table broadcasts.
    DEFAULT_MAX_WORKERS = 8

    def __init__(self, parallel: bool = True, max_workers: Optional[int] = None) -> None:
        self.parallel = parallel
        # None = auto-scale: grow the pool to the widest fan-out seen, so
        # a cluster with >8 replicas still broadcasts to all of them at
        # once (a hardcoded 8 serialised the overflow). An explicit value
        # stays fixed — the operator asked for that cap.
        self._configured_max_workers = max_workers if max_workers is None else max(1, max_workers)
        self._pool_size = self._configured_max_workers or self.DEFAULT_MAX_WORKERS
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()
        # Counters are guarded by _lock: the conflict-aware scheduler
        # runs disjoint-table broadcasts through here concurrently.
        self.broadcasts = 0
        self.statements_dispatched = 0
        self.batched_statements = 0
        self._in_flight = 0

    def _get_executor(self, fan_out: int = 0) -> Optional[ThreadPoolExecutor]:
        stale: Optional[ThreadPoolExecutor] = None
        with self._lock:
            if self._closed:
                # A write still in flight when the owner shut down must not
                # resurrect the pool (it would leak); it runs sequentially.
                return None
            if self._configured_max_workers is None and fan_out > self._pool_size:
                # Auto mode: a wider replica set arrived — replace the
                # pool with a bigger one. Statements already submitted to
                # the old pool finish on its threads; it is shut down
                # (without joining) once outside the lock.
                stale, self._executor = self._executor, None
                self._pool_size = fan_out
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._pool_size, thread_name_prefix="broadcast"
                )
            executor = self._executor
        if stale is not None:
            stale.shutdown(wait=False)
        return executor

    def broadcast(
        self,
        backends: List[Backend],
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        trace=NULL_TRACE,
    ) -> BroadcastOutcome:
        """One statement on every target backend: a batch of one."""
        return self.broadcast_batch(backends, [(sql, params)], trace).per_statement(0)

    def broadcast_batch(
        self,
        backends: List[Backend],
        statements: List[Tuple[str, Optional[Dict[str, Any]]]],
        trace=NULL_TRACE,
    ) -> BatchBroadcastOutcome:
        """Execute an ordered batch of statements on every target backend
        — **one task per replica carrying the whole batch**, so the
        round-trip cost of N coalesced writes equals that of one.
        ``trace`` (the round leader's :class:`repro.obs.Trace`) receives
        one ``replica:<name>`` child span per backend under the caller's
        ``execute`` span."""
        with self._lock:
            self.broadcasts += 1  # one fan-out round trip, however many statements
            self.statements_dispatched += len(backends) * len(statements)
            self.batched_statements += len(statements)
            self._in_flight += 1
        try:
            executor = (
                self._get_executor(len(backends))
                if self.parallel and len(backends) > 1
                else None
            )
            if executor is None:
                per_backend = [
                    self._run_batch_one(backend, statements, trace) for backend in backends
                ]
            else:
                futures = [
                    executor.submit(self._run_batch_one, backend, statements, trace)
                    for backend in backends
                ]
                per_backend = [future.result() for future in futures]
            return BatchBroadcastOutcome(statement_count=len(statements), outcomes=per_backend)
        finally:
            with self._lock:
                self._in_flight -= 1

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "parallel": self.parallel,
                "max_workers": self._configured_max_workers,
                "effective_max_workers": self._pool_size,
                "auto_sized": self._configured_max_workers is None,
                "broadcasts": self.broadcasts,
                "statements_dispatched": self.statements_dispatched,
                # Every fan-out is a batch round (of one, for a lone
                # statement): same count, key kept for dashboards.
                "batch_broadcasts": self.broadcasts,
                "batched_statements": self.batched_statements,
                "in_flight": self._in_flight,
            }

    @staticmethod
    def _run_batch_one(
        backend: Backend,
        statements: List[Tuple[str, Optional[Dict[str, Any]]]],
        trace=NULL_TRACE,
    ) -> List[BackendOutcome]:
        backend.begin_request()
        started = time.monotonic()
        try:
            pairs = backend.execute_batch(statements)
        except Exception as exc:  # noqa: BLE001 - aggregated per backend
            # Catch *everything*, not just DriverError: execute_batch
            # captures per-statement faults itself, so anything escaping
            # it (driver bug, broken connection object) is a replica-level
            # fault poisoning the whole batch on this backend. Letting it
            # re-raise out of future.result() would drop every sibling
            # outcome — the scheduler would never see which backends had
            # already applied the write, so the failing backend would
            # never be marked FAILED and would silently diverge. A
            # non-DriverError is a replica fault by definition (it is not
            # one of STATEMENT_FAULTS), so the scheduler fails the backend
            # exactly as for a dead connection.
            pairs = [(None, exc)] * len(statements)
        finally:
            backend.finish_request()
        outcomes = []
        # The span name carries the backend; the error attr only appears
        # when the replica itself failed (it raised, or some position
        # failed with a non-statement fault), so the common-case record
        # stays a bare [name, start, duration] on the wire.
        attrs: Dict[str, Any] = {}
        for result, error in pairs:
            outcomes.append(BackendOutcome(backend, result, error))
            if error is not None and not isinstance(error, STATEMENT_FAULTS):
                attrs = {"error": True}
        trace.record(
            f"replica:{backend.name}", started, time.monotonic(), parent="execute", **attrs
        )
        return outcomes

    def close(self) -> None:
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    def reopen(self) -> None:
        """Allow parallel broadcasting again (a restarted controller)."""
        with self._lock:
            self._closed = False
