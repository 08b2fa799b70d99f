"""Write broadcast across the replicated backends.

A write must reach every backend hosting the tables it touches — all of
them under RAIDb-1, the placement map's hosting subset under RAIDb-0/2
(the scheduler computes the target list; this layer executes on whatever
it is handed). The broadcaster runs a round split-phase on the calling
thread: in each step every target's next request goes out before any
reply is awaited, then every reply is collected, so a write's wall-clock
cost does not grow with the replica count and no other thread is woken.
It aggregates the per-backend outcomes; the scheduler then decides what
a partial failure means (mark the backend failed, keep the first
success).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.backend import (
    STATEMENT_FAULTS,
    Backend,
    Lease,
    Outcome,
    QueryResult,
    ReplicaBatch,
)
from repro.obs import NULL_TRACE


@dataclass(slots=True)
class BackendOutcome:
    """Result of one statement on one backend. ``error`` is usually a
    :class:`DriverError`, but any exception the backend raised is
    captured here — see :meth:`WriteBroadcaster.broadcast_batch`."""

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
    replica answered first.
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
    backend-major because that is how the work is dispatched (each
    backend works through the whole batch in order). :meth:`per_statement`
    re-slices statement-major so the scheduler can account each
    statement exactly as if it had been broadcast alone."""

    statement_count: int = 0
    outcomes: List[List[BackendOutcome]] = field(default_factory=list)

    def per_statement(self, index: int) -> BroadcastOutcome:
        return BroadcastOutcome([per_backend[index] for per_backend in self.outcomes])


class _Synchronous:
    """A target with no split form — anything that offers only
    ``execute_batch`` (a stand-in for a :class:`Backend`): its whole
    batch runs inside :meth:`send`, which completes at once."""

    def __init__(self, backend: Any, statements: List[Tuple[str, Optional[Dict[str, Any]]]]) -> None:
        self.backend = backend
        self._statements = statements
        self.outcomes: List[Outcome] = []
        self.done = not statements
        self.faulted = False

    def send(self) -> None:
        try:
            self.outcomes = list(self.backend.execute_batch(self._statements))
        except Exception as exc:  # noqa: BLE001 - the target's outcome
            self.outcomes = [(None, exc)] * len(self._statements)
        self.done = True
        self.faulted = any(
            error is not None and not isinstance(error, STATEMENT_FAULTS) for _, error in self.outcomes
        )

    def collect(self) -> None:
        pass

    finish = collect


def _send_order(batch: Any) -> Tuple[str, int]:
    return batch.backend.name, id(batch.backend)


class WriteBroadcaster:
    """Executes an ordered batch of statements — a lone statement is a
    batch of one — on many backends, overlapping them."""

    def __init__(self) -> None:
        # Concurrent rounds (disjoint lock scopes) count here at once.
        self._counts_lock = threading.Lock()
        self._broadcasts = 0
        self._statements_dispatched = 0
        self._batched_statements = 0

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
        leases: Optional[Dict[Backend, Lease]] = None,
    ) -> BatchBroadcastOutcome:
        """Execute an ordered batch of statements on every target backend
        in one round on the calling thread. Each step sends every
        unfinished target its next request — the whole batch at once on a
        connection with a native batch, so the round-trip cost of N
        coalesced writes equals that of one — and then collects every
        reply; a target's statements arrive in batch order with at most
        one request in flight. Any exception from a target becomes that
        target's outcome. ``trace`` (the round leader's
        :class:`repro.obs.Trace`) receives one ``replica:<name>`` child
        span per backend under the caller's ``execute`` span. With
        ``leases`` (a transaction's round) each target runs the batch on
        its lease's connection instead of its own."""
        count = len(statements)
        with self._counts_lock:
            self._broadcasts += 1  # one fan-out round trip, however many statements
            self._statements_dispatched += len(backends) * count
            self._batched_statements += count
        batches = [
            ReplicaBatch(backend, statements, lease=leases[backend] if leases else None)
            if isinstance(backend, Backend)
            else _Synchronous(backend, statements)
            for backend in backends
        ]
        # Every round sends in one fixed order, by backend name: a round
        # holds each connection's own lock (the pydb exchange lock) from
        # its send until it collects, so two rounds taking those locks
        # in different orders could deadlock. The name is the one order
        # every caller can agree on whatever list it passes (placement
        # subsets, a membership change between two snapshots), and it
        # keeps which replica hears a write first reproducible.
        pending = sorted(batches, key=_send_order)
        try:
            started = time.monotonic()
            while pending:
                for batch in pending:
                    batch.send()
                for batch in pending:
                    batch.collect()
                    if batch.done:
                        # An error attr only when the replica itself failed (a
                        # connection fault), so the common record stays bare.
                        trace.record(
                            f"replica:{batch.backend.name}", started, time.monotonic(),
                            parent="execute", **({"error": True} if batch.faulted else {}),
                        )
                pending = [batch for batch in pending if not batch.done]
        finally:
            for batch in batches:
                batch.finish()
        return BatchBroadcastOutcome(
            statement_count=count,
            outcomes=[
                [BackendOutcome(batch.backend, result, error) for result, error in batch.outcomes]
                for batch in batches
            ],
        )

    def stats(self) -> Dict[str, Any]:
        return {
            "broadcasts": self._broadcasts,
            "statements_dispatched": self._statements_dispatched,
            # Every fan-out is a batch round (of one, for a lone
            # statement): same count, key kept for dashboards.
            "batch_broadcasts": self._broadcasts,
            "batched_statements": self._batched_statements,
        }

    def close(self) -> None:
        """Nothing to release — a round runs on its caller's thread; kept
        so an owner may close what it built."""
