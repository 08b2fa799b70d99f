"""Backend management: the controller's view of one database replica.

A backend wraps the way the controller reaches one underlying database —
by default through the conventional legacy driver, or through a
Drivolution bootloader when the controller itself uses Drivolution for its
database drivers (hybrid deployment, paper Section 5.3.2 / Figure 6).

Backends can be *disabled* (maintenance, driver upgrade, failure) and
later *re-enabled and resynchronised* from the recovery log: the paper's
"nodes must be temporarily disabled and re-enabled to renew all
connections around a consistent checkpoint".
"""

from __future__ import annotations

import enum
import threading
from typing import Any, Callable, Container, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.recovery.dumper import DatabaseDump, DatabaseDumper
from repro.cluster.recovery.logstore import LogEntry
from repro.dbapi.exceptions import (
    DataError,
    IntegrityError,
    NotSupportedError,
    OperationalError,
    ProgrammingError,
)
from repro.errors import DriverError

#: Errors that blame the statement, not the replica or its connection: bad
#: SQL or a constraint violation must not tear down the backend connection
#: (the server session owns any open transaction, and reconnecting would
#: silently roll it back), and the scheduler uses the same distinction to
#: decide whether a failed write means the backend itself is unhealthy.
STATEMENT_FAULTS = (ProgrammingError, IntegrityError, DataError, NotSupportedError)

#: Resync replays the log tail through execute_batch in chunks of this
#: many entries, bounding what one flush holds. A chunk is one request
#: only on a connection with a native batch; the pydb wire has no batch
#: request, so there the replay still costs one round trip per entry.
_RESYNC_BATCH_SIZE = 128


class ReplicaLeft(OperationalError):
    """A request found its replica out of the rotation (a disable) after
    choosing the shared connection and before sending on it: a connection
    fault that fails no replica, which left on purpose and may be back by
    the time the fault is handled."""


QueryResult = Tuple[List[str], List[Any], int]
#: One statement's outcome on one replica, positionally: its result, or
#: the exception it raised.
Outcome = Tuple[Optional[QueryResult], Optional[Exception]]


def _run_cursor(connection: Any, sql: str, params: Optional[Dict[str, Any]]) -> QueryResult:
    """One statement through the plain DB-API cursor: the request of a
    connection with no split form, run to completion."""
    cursor = connection.cursor()
    cursor.execute(sql, params or {})
    columns = [item[0] for item in (cursor.description or [])]
    rows = cursor.fetchall()
    rowcount = cursor.rowcount
    cursor.close()
    return columns, rows, rowcount


class Lease:
    """One backend's connection for one session's transaction, checked
    out of the backend's idle set (or opened) by the transaction's first
    statement there, which sends BEGIN on it first: a connection that
    can carry a BEGIN with its next request answers it without one
    (:class:`repro.dbapi.runtime.WireConnection`). Once its connection
    closed — a fault, or the backend leaving the rotation — the lease is
    dead: the transaction's share on that replica rolled back, and the
    lease never opens another."""

    __slots__ = ("backend", "connection", "begun")

    def __init__(self, backend: "Backend") -> None:
        self.backend = backend
        self.connection: Any = None
        self.begun = False

    @property
    def live(self) -> bool:
        """Whether the transaction is open on the connection: it is, and
        says so (``in_transaction``: a BEGIN owed, or the replica's word
        on its last reply), or says nothing."""
        connection = self.connection
        return (
            connection is not None
            and not getattr(connection, "closed", False)
            and getattr(connection, "in_transaction", True)
        )

    def open(self) -> Any:
        """The lease's connection, checked out by the first call — all a
        lease's request takes the backend's lock for; :meth:`begin` opens
        the transaction on it, outside that lock."""
        if self.connection is None:
            self.connection = self.backend._checkout()
        elif getattr(self.connection, "closed", False):
            raise OperationalError(f"the transaction's connection to {self.backend.name} was closed")
        return self.connection

    def begin(self) -> None:
        """Send BEGIN on the connection, once: by its ``begin()`` where it
        has one (every connection of this package's DB-API does)."""
        if self.begun:
            return
        self.begun = True
        connection = self.connection
        try:
            if hasattr(connection, "begin"):
                connection.begin()
            else:
                _run_cursor(connection, "BEGIN", None)
        except Exception as exc:
            self.backend._drop_connection(self.connection)
            raise OperationalError(f"BEGIN failed on {self.backend.name}: {exc}") from exc


class ReplicaBatch:
    """One backend's share of a round: an ordered batch of statements,
    put on the wire one request at a time.

    :meth:`send` issues the next request — one statement, or the whole
    rest of the batch on a connection with a native ``execute_batch`` —
    and :meth:`collect` waits for its reply, so a caller holding several
    of these sends to every replica before it waits on any. What lets a
    reply arrive while the caller sends elsewhere is the connection's
    *split form*: ``send_execute(sql, params)`` or ``send_batch(pairs)``
    puts the request on the wire and returns its collect, a
    zero-argument callable that waits for the reply and returns what
    ``cursor.execute`` + ``fetchall`` (or ``execute_batch``) would. A
    connection without one runs the request inside :meth:`send`, which
    then completes at once and leaves :meth:`collect` nothing to do. The
    pydb wire has no batch request: a round of N statements is N requests.

    A connection keeps itself exclusive from a request's send to its
    reply (the pydb connection's exchange lock). The backend's lock
    covers choosing the shared connection, and the request goes on the
    wire after it is let go, so no request waits for a connection with
    it held (on a connection without a split form the whole request runs
    under it); a lease's request takes it only to check its connection
    out.

    ``outcomes`` fills positionally: a statement fault is that
    statement's outcome alone; anything else is a connection fault,
    which drops the connection and fails every statement not yet
    answered, none of which is then sent. A BEGIN is sent like any
    statement: a connection that can carry it with its next request
    answers it without one (:class:`repro.dbapi.runtime.WireConnection`).

    The batch is in flight (``Backend.pending``) until :meth:`finish`,
    which counts what a lease's connection says the replica ran (its
    BEGIN included), else the statements that succeeded: the shared
    connection carries no BEGIN, and other requests use it meanwhile.

    The statements run on the backend's own connection, auto-commit, or
    on ``lease``'s: a transaction's."""

    def __init__(
        self,
        backend: "Backend",
        statements: List[Tuple[str, Optional[Dict[str, Any]]]],
        track: bool = True,
        batched: bool = True,
        lease: Optional[Lease] = None,
    ) -> None:
        self.backend = backend
        self._lease = lease
        self._statements = statements
        self._track = track
        #: Whether a connection's native batch may carry the statements
        #: (``Backend.execute`` keeps a lone statement on the statement form).
        self._batched = batched
        self.outcomes: List[Outcome] = []
        self._total = len(statements)
        self.done = not statements
        #: Whether a connection fault answered any statement.
        self.faulted = False
        self.executed = 0
        backend.begin_request()
        self._connection: Any = None
        self._native = False
        #: How many statements the request being sent or awaited carries.
        self._carried = 0
        self._collect: Optional[Callable[[], Any]] = None
        #: A lease's connection's ``statements_executed`` before the request.
        self._ran_before: Optional[int] = None

    def send(self) -> None:
        """Issue the next request (a no-op once every statement has its
        outcome). Call :meth:`collect` before the next send."""
        if self.done:
            return
        self._carried = self._total - len(self.outcomes)
        self._connection = None
        try:
            lease = self._lease
            if lease is None:
                self._send_shared()
                return
            connection = lease.open()
            self._ran_before = getattr(connection, "statements_executed", None)
            lease.begin()
            call, args, split = self._prepare(connection)
            if split:
                self._collect = call(*args)
            else:
                self._settle(call, *args)
        except Exception as exc:  # noqa: BLE001 - the statements' outcome
            self._fail(exc)

    def _send_shared(self) -> None:
        """Put the request on the backend's shared connection, chosen
        under the backend's lock and sent after it is let go. A driver
        swap or a disable may close that connection in between: then the
        request, which never went out, goes on the backend's current
        connection while the backend is ENABLED, and is otherwise
        :class:`ReplicaLeft` (no connection is opened to a replica that
        left the rotation)."""
        backend = self.backend
        while True:
            with backend._lock:
                connection = backend._ensure_connection()
                call, args, split = self._prepare(connection)
                if not split:
                    self._settle(call, *args)
                    return
            try:
                self._collect = call(*args)
                return
            except Exception as exc:
                with backend._lock:
                    if not getattr(connection, "closed", False) or connection is backend._connection:
                        raise
                    if not backend.enabled:
                        raise ReplicaLeft(
                            f"{backend.name} left the rotation before the request was sent"
                        ) from exc

    def _prepare(self, connection: Any) -> Tuple[Callable[..., Any], Tuple[Any, ...], bool]:
        """The next request on ``connection``: what to call, with which
        arguments, and whether the call is a split form (it puts the
        request on the wire and returns its collect) or runs it whole."""
        self._connection = connection
        position = len(self.outcomes)
        self._native = self._batched and (
            hasattr(connection, "send_batch") or hasattr(connection, "execute_batch")
        )
        if self._native:
            pairs = [(sql, dict(params or {})) for sql, params in self._statements[position:]]
            split = getattr(connection, "send_batch", None)
            if split is None:
                return connection.execute_batch, (pairs,), False
            return split, (pairs,), True
        sql, params = self._statements[position]
        self._carried = 1
        split = getattr(connection, "send_execute", None)
        if split is None:
            return _run_cursor, (connection, sql, params), False
        return split, (sql, params or {}), True

    def collect(self) -> None:
        """Wait for the request in flight, if any, and record its reply."""
        collect, self._collect = self._collect, None
        if collect is not None:
            self._settle(collect)

    def _settle(self, reply: Callable[..., Any], *args: Any) -> None:
        """Record what ``reply(*args)`` returns — or raises — for the
        statements the request carried."""
        try:
            value = reply(*args)
            answered = self._native_outcomes(value) if self._native else [(value, None)]
        except Exception as exc:  # noqa: BLE001 - the statements' outcome
            self._fail(exc)
        else:
            self.outcomes += answered
            self.done = len(self.outcomes) == self._total
            if self._ran_before is None:
                self.executed += sum(error is None for _, error in answered) if self._native else 1
        if self._ran_before is not None:
            self.executed += self._connection.statements_executed - self._ran_before

    def finish(self) -> None:
        """Leave flight: take a reply still awaited (a round aborted
        part-way), so the next request on the connection gets its own,
        then settle the backend's counts in one pass of its pending lock."""
        if self._collect is not None:
            self.collect()
        self.backend.finish_request(self.executed if self._track else 0)

    def _native_outcomes(self, value: Any) -> List[Outcome]:
        if not isinstance(value, list) or len(value) != self._carried:
            raise DriverError(
                f"native batch returned "
                f"{len(value) if isinstance(value, list) else type(value).__name__}"
                f" outcomes for {self._carried} statements"
            )
        answered: List[Outcome] = []
        for item in value:
            if isinstance(item, Exception):
                self.faulted = self.faulted or not isinstance(item, STATEMENT_FAULTS)
                answered.append((None, item))
            else:
                columns, rows, rowcount = item
                answered.append(((columns, rows, rowcount), None))
        return answered

    def _fail(self, exc: Exception) -> None:
        count = self._carried
        if not isinstance(exc, STATEMENT_FAULTS):
            # The connection (or the replica) failed: drop it so the next
            # call reconnects, and send nothing more on it — order means
            # later statements must not run past a dead connection.
            self.backend._drop_connection(self._connection)
            self.faulted = True
            count = self._total - len(self.outcomes)
        self.outcomes.extend([(None, exc)] * count)
        self.done = len(self.outcomes) == self._total


def _close_quietly(connection: Any) -> None:
    try:
        connection.close()
    except Exception:  # noqa: BLE001 - it is going away either way
        pass


def _probe(connection: Any) -> bool:
    """Whether ``connection`` answers its PING, or a trivial SELECT when
    it has no PING exchange."""
    probe = getattr(connection, "ping", None)
    try:
        if callable(probe):
            return bool(probe())
        connection.cursor().execute("SELECT 1")
        return True
    except Exception:  # noqa: BLE001 - any failure means the replica did not answer
        return False


# -- the replay rule: plain values in, a verdict out ---------------------------

#: Verdicts of :func:`replay_step`.
REGRESSED, BEHIND, APPLIED, UNHOSTED, APPLY = "regressed", "behind", "applied", "unhosted", "apply"


class AppliedSeqs:
    """Exactly which per-table sequence numbers (``LogEntry.table_seqs``)
    a backend applied: ``(table, seq) in applied``. Exact, not a maximum:
    under key-level locks a replica can apply N+1 while missing N. A
    floor per table collapses the contiguous prefix, so memory is
    bounded by the number of gaps."""

    __slots__ = ("_floor", "_sparse")

    def __init__(self) -> None:
        self._floor: Dict[str, int] = {}
        self._sparse: Dict[str, Set[int]] = {}

    def add(self, table_seqs: Dict[str, int]) -> None:
        for table, seq in table_seqs.items():
            floor = self._floor.get(table, 0)
            if seq <= floor:
                continue
            if seq == floor + 1 and table not in self._sparse:  # no gap to close
                self._floor[table] = seq
                continue
            sparse = self._sparse.setdefault(table, set())
            sparse.add(seq)
            while floor + 1 in sparse:
                floor += 1
                sparse.discard(floor)
            self._floor[table] = floor
            if not sparse:
                del self._sparse[table]

    def __contains__(self, pair: Tuple[str, int]) -> bool:
        table, seq = pair
        return seq <= self._floor.get(table, 0) or seq in self._sparse.get(table, ())


def replay_step(
    entry: LogEntry,
    checkpoint: int,
    applied: Container[Tuple[str, int]],
    floor: Dict[str, int],
    entry_filter: Optional[Callable[[LogEntry], bool]] = None,
) -> Tuple[str, Dict[str, int]]:
    """What a replay does with one log entry: ``(verdict, floor)``, where
    ``floor`` holds each table's last sequence this replay saw.
    ``REGRESSED`` when a sequence does not follow the floor (the log is
    ordered backwards for that table). Otherwise skip it at or below the
    ``checkpoint`` (``BEHIND``), when every sequence is in ``applied``
    (``APPLIED``: a concurrent round can clamp a checkpoint below a write
    this replica did apply, and a second run of it fails), or when
    ``entry_filter`` says no table of it is hosted (``UNHOSTED``); else
    ``APPLY`` it."""
    seqs = entry.table_seqs
    if any(seq <= floor.get(table, 0) for table, seq in seqs.items()):
        return REGRESSED, floor
    if seqs:
        floor = {**floor, **seqs}
    if entry.index <= checkpoint:
        return BEHIND, floor
    if seqs and all(pair in applied for pair in seqs.items()):
        return APPLIED, floor
    if entry_filter is not None and not entry_filter(entry):
        return UNHOSTED, floor
    return APPLY, floor


class BackendState(enum.Enum):
    ENABLED = "enabled"
    DISABLED = "disabled"
    RECOVERING = "recovering"
    FAILED = "failed"


class Backend:
    """One database replica behind a controller.

    ``connection_factory`` opens a fresh DB-API connection to the replica;
    auto-commit statements share the backend's own connection, re-opened
    when the factory changes (e.g. after a driver upgrade) or after a
    failure, and each open transaction runs on one checked out for it
    (:class:`Lease`).
    """

    def __init__(self, name: str, connection_factory: Callable[[], Any]) -> None:
        self.name = name
        self._connection_factory = connection_factory
        self._connection: Optional[Any] = None
        #: Connections for transactions (:class:`Lease`): idle ones, and
        #: those checked out now.
        self._idle: List[Any] = []
        self._leased: Set[Any] = set()
        self.state = BackendState.ENABLED
        #: Who took this backend out of the rotation (``"admin"`` or
        #: ``"detector"``); None while it is in. The failure detector
        #: revives only what it disabled itself: operator intent outranks
        #: liveness.
        self.disabled_by: Optional[str] = None
        #: Index of the last recovery-log entry applied to this backend.
        self.checkpoint_index = 0
        self._lock = threading.RLock()
        #: Which per-table sequences were applied here: a replay wider
        #: than the checkpoint skips them (:func:`replay_step`).
        self.applied_seqs = AppliedSeqs()
        #: Statements the replica ran (observability; under ``_pending_lock``):
        #: a BEGIN counts once a request carried it, a BEGIN or COMMIT its
        #: connection answered never.
        self.statements_executed = 0
        #: When the failure detector last saw this backend answer a ping.
        self.last_heartbeat_at: float = 0.0
        self._pending = 0
        #: Guards ``_pending`` and ``statements_executed``; not ``_lock``, which
        #: the next request on a connection may hold while it waits for it.
        self._pending_lock = threading.Lock()

    # -- in-flight accounting ----------------------------------------------------

    @property
    def pending(self) -> int:
        """Statements currently in flight (drives the least-pending policy)."""
        return self._pending

    def begin_request(self) -> None:
        with self._pending_lock:
            self._pending += 1

    def finish_request(self, executed: int = 0) -> None:
        """A request left flight; the replica ran ``executed`` statements."""
        with self._pending_lock:
            self._pending -= 1
            self.statements_executed += executed

    # -- connection management -------------------------------------------------

    def _ensure_connection(self) -> Any:
        """The shared connection, (re)opened if need be; caller holds ``_lock``."""
        if self._connection is None or getattr(self._connection, "closed", False):
            self._connection = self._connection_factory()
        return self._connection

    def _checkout(self) -> Any:
        """A connection for one transaction: an idle one, or a new one."""
        with self._lock:
            while self._idle:
                connection = self._idle.pop()
                if not getattr(connection, "closed", False):
                    break
            else:
                connection = self._connection_factory()
            self._leased.add(connection)
            return connection

    def checkin(self, lease: Lease, clean: bool) -> None:
        """Take back a transaction's connection once it ended: idle for
        the next transaction if ``clean`` (its COMMIT or ROLLBACK ran) and
        the backend is in the rotation, else closed."""
        connection = lease.connection
        if connection is None:
            return
        with self._lock:
            self._leased.discard(connection)
            if clean and self.enabled and not getattr(connection, "closed", False):
                if connection is not self._connection:
                    self._idle.append(connection)
                return
        if connection is not self._connection:
            _close_quietly(connection)

    def replace_connection_factory(self, factory: Callable[[], Any]) -> None:
        """Swap how this backend connects (e.g. a new database driver).

        The current connection is closed so the next statement uses the new
        factory — the per-backend "renew all connections" step of the
        paper's database driver upgrade procedure.
        """
        self._connection_factory = factory
        self.close_connection()

    def close_connection(self) -> None:
        """Close every connection to the replica: its own, the idle ones
        and those checked out for transactions, whose shares on the
        replica roll back with them. A connection waits for a reply in
        flight on it before it closes, so the closing happens outside
        the backend's lock."""
        with self._lock:
            connections = {id(c): c for c in [self._connection, *self._idle, *self._leased] if c is not None}
            self._connection = None
            self._idle.clear()
            self._leased.clear()
        for connection in connections.values():
            _close_quietly(connection)

    def _drop_connection(self, failed: Any) -> None:
        """Close ``failed`` after it failed, and forget it if it is the
        cached one — a failure reported after a reconnect (a shared
        connection, closed and replaced while the call was in flight)
        must not close its successor."""
        if failed is None:
            return
        with self._lock:
            if self._connection is failed:
                self._connection = None
            self._leased.discard(failed)
        _close_quietly(failed)

    # -- statement execution ---------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        track: bool = True,
        lease: Optional[Lease] = None,
    ):
        """Run one statement on the replica, returning (columns, rows, rowcount),
        auto-commit or on ``lease``'s connection.

        ``track=False`` leaves ``statements_executed`` untouched — for
        controller-internal catalog probes (primary-key resolution) that
        are not client work and would skew the observability counter."""
        ((result, error),) = self._run(ReplicaBatch(self, [(sql, params)], track, batched=False, lease=lease))
        if error is not None:
            raise error
        return result

    def execute_batch(
        self,
        statements: List[Tuple[str, Optional[Dict[str, Any]]]],
        track: bool = True,
    ) -> List[Outcome]:
        """Run an ordered list of ``(sql, params)`` pairs: a round with
        this backend as its one target (:class:`ReplicaBatch`). Returns
        one ``(result, error)`` pair per statement, positionally; a
        connection fault fails the statement *and everything after it*.
        A connection with a native ``execute_batch(pairs)`` gets the whole
        list as one request and must return one ``(columns, rows,
        rowcount)`` triple or Exception per statement (the pydb wire has
        none: there each statement is its own request). Requests on one
        connection serialise on its own lock, from send to reply; the
        backend's lock covers only choosing the shared connection."""
        return self._run(ReplicaBatch(self, statements, track))

    def _run(self, batch: ReplicaBatch) -> List[Outcome]:
        """A round with this backend as its one target."""
        try:
            while not batch.done:
                batch.send()
                batch.collect()
        finally:
            batch.finish()
        return batch.outcomes

    def ping(self) -> bool:
        """Liveness probe: can the replica still answer?

        Uses the connection's own PING exchange when the driver offers
        one, otherwise a trivial SELECT. The shared connection is chosen
        under the backend's lock. One with a split form (``send_execute``)
        guards its own exchange, so it is probed after the lock is let go
        and a probe waiting behind a reply in flight holds up nothing else
        on the backend; one without may rely on the backend's lock to
        serialise its use, as a request on it does (``_send_shared``), so
        it is probed under that lock. A failed probe closes the probed
        connection (never a successor) so the next probe (or statement)
        reconnects fresh."""
        try:
            with self._lock:
                connection = self._ensure_connection()
                alive = None if hasattr(connection, "send_execute") else _probe(connection)
        except Exception:
            self.close_connection()
            return False
        if alive is None:
            alive = _probe(connection)
        if not alive:
            self._drop_connection(connection)
        return alive

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.state == BackendState.ENABLED

    def advance_checkpoint(
        self, index: Optional[int], table_seqs: Sequence[Dict[str, int]] = ()
    ) -> None:
        """Record ``table_seqs`` (one dict per log entry) as applied here,
        and move the checkpoint forward to ``index`` unless it is None.
        Whether a backend may advance is the round's rule
        (``scheduler.checkpoint_moves``); a successful execution is ground
        truth in any state, so the sequences are recorded either way."""
        with self._lock:
            for seqs in table_seqs:
                self.applied_seqs.add(seqs)
            if index is not None and index > self.checkpoint_index:
                self.checkpoint_index = index

    def limit_checkpoint(self, index: int) -> None:
        """Clamp the checkpoint down to ``index``, so an entry this
        backend missed stays in the next resync's replay range."""
        with self._lock:
            if index < self.checkpoint_index:
                self.checkpoint_index = index

    def disable(self, checkpoint_index: int, by: str = "admin") -> None:
        """Stop sending work to this backend, recording its checkpoint
        and who took it out."""
        with self._lock:
            self.state = BackendState.DISABLED
            self.checkpoint_index = checkpoint_index
            self.disabled_by = by
        self.close_connection()

    def mark_failed(self) -> None:
        with self._lock:
            self.state = BackendState.FAILED
        self.close_connection()

    def initialize_from_dump(
        self,
        dump: DatabaseDump,
        dumper: Optional[DatabaseDumper] = None,
        wipe_filter: Optional[Callable[[str], bool]] = None,
    ) -> int:
        """Cold-start this backend from a database dump.

        Wipes the replica's user tables (all of them, or only those
        ``wipe_filter`` returns True for — a partial replica keeps local
        tables no sibling can re-supply), replays the dump's schema and
        rows, and records the dump's checkpoint so a subsequent
        :meth:`resync` replays only the log tail written after the dump.
        The backend stays DISABLED — the scheduler's resync path flips it
        to ENABLED atomically with the write path. Returns the number of
        statements the restore executed."""
        dumper = dumper or DatabaseDumper()
        with self._lock:
            self.state = BackendState.RECOVERING
            try:
                statements = dumper.restore(dump, self.execute, wipe_filter=wipe_filter)
            except Exception:
                self.state = BackendState.FAILED
                raise
            self.checkpoint_index = dump.checkpoint_index
            # The restored state is exactly the dump's: any per-table
            # sequence recorded before the wipe is about rows that no
            # longer exist, and keeping it would make the tail replay
            # skip entries the restored state actually needs.
            self.applied_seqs = AppliedSeqs()
            self.state = BackendState.DISABLED
            return statements

    def resync(
        self,
        entries: List[LogEntry],
        entry_filter: Optional[Callable[[LogEntry], bool]] = None,
    ) -> int:
        """Replay missed writes and re-enable the backend: each entry's
        fate is :func:`replay_step`'s. ``entry_filter`` (partial
        replication) says whether this replica hosts an entry's tables;
        a skipped entry still advances the checkpoint — the replica is
        consistent with it by not hosting its tables, or by having
        applied it already. Returns the number of log entries executed.
        """
        with self._lock:
            self.state = BackendState.RECOVERING
            replayed = 0
            floor: Dict[str, int] = {}
            # Replayable entries accumulate and are applied through
            # execute_batch in chunks: on a connection with a native
            # batch a long tail replay costs one round trip per chunk
            # (on pydb still one per entry; see _RESYNC_BATCH_SIZE). A
            # chunk is flushed before any *skipped* entry advances the
            # checkpoint, so the checkpoint never claims an index whose
            # predecessors are still unapplied.
            pending: List[LogEntry] = []

            def flush() -> None:
                nonlocal replayed
                if not pending:
                    return
                batch = [(entry.sql, entry.params) for entry in pending]
                for entry, (result, error) in zip(pending, self.execute_batch(batch)):
                    if error is not None:
                        raise error
                    replayed += 1
                    self.applied_seqs.add(entry.table_seqs)
                    self.checkpoint_index = entry.index
                pending.clear()

            try:
                for entry in entries:
                    verdict, floor = replay_step(
                        entry, self.checkpoint_index, self.applied_seqs, floor, entry_filter
                    )
                    if verdict == REGRESSED:
                        raise DriverError(
                            f"recovery log violates per-table order: sequences "
                            f"{entry.table_seqs} at index {entry.index} do not follow {floor}"
                        )
                    if verdict == APPLY:
                        pending.append(entry)
                        if len(pending) >= _RESYNC_BATCH_SIZE:
                            flush()
                    elif verdict != BEHIND:
                        flush()
                        self.checkpoint_index = entry.index
                flush()
            except Exception:
                # A replay that stops half-way leaves the replica behind
                # its peers; it must not re-enter the read rotation.
                self.state = BackendState.FAILED
                raise
            self.state = BackendState.ENABLED
            self.disabled_by = None
            return replayed
