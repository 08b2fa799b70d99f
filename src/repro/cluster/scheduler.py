"""Request scheduling: the controller's routing hot path.

The scheduler orchestrates :mod:`~repro.cluster.classifier` (what a
statement is, reads and writes), :mod:`~repro.cluster.placement` (which
backends host which tables, RAIDb-0/1/2), :mod:`~repro.cluster.loadbalancer`
(one backend per read), :mod:`~repro.cluster.broadcaster` (a write round
on the hosting backends) and :mod:`~repro.cluster.querycache` (an
optional SELECT-result cache invalidated by the tables writes touch).

A read goes to one enabled backend hosting all its tables; a
connection fault fails that backend and the read moves on. A write goes
to every enabled backend hosting a table it writes (every one, for an
unknown table set), under the one :class:`LockScope` the
:class:`~repro.cluster.lockscope.ScopeResolver` gives it — its rows,
else its tables, else the exclusive footprint — so disjoint writes run
in parallel and conflicting ones serialise; per-table log order is
execution order, and per-table sequence numbers let replay verify it.

A transaction belongs to its session (:class:`_Transaction`): BEGIN
sends nothing, its first statement on a backend checks a connection out
for it there (:class:`~repro.cluster.backend.Lease`), its writes hold
their scopes until it ends (strict two-phase locking), and its COMMIT
runs on its own connections and then logs its buffer, so log order is
COMMIT order. Auto-commit statements keep each backend's own connection.

The write round's decisions are the rule functions below, plain values
in and a verdict out; :class:`RequestScheduler` is their shell, and
``tests/write_explorer.py`` drives them through every short sequence of
events (docs/scheduling.md §5).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cluster.backend import STATEMENT_FAULTS, Backend, Lease, QueryResult, ReplicaLeft
from repro.cluster.broadcaster import BackendOutcome, WriteBroadcaster
from repro.cluster.classifier import (
    DML_COMMANDS,
    ClassifiedStatement,
    classify,
    is_transaction_control,
    is_write_statement,
    normalize_table_name,
)
from repro.cluster.loadbalancer import ReadPolicy, RoundRobinPolicy
from repro.cluster.locks import LockManager, LockScope, Refused
from repro.cluster.lockscope import ScopeResolver
from repro.cluster.placement import NoHostingBackendError, PlacementMap, create_placement
from repro.cluster.querycache import QueryCache
from repro.cluster.recovery import (
    DatabaseDump,
    DatabaseDumper,
    GroupCommit,
    LogCompactedError,
    RecoveryLog,
)
from repro.cluster.recovery.logstore import LogEntry
from repro.errors import DriverError
from repro.obs import NULL_TRACE
from repro.sqlengine.errors import SqlParseError
from repro.sqlengine.parser import parse
from repro.sqlengine.statements import Begin

__all__ = [
    "RequestScheduler",
    "SchedulerError",
    "WriteBatcher",
    "LockManager",
    "LockScope",
    "NoHostingBackendError",
    "is_write_statement",
    "is_transaction_control",
]


class SchedulerError(DriverError):
    """The cluster cannot run the request as asked."""


#: DDL commands: they can change what a table's rows are keyed by, so
#: they invalidate the scope resolver.
_SCHEMA_COMMANDS = ("CREATE", "DROP", "ALTER")


# -- the rules: plain values in, a verdict out ----------------------------------

#: Verdicts of :func:`transaction_step`.
FLUSH, DISCARD, KEEP = "flush", "discard", "keep"
#: Verdicts of :func:`write_fate`.
LOG, DEFER, DROP = "log", "defer", "drop"
#: Kinds of move :func:`checkpoint_moves` returns.
ADVANCE, CLAMP = "advance", "clamp"


def round_verdict(replies: Sequence[BackendOutcome]) -> Tuple[Optional[QueryResult], List[Any]]:
    """One statement's round from each target's reply (``backend``,
    ``result``, ``error``): ``(accepted, leaving)``, the first success's
    result (None if none) and the targets that leave the rotation. A
    statement fault on every target blames the statement. A fault where
    others accepted is divergence, and a connection fault loses the
    replica's session: those targets leave until a resync."""
    accepted, faulted = None, []
    for reply in replies:
        if reply.error is not None:
            faulted.append(reply)
        elif accepted is None:
            accepted = reply.result
    if accepted is None:
        faulted = [reply for reply in faulted if not isinstance(reply.error, STATEMENT_FAULTS)]
    return accepted, [reply.backend for reply in faulted]


def transaction_step(alive: bool, command: str, accepted: bool) -> str:
    """One session's open transaction record's step after one of its
    statements (``command``) ran on its replica connections: ``FLUSH``
    it into the log once an accepted COMMIT ended it, ``DISCARD`` it once
    an accepted ROLLBACK did or its connections all dropped and rolled
    it back (not ``alive``), else ``KEEP`` it."""
    if accepted and command in ("COMMIT", "ROLLBACK"):
        return FLUSH if command == "COMMIT" else DISCARD
    return KEEP if alive else DISCARD


def scope_held(in_transaction: bool, is_read: bool) -> bool:
    """Whether a statement's lock scope stays held after it ran, until
    its transaction ends: a write's in a transaction does (strict
    two-phase locking, so no other session writes what it wrote before
    it commits or rolls back, and the log orders conflicting writes as
    they ran); an auto-commit statement's and a read's do not."""
    return in_transaction and not is_read


def write_fate(accepted: bool, ran_in_transaction: bool, still_open: bool) -> str:
    """Where a write goes once its round settled: ``DROP`` one no replica
    accepted (the engine undid it whole, so it changed nothing, and a
    replay would poison every later resync), ``LOG`` an auto-commit one,
    ``DEFER`` one that ran in a transaction into its buffer while it
    is open — a rolled-back write must never be replayed — and ``DROP``
    it once that transaction ended without it."""
    if not accepted:
        return DROP
    if not ran_in_transaction:
        return LOG
    return DEFER if still_open else DROP


def checkpoint_moves(
    items: Sequence[Tuple[Sequence[BackendOutcome], Sequence[LogEntry]]],
    last_index: int,
    enabled: Collection[Any],
) -> List[Tuple[str, Any, Optional[int], Tuple[Dict[str, int], ...]]]:
    """``(kind, target, index, table_seqs)`` moves after a round whose
    ``items`` are, per statement, its targets' replies and the log
    entries it carried. Each accepting target ``ADVANCE``s: it records
    the entries' table sequences, and moves to ``last_index`` only if
    ``enabled`` — one a concurrent round failed stopped at a write it
    missed, which a resync must not skip. Then each target that missed a
    statement carrying entries is ``CLAMP``ed below the first: every
    advance before any clamp, so accepting statement 1 but missing 3
    ends below entry 3."""
    moves = []
    for replies, entries in items:
        seqs = tuple([entry.table_seqs for entry in entries])
        moves += [
            (ADVANCE, r.backend, last_index if r.backend in enabled else None, seqs)
            for r in replies
            if r.error is None
        ]
    return moves + [
        (CLAMP, r.backend, entries[0].index - 1, ())
        for replies, entries in items
        if entries
        for r in replies
        if r.error is not None
    ]


# -- the shell ---------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _is_begin(sql: str) -> bool:
    """Whether a transaction-control text is a BEGIN, as one database's
    grammar reads it; a text it refuses (``BEGIN foo``, ``COMMIT WORK``,
    ``SAVEPOINT s``) raises :class:`SchedulerError` with its message."""
    try:
        return isinstance(parse(sql), Begin)
    except SqlParseError as exc:
        raise SchedulerError(str(exc)) from None


#: One write as the recovery log takes it: ``(sql, params, write_tables)``.
_Row = Tuple[str, Optional[Dict[str, Any]], FrozenSet[str]]


class _Transaction:
    """One session's open transaction: whose it is and its age (BEGIN
    order, which wait-die ranks by), the writes deferred from the
    recovery log until it commits (their tables leave the query cache
    when it ends), the lock scopes its writes took (held until it ends;
    the enable refusal names their rows) and the replica connections
    checked out for it. ``mutex`` keeps its statements apart from an
    abort or a settle on another thread. ``over`` once its scopes and
    connections are given back."""

    __slots__ = ("owner", "age", "buffer", "scopes", "leases", "mutex", "over")

    def __init__(self, owner: Optional[str], age: int) -> None:
        self.owner = owner
        self.age = age
        self.buffer: List[_Row] = []
        self.scopes: List[LockScope] = []
        self.leases: Dict[Backend, Lease] = {}
        self.mutex = threading.Lock()
        self.over = False

    def lease(self, backend: Backend) -> Lease:
        lease = self.leases.get(backend)
        if lease is None:
            lease = self.leases[backend] = Lease(backend)
        return lease

    @property
    def alive(self) -> bool:
        """Whether its connections may still hold it: none checked out
        yet, or one still open — closing one rolls its share back."""
        for lease in self.leases.values():
            if lease.live:
                return True
        return not self.leases


class _BatchItem:
    """One statement of a write round: what to run, where, and — once
    the round ran — what came of it."""

    __slots__ = (
        "sql", "params", "statement", "targets", "logged", "done", "result", "outcome",
        "entries", "durable_index", "error", "trace", "batch_meta",
    )

    def __init__(
        self,
        sql: str,
        params: Optional[Dict[str, Any]],
        statement: ClassifiedStatement,
        targets: List[Backend],
        trace: Any = NULL_TRACE,
    ) -> None:
        self.sql = sql
        self.params = params
        self.statement = statement
        self.targets = targets
        #: Only genuine writes are logged for resync, not transaction
        #: control.
        self.logged = not statement.is_transaction_control
        self.done = False
        self.result: Optional[Tuple[List[str], List[Any], int]] = None
        self.outcome: Any = None
        #: The recovery-log entries this statement caused: an auto-commit
        #: write's own, a flushing COMMIT's whole buffer, else none.
        self.entries: List[LogEntry] = []
        #: Highest log index among ``entries``, for the group-commit
        #: durability wait; None when nothing was appended.
        self.durable_index: Optional[int] = None
        self.error: Optional[Exception] = None
        #: This writer's statement trace (``NULL_TRACE`` when tracing is
        #: off). The round leader's trace receives the
        #: execute/log_append spans; riders record a batch_wait span
        #: attributed via ``batch_meta``.
        self.trace = trace
        #: Set by the batcher's leader: ``(leader_trace_id, batch_size)``.
        self.batch_meta: Optional[Tuple[Optional[str], int]] = None


class WriteBatcher:
    """Coalesces concurrent auto-commit writers into one broadcast round
    trip — the execution-side mirror of :class:`GroupCommit`.

    Writers whose placement-resolved replica sets match queue under one
    *group key* (the set of target backends); the first to find the group
    leaderless leads: it drains the queue and runs the batch as one
    round — one fan-out, one log append and (under group commit) one
    fsync for every writer. Writers arriving meanwhile queue for the
    next leader, so batching *emerges from broadcast latency* as
    group commit's does from fsync latency: no window to tune.

    Each queued writer holds its own lock scope for the whole round
    (pairwise disjoint, or they could not be concurrent), so the batch's
    order is an execution order nothing conflicting can interleave.
    Deadlock-free: the leader acquires no scopes, and an exclusive
    acquirer simply waits for the round's scopes to drain."""

    def __init__(self, scheduler: "RequestScheduler", max_batch: int = 64) -> None:
        self._scheduler = scheduler
        self._max_batch = max(1, max_batch)
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._queues: Dict[FrozenSet[Backend], List[_BatchItem]] = {}
        self._leading: Set[FrozenSet[Backend]] = set()
        #: Writers waiting on ``_cond``: an ending round wakes only those.
        self._waiting = 0
        # Counters guarded by _mutex.
        self.rounds = 0
        self.batched_statements = 0
        self.max_batch_size = 0

    def run(self, item: _BatchItem) -> None:
        """Queue one statement and return once a round executed it — one
        it led, or a sibling leader's — with its ``result``/``outcome``/
        ``durable_index`` filled in; raises the round's error if it failed.
        A leader whose own item overflowed ``max_batch`` leads again.

        A writer that rode a sibling's round records a ``batch_wait``
        span attributed to the leader's trace id and the round's batch
        size; a leader's trace gets the round's ``execute``/``log_append``
        spans instead."""
        key = frozenset(item.targets)
        queued_at = time.monotonic()
        led = False
        with self._mutex:
            self._queues.setdefault(key, []).append(item)
            batch = self._turn_locked(key, item)
        while batch is not None:
            led = True
            try:
                for queued in batch:
                    queued.batch_meta = (item.trace.trace_id, len(batch))
                try:
                    self._scheduler._run_round(batch, item.trace)
                except Exception as exc:  # noqa: BLE001 - delivered per writer
                    for queued in batch:
                        if queued.error is None:
                            queued.error = exc
            finally:
                with self._mutex:
                    for queued in batch:
                        queued.done = True
                    self._leading.discard(key)
                    if self._waiting:
                        self._cond.notify_all()
            if item.done:
                break
            with self._mutex:
                batch = self._turn_locked(key, item)
        if not led:
            leader_trace_id, batch_size = item.batch_meta
            item.trace.record(
                "batch_wait",
                queued_at,
                time.monotonic(),
                leader_trace=leader_trace_id,
                batch_size=batch_size,
            )
        if item.error is not None:
            raise item.error

    def _turn_locked(self, key: FrozenSet[Backend], item: _BatchItem) -> Optional[List[_BatchItem]]:
        """None once ``item`` ran; else, once its group has no leader, the
        batch the caller leads: what queued meanwhile, ``max_batch`` at most."""
        while not item.done and key in self._leading:
            self._waiting += 1
            self._cond.wait()
            self._waiting -= 1
        if item.done:
            return None
        self._leading.add(key)
        queued = self._queues.pop(key)
        batch, rest = queued[: self._max_batch], queued[self._max_batch :]
        if rest:
            self._queues[key] = rest
        size = len(batch)
        self.rounds += 1
        self.batched_statements += size
        if size > self.max_batch_size:
            self.max_batch_size = size
        return batch

    def stats(self) -> Dict[str, Any]:
        with self._mutex:
            rounds = self.rounds
            batched = self.batched_statements
            return {
                "rounds": rounds,
                "batched_statements": batched,
                "max_batch_size": self.max_batch_size,
                "avg_batch_size": round(batched / rounds, 2) if rounds else 0.0,
                "max_batch": self._max_batch,
            }


class RequestScheduler:
    """Routes statements to backends according to the placement map
    (RAIDb-1 full replication by default; RAIDb-0/2 when configured)."""

    def __init__(
        self,
        backends: List[Backend],
        recovery_log: RecoveryLog,
        read_policy: Optional[ReadPolicy] = None,
        query_cache: Optional[QueryCache] = None,
        broadcaster: Optional[WriteBroadcaster] = None,
        placement: Optional[PlacementMap] = None,
        lock_manager: Optional[LockManager] = None,
        primary_keys: Optional[Dict[str, Tuple[str, str]]] = None,
        group_commit: Optional[GroupCommit] = None,
    ) -> None:
        self._backends = list(backends)
        self._recovery_log = recovery_log
        self._policy = read_policy or RoundRobinPolicy()
        self._cache = query_cache
        self._broadcaster = broadcaster or WriteBroadcaster()
        self._placement = placement or PlacementMap()
        for backend in self._backends:
            self._placement.add_backend(backend.name)
        self._lock = threading.Lock()
        # Each broadcast holds the lock scope ``_scopes`` resolves for it;
        # resync, cold start, dumps and placement swaps take the exclusive
        # mode directly. ``primary_keys`` seeds the resolver for backends
        # that expose no schema catalog (experiments).
        self._locks = lock_manager or LockManager()
        self._scopes = ScopeResolver(self.enabled_backends, primary_keys)
        # A round's accounting (settle, log append, checkpoint moves):
        # taken *after* a lock scope and never held across a broadcast.
        self._state_lock = threading.Lock()
        # Each session's transaction, by session id. A session's record
        # enters and leaves under _state_lock: its BEGIN opens it, and a
        # round that ends it (transaction_step), or its first statement
        # after its connections all dropped, takes it out.
        self._transactions: Dict[Optional[str], _Transaction] = {}
        self._ages = itertools.count(1)
        # Group commit (docs/wire.md): appends skip their own fsync and
        # each writer waits for durability *after* releasing its scope,
        # so one fsync covers every writer in the group.
        self._group_commit = group_commit
        self._write_batcher = WriteBatcher(self)
        # True while a resync replay or dump restore holds the write lock:
        # writes are answered ``controller_recovering`` meanwhile.
        self._resyncing = False
        self.cold_starts = 0
        #: Whether a read fault may fail its replica: an HA follower's controller
        #: says no, as the primary owns the shared replicas' states.
        self.owns_replicas: Callable[[], bool] = lambda: True

    # -- configuration -----------------------------------------------------------

    @property
    def open_transactions(self) -> int:
        """How many sessions have a transaction open, not counting one
        whose connections all dropped (:meth:`_settle_dead`)."""
        return sum(not transaction.over for transaction in list(self._transactions.values()))

    def in_transaction(self, session_id: Optional[str]) -> bool:
        """Whether ``session_id`` is in a transaction: one open, or one
        whose connections dropped that it has not been told of yet."""
        return session_id in self._transactions

    @property
    def lock_manager(self) -> LockManager:
        return self._locks

    def _open_transaction_detail(self) -> str:
        """Whose transactions are open and what each wrote and locked so
        far — the operator-triage detail for enable refusals."""
        parts = []
        for transaction in list(self._transactions.values()):
            if transaction.over:
                continue
            tables = sorted({table for _, _, write_tables in transaction.buffer for table in write_tables})
            keys = sorted({pair for scope in transaction.scopes for pair in scope.keys}, key=repr)
            described = ", ".join(tables) if tables else "none recorded yet"
            if keys:
                described += "; keyed rows: " + ", ".join(f"{table}[{key!r}]" for table, key in keys)
            parts.append(f"session {transaction.owner or 'unknown'}, open-transaction tables: {described}")
        return "; ".join(parts)

    @property
    def resync_in_progress(self) -> bool:
        """Whether a resync/cold-start currently holds the write path."""
        return self._resyncing

    @staticmethod
    def _backend_checkpoint_name(backend: Backend) -> str:
        return f"backend:{backend.name}"

    def checkpoint_and_disable(self, backend: Backend, by: str = "admin") -> int:
        """Disable a backend around a consistent checkpoint, atomically
        with respect to the write path: no broadcast is in flight while
        the checkpoint is recorded, so it reflects exactly the writes the
        backend has applied. The checkpoint is registered by name so log
        compaction keeps the entries this backend still needs to replay.
        ``by`` (``"admin"`` or ``"detector"``) is recorded on the backend:
        the failure detector revives only what it took out itself."""
        with self._locks.exclusive():
            if backend.enabled:
                checkpoint = self._recovery_log.last_index
            else:
                # Already DISABLED/FAILED: the backend stopped applying
                # writes at its *existing* checkpoint. Re-recording the
                # current head would skip every write it missed since —
                # the next resync would silently leave it diverged.
                checkpoint = backend.checkpoint_index
            backend.disable(checkpoint, by)
            self._recovery_log.checkpoint(
                self._backend_checkpoint_name(backend), checkpoint, overwrite=True
            )
            # Closing its connections rolled back its share of each open
            # transaction — all of one, if it was the last replica in it.
            self._settle_dead()
            return checkpoint

    def resync_and_enable(
        self, backend: Backend, dumper: Optional[DatabaseDumper] = None, cold: bool = False
    ) -> int:
        """Bring ``backend`` up to the log head and enable it, atomically
        with respect to the write path — the one way into the rotation,
        for a member coming back and for a replica joining
        (docs/recovery.md, "One way into the rotation").

        Under the exclusive mode no write lands between the log snapshot
        and the ENABLED flip; an open transaction refuses the join (the
        newcomer holds none of its writes). A backend never seen before
        is registered here, and un-registered if this first join fails.
        ``cold`` — or a log compacted past the checkpoint, which needs a
        ``dumper`` — restores a dump of the healthy siblings instead of
        replaying. Returns the entries replayed, or for a ``cold`` join
        the restore statements run."""
        with self._locks.exclusive():
            # A transaction whose connections all dropped is over, even
            # if none of its statements ran since to notice.
            self._settle_dead()
            count = self.open_transactions
            if count:
                raise SchedulerError(
                    f"cannot enable backend {backend.name!r} while "
                    + ("a transaction is" if count == 1 else f"{count} transactions are")
                    + f" open ({self._open_transaction_detail()}); retry after "
                    + ("it ends" if count == 1 else "they end")
                )
            newcomer = self._register_locked(backend)
            self._resyncing = True
            try:
                entries = None  # stays None when only a dump can catch it up
                try:
                    if not cold:
                        entries = self._recovery_log.entries_after(backend.checkpoint_index)
                except LogCompactedError as exc:
                    if dumper is None:
                        raise SchedulerError(
                            f"cannot resync backend {backend.name!r}: {exc}"
                        ) from exc
                if entries is None:
                    restored, replayed = self._cold_start_locked(
                        backend, dumper or DatabaseDumper()
                    )
                else:
                    restored = 0
                    replayed = backend.resync(entries, entry_filter=self._replay_filter(backend))
            except Exception:
                if newcomer:
                    # It never joined: leaving it in the placement
                    # universe would let future tables be pinned to a
                    # ghost and become permanently unhostable.
                    with self._lock:
                        self._backends.remove(backend)
                    self._placement.remove_backend(backend.name)
                raise
            finally:
                self._resyncing = False
            self._recovery_log.release_checkpoint(self._backend_checkpoint_name(backend))
            if self._cache is not None:
                # The enabled backend immediately serves reads, and its
                # rows were written by replay/restore — never observed by
                # the cache's invalidation clock. Flush so no entry cached
                # while it was out of rotation survives as stale.
                self._cache.clear()
            return restored if cold else replayed

    def _register_locked(self, backend: Backend) -> bool:
        """Make ``backend`` a member (backend list + placement universe)
        unless it already is one; returns whether it was new."""
        with self._lock:
            holder = next((m for m in self._backends if m.name == backend.name), None)
            if holder is backend:
                return False
            if holder is not None:
                raise SchedulerError(
                    f"a different backend is already registered as {backend.name!r}"
                )
            if backend.enabled:
                # Never in this rotation: it must serve no read before
                # the replay below flips it.
                backend.disable(backend.checkpoint_index)
            self._backends.append(backend)
        # The replay filter and the dump assembly ask the map which
        # tables this backend hosts: unpinned (fully replicated) tables
        # must already count it.
        self._placement.add_backend(backend.name)
        return True

    def _replay_filter(self, backend: Backend) -> Optional[Callable[[LogEntry], bool]]:
        """Whether ``backend`` hosts a log entry, for ``replay_step``: any
        table it writes, or an *unknown* table set, which the write path
        broadcast everywhere. None under full replication."""
        placement = self._placement
        if placement.is_full:
            return None

        def entry_filter(entry: LogEntry) -> bool:
            # Only entries from a log older than per-table sequences
            # lack their write tables.
            tables = entry.write_tables or classify(entry.sql).write_tables
            return not tables or any(placement.backend_hosts(backend.name, table) for table in tables)

        return entry_filter

    def _cold_start_locked(self, backend: Backend, dumper: DatabaseDumper) -> Tuple[int, int]:
        """Dump healthy siblings into ``backend`` and enable it; returns
        ``(restore_statements, replayed)``.

        Caller holds the write lock, so the dump is consistent and the
        tail replay after it is empty by construction — the machinery
        still runs so offline dumps (taken earlier, with writes landing
        since) follow the exact same path. The dump is assembled table
        by table from backends hosting each of the tables the replica
        will host (under full replication that is every table, from the
        first sibling), and the tail replay is filtered the same way the
        write path would have routed it."""
        sources = [
            candidate for candidate in self.enabled_backends() if candidate is not backend
        ]
        if not sources:
            raise SchedulerError(
                f"no healthy backend available to dump for cold-starting {backend.name!r}"
            )
        dump, keep_local = self._assemble_dump_locked(
            backend, sources, dumper, self._recovery_log.last_index
        )
        # Tables only this backend hosts exist nowhere else: no sibling
        # can re-supply them, so the local copy is the authoritative one
        # and must survive the restore's wipe. It is current — while the
        # sole host was out of rotation every write to those tables was
        # refused (NoHostingBackendError), so there is nothing to miss.
        statements = backend.initialize_from_dump(
            dump,
            dumper,
            wipe_filter=lambda qualified: normalize_table_name(qualified) not in keep_local,
        )
        replayed = backend.resync(
            self._recovery_log.entries_after(backend.checkpoint_index),
            entry_filter=self._replay_filter(backend),
        )
        self.cold_starts += 1
        return statements, replayed

    def _assemble_dump_locked(
        self,
        backend: Backend,
        sources: List[Backend],
        dumper: DatabaseDumper,
        checkpoint_index: int,
    ) -> Tuple[DatabaseDump, set]:
        """Assemble a dump of the tables ``backend`` hosts, pulling each
        table from an enabled backend hosting it (one sibling rarely
        carries a partial replica's whole subset).

        Returns ``(dump, keep_local)``: tables the backend *solely* hosts
        cannot be dumped — the recovering backend's own copy is the only
        one that ever existed and the caller must preserve it. A table
        the backend co-hosts whose every other host is down is refused
        outright: its siblings may hold committed writes this backend
        missed and the compacted log can no longer replay, so preserving
        the local copy would be silent staleness and wiping it data loss
        — the operator must recover one of the other hosts first."""
        placement = self._placement
        # Which enabled sibling actually *has* each table: pick dump
        # sources by catalog contents, not placement membership alone — a
        # placement host that never received the data (e.g. hosts moved
        # by set_placement) would silently contribute an empty piece.
        catalogs: Dict[str, set] = {
            source.name: {
                normalize_table_name(qualified)
                for qualified in dumper.list_tables(source.execute)
            }
            for source in sources
        }
        table_sources: Dict[str, Backend] = {}
        for source in sources:
            for key in catalogs[source.name]:
                if key in table_sources:
                    continue
                if not placement.backend_hosts(backend.name, key):
                    continue
                holder = next(
                    (
                        candidate
                        for candidate in sources
                        if key in catalogs[candidate.name]
                        and placement.backend_hosts(candidate.name, key)
                    ),
                    # No placement host carries it: fall back to whoever
                    # has the data (its catalog listed it) — stale-host
                    # data beats no data after a placement change.
                    source,
                )
                table_sources[key] = holder
        keep_local = set()
        for qualified in dumper.list_tables(backend.execute):
            key = normalize_table_name(qualified)
            if key in table_sources or not placement.backend_hosts(backend.name, key):
                continue
            if placement.hosts(key, pin=False) == frozenset({backend.name}):
                # Strictly sole-hosted: no other backend ever accepted a
                # write to it, so the local copy is current by
                # construction.
                keep_local.add(key)
            elif any(placement.backend_hosts(s.name, key) for s in sources):
                # Another host is enabled but its catalog lacks the
                # table: it was dropped cluster-wide while this backend
                # was out — let the wipe remove the local copy too.
                continue
            else:
                raise SchedulerError(
                    f"cannot cold-start backend {backend.name!r}: table {key!r} is "
                    f"hosted by {sorted(placement.hosts(key, pin=False))} but no "
                    "other host is enabled, and its missed writes may be "
                    "unreplayable — recover one of the other hosts first"
                )
        pieces = []
        for source in sources:
            wanted = {
                table for table, holder in table_sources.items() if holder is source
            }
            if not wanted:
                continue
            pieces.append(
                dumper.dump(
                    source.execute,
                    checkpoint_index=checkpoint_index,
                    source=source.name,
                    table_filter=lambda qualified, wanted=wanted: normalize_table_name(
                        qualified
                    )
                    in wanted,
                )
            )
        dump = dumper.merge(pieces, checkpoint_index=checkpoint_index)
        if dump.source is None:
            dump.source = sources[0].name
        return dump, keep_local

    def create_dump(
        self,
        checkpoint_name: Optional[str] = None,
        dumper: Optional[DatabaseDumper] = None,
        table_filter: Optional[Callable[[str], bool]] = None,
    ):
        """Snapshot one healthy backend under the write lock and pin the
        snapshot's log position under a named checkpoint, so compaction
        cannot truncate the tail a consumer will replay after restoring
        the dump. Release the checkpoint once every consumer cold-started.
        ``table_filter`` restricts the snapshot to a table subset (for
        provisioning partial replicas from an operator-driven dump)."""
        dumper = dumper or DatabaseDumper()
        with self._locks.exclusive():
            source = next(iter(self.enabled_backends()), None)
            if source is None:
                raise SchedulerError("no enabled backend available to dump")
            index = self._recovery_log.last_index
            name = checkpoint_name or f"dump-{index}"
            self._recovery_log.checkpoint(name, index, overwrite=True)
            return dumper.dump(
                source.execute,
                checkpoint_index=index,
                checkpoint_name=name,
                source=source.name,
                table_filter=table_filter,
            )

    @property
    def placement(self) -> PlacementMap:
        return self._placement

    def set_placement(self, placement: Any) -> PlacementMap:
        """Swap the placement map (spec string, policy or PlacementMap).

        Atomic with the write path so no broadcast is routed half by the
        old map and half by the new one. The query cache is flushed:
        routing changed under it, and entries cached from a replica that
        no longer serves their tables should not linger. Placement does
        **not** move existing data — change it before the tables it
        governs are created, or cold-start the affected replicas."""
        new_map = create_placement(
            placement, backend_names=[backend.name for backend in self.backends()]
        )
        with self._locks.exclusive():
            self._placement = new_map
            if self._cache is not None:
                self._cache.clear()
        return new_map

    @property
    def read_policy(self) -> ReadPolicy:
        return self._policy

    @property
    def query_cache(self) -> Optional[QueryCache]:
        return self._cache

    @property
    def broadcaster(self) -> WriteBroadcaster:
        return self._broadcaster

    # -- backend set -------------------------------------------------------------

    def backends(self) -> List[Backend]:
        with self._lock:
            return list(self._backends)

    def enabled_backends(self) -> List[Backend]:
        with self._lock:
            return [backend for backend in self._backends if backend.enabled]

    # -- routing -----------------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        in_transaction: bool = False,
        session_id: Optional[str] = None,
        trace: Any = NULL_TRACE,
    ) -> Tuple[List[str], List[Any], int]:
        """Execute one statement for ``session_id`` with replication
        semantics: transaction control as one database takes it
        (:meth:`_control`); in the session's open transaction, on its
        own connections (:meth:`_execute_in`); else a read runs on one
        replica (:meth:`_execute_read`) and a write is a round.
        ``in_transaction`` is unused (the session's record says) and
        stays for callers that pass it. ``trace`` receives the stage
        spans; ``NULL_TRACE``, the default, times nothing."""
        statement = classify(sql)
        if statement.is_transaction_control:
            return self._control(sql, statement, session_id, trace)
        transaction = self._transactions.get(session_id)
        if transaction is not None:
            return self._execute_in(transaction, sql, params, statement, trace)
        if statement.is_read:
            return self._execute_read(sql, params, statement, trace)
        return self._execute_broadcast(sql, params, statement, trace)

    def _read_candidates(self, statement: ClassifiedStatement) -> List[Backend]:
        """The enabled backends one read may run on, snapshotted now: those
        hosting *all* of its tables (for a cross-partition join, a full
        replica), or any for an unknown/empty table set. Raises
        :class:`NoHostingBackendError` when no enabled backend hosts it."""
        enabled = self.enabled_backends()
        if not enabled:
            raise SchedulerError("no enabled backend available")
        placement = self._placement
        if placement.is_full or not statement.read_tables:
            return enabled
        candidates = placement.hosting_all(statement.read_tables, enabled)
        if not candidates:
            raise NoHostingBackendError(
                f"no enabled backend hosts all of {sorted(statement.read_tables)}; "
                "cross-partition reads need a full replica"
            )
        return candidates

    def _execute_read(
        self, sql: str, params: Optional[Dict[str, Any]], statement: ClassifiedStatement, trace: Any
    ) -> Tuple[List[str], List[Any], int]:
        """An auto-commit read: from the cache, else from one replica."""
        cache = self._cache
        use_cache = cache is not None and statement.cacheable
        if use_cache:
            with trace.span("cache") as cache_span:
                cached = cache.get(sql, params)
                cache_span.set(hit=cached is not None)
            if cached is not None:
                return cached
            # The candidates are snapshotted *after* the stamp: a backend
            # that failed (and so missed) a concurrent write is excluded,
            # and one that fails later implies the write's post-broadcast
            # invalidation postdates our stamp — either way pre-write data
            # cannot be cached as fresh.
            stamp = cache.stamp()
        result = self._read_on_one(sql, params, statement, None, trace)
        if use_cache:
            cache.put(sql, params, statement.read_tables, result, stamp=stamp)
        return result

    def _read_on_one(
        self, sql: str, params: Optional[Dict[str, Any]], statement: ClassifiedStatement,
        transaction: Optional[_Transaction], trace: Any,
    ) -> Tuple[List[str], List[Any], int]:
        """Run a read on one candidate — on ``transaction``'s connection
        there, if given — under the round's fault rule
        (:func:`round_verdict`): a statement fault is raised; a replica
        that leaves is skipped, and failed if still ENABLED and
        :attr:`owns_replicas` — under the transaction's scope, or else
        the exclusive mode, so no disable interleaves — unless the fault
        says it was disabled before the request went out
        (:class:`~repro.cluster.backend.ReplicaLeft`: it may be back by
        now). With no candidate left the fault is raised."""
        candidates = self._read_candidates(statement)
        while True:
            backend = self._policy.choose(candidates)
            trace.begin("execute", backend=backend.name)
            try:
                return backend.execute(sql, params, lease=transaction and transaction.lease(backend))
            except Exception as exc:
                if not round_verdict([BackendOutcome(backend, error=exc)])[1]:
                    raise
                if self.owns_replicas():
                    with nullcontext() if transaction else self._locks.exclusive():
                        if backend.enabled and not isinstance(exc, ReplicaLeft):
                            backend.mark_failed()
                            self._settle_dead(transaction)
                candidates = [c for c in candidates if c is not backend and c.enabled]
                if not candidates:
                    raise
            finally:
                trace.end("execute")

    def _write_targets(self, statement: ClassifiedStatement) -> List[Backend]:
        """Which enabled backends one write round goes to — never a read,
        which runs on one replica (:meth:`_read_candidates`) — snapshotted
        under the write's scope: a backend enabled by a resync the write
        waited out must be included, or it silently misses the write with
        no resync left to replay it.

        Everything under full replication and for statements with an
        unknown table set (the conservative bypass). A genuine write goes
        to every backend hosting *any* written table — fewer would
        silently diverge a replica of a written table; its read tables
        must be colocated on those backends or the statement has nowhere
        it can run correctly."""
        with self._lock:
            enabled = [backend for backend in self._backends if backend.enabled]
        if not enabled:
            raise SchedulerError("no enabled backend available")
        placement = self._placement
        if placement.is_full or not statement.write_tables:
            return enabled
        if statement.referenced_tables:
            # DDL with foreign keys: every host of the new table must
            # host the REFERENCES targets, or FK checks fail on
            # some replicas and read as divergence. Hash placements are
            # re-pointed onto the targets' hosts; operator-chosen
            # assignments that conflict raise instead.
            for table in statement.write_tables:
                placement.ensure_colocated(table, statement.referenced_tables)
        targets = placement.hosting_any(statement.write_tables, enabled)
        if not targets:
            raise NoHostingBackendError(
                f"no enabled backend hosts any of {sorted(statement.write_tables)}"
            )
        if statement.read_tables:
            stragglers = [
                target.name
                for target in targets
                if not all(
                    self._placement.backend_hosts(target.name, table)
                    for table in statement.read_tables
                )
            ]
            if stragglers:
                # INSERT INTO a SELECT FROM b where some host of `a` does
                # not host `b`: executing there would fail and look like
                # divergence; not executing there *is* divergence. The
                # placement must colocate the tables (or keep one full
                # replica hosting both) — surface that, don't guess.
                raise NoHostingBackendError(
                    f"backends {stragglers} host {sorted(statement.write_tables)} but not "
                    f"all of {sorted(statement.read_tables)}; colocate the tables or "
                    "use a full replica"
                )
        return targets

    def _execute_broadcast(
        self,
        sql: str,
        params: Optional[Dict[str, Any]],
        statement: ClassifiedStatement,
        trace: Any = NULL_TRACE,
    ) -> Tuple[List[str], List[Any], int]:
        """An auto-commit write: a round under its scope, batched with
        concurrent writers when it may be."""
        while True:
            # The lock span opens *before* scope resolution: resolving a
            # key scope may probe the schema catalog (first statement per
            # table), and that probe is part of the cost of taking the
            # right lock — leaving it outside would show up as a mystery
            # gap between classify and lock in the trace.
            trace.begin("lock")
            scope, generation = self._scopes.resolve(statement, params)
            with self._locks.scope(scope):
                trace.end("lock", kind=scope.kind)
                if scope.keys and self._scopes.generation != generation:
                    # The key was resolved *before* acquiring, and a DDL
                    # (which invalidates the resolver while holding a
                    # conflicting table scope) completed in between: the
                    # key may no longer stand for the row identity —
                    # release and resolve again.
                    continue
                item = _BatchItem(sql, params, statement, self._write_targets(statement), trace)
                if self._batch_eligible(statement):
                    # Safe to decide here: while this scope is held no
                    # disable/resync/placement swap can run (all take
                    # the exclusive mode), so the eligibility and target
                    # snapshot cannot go stale before the round.
                    self._write_batcher.run(item)
                else:
                    # A round of one, on this thread, under the scope it
                    # already holds: no queue or condition-variable hop.
                    self._run_round([item], trace)
            break
        return self._answer(item, trace)

    def _answer(self, item: "_BatchItem", trace: Any) -> Tuple[List[str], List[Any], int]:
        """A round's statement's result, once what it logged is durable."""
        if item.result is None:
            raise SchedulerError(
                "statement failed on every backend: "
                + "; ".join(item.outcome.failure_messages())
            )
        if item.durable_index is not None and self._group_commit is not None:
            # Outside every lock: concurrent writers pile into one fsync
            # group here instead of serialising their fsyncs under
            # _state_lock, which is the whole point of group commit.
            with trace.span("fsync_wait", durable_index=item.durable_index):
                self._group_commit.wait_durable(item.durable_index)
        return item.result

    @staticmethod
    def _batch_eligible(statement: ClassifiedStatement) -> bool:
        """Whether this auto-commit write may queue with siblings in a
        WriteBatcher round (otherwise it runs a round of one directly).

        Only plain logged DML qualifies: DDL and referenced-table writes
        are rare, gain nothing from coalescing, and move placement
        (pin/colocate/unpin) that a queued sibling may already have
        resolved its targets against; and an unknown table set means an
        exclusive scope — which cannot coexist with the sibling scopes a
        batch implies."""
        if statement.command not in DML_COMMANDS:
            return False
        if not statement.write_tables or statement.lock_tables is None:
            return False
        return not statement.referenced_tables

    # -- transactions --------------------------------------------------------------

    def _control(
        self, sql: str, statement: ClassifiedStatement, session_id: Optional[str], trace: Any
    ) -> Tuple[List[str], List[Any], int]:
        """BEGIN, COMMIT or ROLLBACK for ``session_id``, refused as one
        database refuses them: a text its grammar rejects (``BEGIN foo``,
        ``COMMIT WORK``, ``SAVEPOINT s``), a nested BEGIN, an end with
        nothing open."""
        if _is_begin(sql):
            with self._state_lock:
                if session_id in self._transactions:
                    raise SchedulerError("transaction already in progress")
                self._transactions[session_id] = _Transaction(session_id, next(self._ages))
            return [], [], 0
        transaction = self._transactions.get(session_id)
        if transaction is None:
            raise SchedulerError(f"{statement.command} without an open transaction")
        return self._execute_in(transaction, sql, None, statement, trace)

    def _execute_in(
        self,
        transaction: _Transaction,
        sql: str,
        params: Optional[Dict[str, Any]],
        statement: ClassifiedStatement,
        trace: Any,
    ) -> Tuple[List[str], List[Any], int]:
        """One statement of ``transaction``, on its own connections, under
        its scope (kept past a write by :func:`scope_held`): a read skips
        the cache and runs on one replica, a write is a round of one. A
        transaction wait-die refuses is rolled back. One whose
        connections all dropped, before or during the statement, ends:
        the statement fails, unless it is a ROLLBACK."""
        with transaction.mutex:
            if self._transactions.get(transaction.owner) is not transaction:
                raise SchedulerError("the transaction was rolled back: it ended on another thread")
            if not transaction.alive:
                self._discard(transaction)
                if statement.command == "ROLLBACK":
                    return [], [], 0
                raise SchedulerError("the transaction was rolled back: its connections dropped")
            try:
                if statement.is_transaction_control:
                    return self._end(transaction, sql, statement, trace)
                while True:
                    trace.begin("lock")
                    scope, generation = self._scopes.resolve(statement, params)
                    keep = scope_held(True, statement.is_read)
                    with self._locks.scope(scope, transaction, transaction.age, keep):
                        trace.end("lock", kind=scope.kind)
                        if keep:
                            transaction.scopes.append(scope)
                        if scope.keys and self._scopes.generation != generation:
                            continue  # as in _execute_broadcast; a stale key kept stays held
                        if statement.is_read:
                            return self._read_on_one(sql, params, statement, transaction, trace)
                        item = _BatchItem(sql, params, statement, self._write_targets(statement), trace)
                        self._run_round([item], trace, transaction)
                    return self._answer(item, trace)
            except Refused:
                trace.end("lock")
                self._roll_back(transaction)
                raise SchedulerError(
                    "deadlock: the transaction was rolled back (wait-die: it held locks and "
                    "waited for an older transaction's)"
                ) from None
            except BaseException:
                # A failed statement may have dropped its last connection.
                if not transaction.alive:
                    self._discard(transaction)
                raise

    def _end(
        self, transaction: _Transaction, sql: str, statement: ClassifiedStatement, trace: Any
    ) -> Tuple[List[str], List[Any], int]:
        """COMMIT or ROLLBACK: one round on the transaction's own open
        connections (none: nothing to send), in flight but taking no
        lock. The round puts a COMMIT's buffer in the log, then frees
        the transaction's scopes and connections."""
        targets = [lease.backend for lease in transaction.leases.values() if lease.live]
        if not targets:
            self._discard(transaction)
            return [], [], 0
        with self._locks.scope(None, transaction, transaction.age):
            item = _BatchItem(sql, None, statement, targets, trace)
            self._run_round([item], trace, transaction)
        return self._answer(item, trace)

    def _roll_back(self, transaction: _Transaction) -> None:
        """End ``transaction`` for good (its statements' mutex held): a
        ROLLBACK on its open connections, and whatever that leaves is
        discarded."""
        if transaction.alive:
            try:
                self._end(transaction, "ROLLBACK", classify("ROLLBACK"), NULL_TRACE)
            except (SchedulerError, DriverError):
                pass
        self._discard(transaction)

    def _discard(self, transaction: _Transaction) -> None:
        """Take ``transaction``'s record out of the map, if it is still
        there, and close it."""
        with self._state_lock:
            ended = self._transactions.get(transaction.owner) is transaction
            if ended:
                del self._transactions[transaction.owner]
        if ended:
            self._close_transaction(transaction, ())

    def _close_transaction(self, transaction: _Transaction, clean: Collection[Backend]) -> None:
        """Once ``transaction`` is over: free its scopes, give its
        connections back — to the idle set those whose COMMIT or ROLLBACK
        ran (``clean``), closed the rest — and evict what a concurrent
        auto-commit read may have cached of its writes (everything, for
        an unknown table set). Only the first call does anything."""
        if transaction.over:
            return
        transaction.over = True
        self._locks.release(transaction)
        for backend, lease in transaction.leases.items():
            backend.checkin(lease, backend in clean)
        written = [tables for _, _, tables in transaction.buffer]
        if self._cache is not None and written:
            self._cache.invalidate_tables(frozenset().union(*written) if all(written) else ())

    def _settle_dead(self, spare: Optional[_Transaction] = None) -> None:
        """Close every transaction whose connections all dropped (a
        disable or a failed replica closed the last), ``spare`` and any
        running a statement aside: its own settle sees it. The record
        stays until its session's next statement, which it fails (one
        database tells a session its transaction was rolled back)."""
        for transaction in list(self._transactions.values()):
            if (
                transaction is spare
                or transaction.over
                or transaction.alive
                or not transaction.mutex.acquire(blocking=False)
            ):
                continue
            try:
                self._close_transaction(transaction, ())
            finally:
                transaction.mutex.release()

    def _run_round(
        self,
        items: List[_BatchItem],
        leader_trace: Any = NULL_TRACE,
        transaction: Optional[_Transaction] = None,
    ) -> None:
        """Execute one write round — the one replication rule: every
        statement is applied in one order on all hosting replicas and
        logged once for resync, in one broadcast and one ``_state_lock``
        section, filling each item's ``result``/``outcome``/``durable_index``.
        Every item's writer holds its own scope (pairwise disjoint), all
        resolved the same targets, and several items are plain auto-commit
        DML (:meth:`_batch_eligible`). A ``transaction``'s round is one of
        its statements on its connections: a write is deferred into its
        buffer, a COMMIT's entries are that buffer, and a round that ends
        it frees its scopes and connections. The ``execute``/``log_append``
        spans land on the leader's trace."""
        head, targets, size = items[0], items[0].targets, len(items)
        cache = self._cache
        if cache is not None:
            # Invalidate before execution as well: entries cached against
            # the pre-write state must not survive the write. Safe under
            # concurrent writers: each writer holds its tables' locks, so
            # only its round can invalidate them here.
            for item in items:
                if item.logged:
                    cache.invalidate_tables(item.statement.write_tables)
        leases = None if transaction is None else {backend: transaction.lease(backend) for backend in targets}
        # No backend-list attr: the per-replica child spans already name
        # every backend this execute fanned out to.
        with leader_trace.span("execute", batch_size=size):
            batch = self._broadcaster.broadcast_batch(
                targets, [(item.sql, item.params) for item in items], trace=leader_trace, leases=leases
            )
        for index, item in enumerate(items):
            item.outcome = outcome = batch.per_statement(index)
            item.result, leaving = round_verdict(outcome.outcomes)
            if leaving:
                for backend in leaving:
                    backend.mark_failed()
                # Their connections closed: another transaction may have lost its last.
                self._settle_dead(transaction)
        leader_trace.begin("log_append", batch_size=size)
        # Shared accounting serialises under _state_lock: two
        # disjoint-scope rounds run their broadcasts in parallel but
        # append and move checkpoints one after the other.
        with self._state_lock:
            step = KEEP
            if transaction is not None:
                # Its record settles from its own connections; an ended one leaves the map.
                step = transaction_step(transaction.alive, head.statement.command, head.result is not None)
                if step != KEEP and self._transactions.get(transaction.owner) is transaction:
                    del self._transactions[transaction.owner]
            still_open = transaction is not None and step == KEEP
            rows: List[_Row] = []
            owners: List[_BatchItem] = []
            for item in items:
                fate = write_fate(item.result is not None, transaction is not None, still_open) if item.logged else DROP
                if fate == DEFER:
                    transaction.buffer.append((item.sql, dict(item.params or {}), item.statement.write_tables))
                if step == FLUSH:
                    rows += transaction.buffer
                    owners += [item] * len(transaction.buffer)
                elif fate == LOG:
                    rows += [(item.sql, item.params, item.statement.write_tables)]
                    owners += [item]
            if rows:
                # One append for the whole round, a COMMIT's buffer
                # included: a durable store pays one flush+fsync for it.
                for item, entry in zip(owners, self._recovery_log.append_batch(rows)):
                    item.entries.append(entry)
                    item.durable_index = entry.index
            accounts = [(item.outcome.outcomes, item.entries) for item in items]
            enabled = [backend for backend in targets if backend.enabled]
            for kind, backend, index, table_seqs in checkpoint_moves(
                accounts, self._recovery_log.last_index, enabled
            ):
                if kind == CLAMP:
                    backend.limit_checkpoint(index)
                else:
                    backend.advance_checkpoint(index, table_seqs)
        leader_trace.end("log_append")
        if step in (FLUSH, DISCARD):
            clean = [reply.backend for reply in head.outcome.outcomes if reply.error is None]
            self._close_transaction(transaction, clean if head.statement.is_transaction_control else ())
        for item in items:
            statement = item.statement
            if statement.command == "DROP" and item.result is not None:
                # Keep the map bounded under table churn; a recreated
                # table gets a fresh assignment.
                self._placement.unpin(statement.write_tables)
            if statement.command in _SCHEMA_COMMANDS:
                # The DDL may have changed (or removed) a table's primary
                # key or its REFERENCES links; invalidate while still
                # holding the DDL's lock scope so key writers re-resolve
                # behind us, never alongside us.
                self._scopes.invalidate((statement.write_tables | statement.referenced_tables) or None)
            elif item.logged and statement.lock_tables is None:
                # An unknown-shape write ran under the exclusive
                # footprint and could have changed any schema.
                self._scopes.invalidate(None)
            if item.logged and cache is not None:
                # Invalidate again now that every backend applied the write:
                # evicts results a concurrent read cached from a backend the
                # broadcast had not reached yet, and bumps the floor so any
                # still-in-flight read cannot store a pre-write result.
                cache.invalidate_tables(statement.write_tables)

    def abort(self, session_id: Optional[str]) -> None:
        """Roll back ``session_id``'s transaction, if it has one — for a
        session that vanished mid-transaction. Only its own connections
        are touched."""
        transaction = self._transactions.get(session_id)
        if transaction is None:
            return
        with transaction.mutex:
            if self._transactions.get(session_id) is transaction:
                self._roll_back(transaction)

    # -- lifecycle / observability ------------------------------------------------

    def close(self) -> None:
        self._broadcaster.close()

    def stats(self) -> Dict[str, Any]:
        cache = self._cache
        return {
            "read_policy": self._policy.name,
            "placement": self._placement.stats(),
            "locks": self._locks.stats(),
            **self._scopes.stats(),
            "open_transactions": self.open_transactions,
            "broadcaster": self._broadcaster.stats(),
            "group_commit": self._group_commit.stats() if self._group_commit else None,
            "write_batching": self._write_batcher.stats(),
            "query_cache": cache.stats() if cache is not None else None,
            "recovery_log_entries": self._recovery_log.last_index,
            "recovery_log": self._recovery_log.stats(),
            "cold_starts": self.cold_starts,
            "resync_in_progress": self.resync_in_progress,
            "backends": [
                {
                    "name": backend.name,
                    "state": backend.state.value,
                    "statements_executed": backend.statements_executed,
                    "pending": backend.pending,
                    "checkpoint_index": backend.checkpoint_index,
                    "last_heartbeat_at": backend.last_heartbeat_at,
                }
                for backend in self.backends()
            ],
        }
