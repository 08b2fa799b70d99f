"""The recovery log facade: ordered history + named checkpoints + compaction.

The controller appends every committed write it broadcasts. A backend
that was disabled records the log index of its last applied write — its
*checkpoint* — and is resynchronised on re-enable by replaying everything
after that index. Unlike the original in-memory list, this log:

- delegates persistence to a pluggable :class:`LogStore` (a restarted
  controller on a :class:`FileLogStore` resumes with its pre-crash
  ``last_index``) and is its store's only writer, on an HA follower too,
- names checkpoints (name → index, recorded by the store) instead of a
  bare integer, so several consumers (disabled backends, dumps,
  operator snapshots) can pin positions independently,
- compacts: entries at or below the oldest live checkpoint are
  truncated from the store, bounding memory and disk under heavy write
  traffic. Asking for entries older than the compaction floor raises
  :class:`LogCompactedError` — the caller must cold-start from a dump
  instead of replaying history that no longer exists.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cluster.recovery.logstore import LogEntry, LogStore, MemoryLogStore
from repro.errors import DriverError


class LogCompactedError(DriverError):
    """The requested replay range was truncated by compaction."""


class CheckpointError(DriverError):
    """Invalid checkpoint operation (duplicate name, negative index)."""


class RecoveryLog:
    """Append-only log of write statements with monotonically growing indexes."""

    def __init__(
        self,
        store: Optional[LogStore] = None,
        auto_compact_every: int = 0,
    ) -> None:
        self._store = store if store is not None else MemoryLogStore()
        #: Compact automatically every N appends (0 disables).
        self.auto_compact_every = auto_compact_every
        self._appends_since_compact = 0
        self.compactions = 0
        self.entries_compacted = 0
        self._lock = threading.Lock()
        #: Named pinned positions, name → index, changed under ``_lock``
        #: and recorded by the store; the oldest is the compaction floor.
        self._checkpoints = self._store.checkpoints
        #: Per-table sequence counters (the per-table ordering model:
        #: conflict-aware locking makes cluster-wide index order
        #: meaningful only per table). Seeded from the store's retained
        #: entries, so a restarted durable log continues each table's
        #: sequence where it left off; a table whose every entry was
        #: compacted restarts at 1 — its replayable history is empty, so
        #: no replay can observe the reset.
        self._table_seqs: Dict[str, int] = {}
        self._raise_table_seqs_locked(self._store.entries_after(self._store.truncated_through))

    @property
    def store(self) -> LogStore:
        return self._store

    # -- appends -----------------------------------------------------------------

    def append(
        self,
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        write_tables: Optional[Iterable[str]] = None,
    ) -> LogEntry:
        """Append one write; returns the entry with its assigned index.

        ``write_tables`` (the classifier's canonicalised table set) gets
        each table its next per-table sequence number. The caller must
        hold the table locks (or the exclusive lock) covering these
        tables across execute+append, which is what makes index order
        equal execution order *per table*."""
        return self.append_batch([(sql, params, write_tables)])[0]

    def append_batch(
        self,
        specs: Iterable[Tuple[str, Optional[Dict[str, Any]], Optional[Iterable[str]]]],
    ) -> List[LogEntry]:
        """Append several writes as one batch: ``specs`` is an iterable of
        ``(sql, params, write_tables)``. Indexes and per-table sequences
        are assigned exactly as N single appends would, but the store
        persists them through :meth:`LogStore.append_many` — one
        flush+fsync for the whole batch on a durable store. Used for a
        COMMIT's buffered transaction writes and by group commit."""
        with self._lock:
            entries: List[LogEntry] = []
            next_index = self._store.last_index + 1
            for sql, params, write_tables in specs:
                entries.append(
                    self._build_entry_locked(next_index, sql, params, write_tables)
                )
                next_index += 1
            self._store.append_many(entries)
            self._appends_since_compact += len(entries)
            if self.auto_compact_every and self._appends_since_compact >= self.auto_compact_every:
                self._compact_locked()
            return entries

    def _build_entry_locked(
        self,
        index: int,
        sql: str,
        params: Optional[Dict[str, Any]],
        write_tables: Optional[Iterable[str]],
    ) -> LogEntry:
        tables = tuple(sorted(write_tables or ()))
        seqs: Dict[str, int] = {}
        for table in tables:
            seqs[table] = self._table_seqs.get(table, 0) + 1
            self._table_seqs[table] = seqs[table]
        return LogEntry(
            index=index,
            sql=sql,
            params=dict(params or {}),
            write_tables=tables,
            table_seqs=seqs,
        )

    def apply_replicated(self, entries: List[LogEntry], floor: int, install: bool = False) -> None:
        """Take what an HA primary shipped, already indexed, past this
        log's head: a snapshot ``install`` first restarts the store at
        the primary's compaction ``floor``; the floor is mirrored and the
        store flushed before the follower acks. Table counters rise to
        the highest sequence seen and never fall, so a promoted follower
        hands out no sequence twice."""
        with self._lock:
            if install:
                self._store.reset_to_floor(floor)
            self._store.append_many(entries)
            self._raise_table_seqs_locked(entries)
            if floor > self._store.truncated_through:
                self._store.truncate_through(floor)
            self._store.flush()

    def _raise_table_seqs_locked(self, entries: Iterable[LogEntry]) -> None:
        for entry in entries:
            for table, seq in entry.table_seqs.items():
                if seq > self._table_seqs.get(table, 0):
                    self._table_seqs[table] = seq

    # -- reads -------------------------------------------------------------------

    @property
    def last_index(self) -> int:
        with self._lock:
            return self._store.last_index

    @property
    def first_index(self) -> int:
        """Index of the oldest entry still replayable."""
        with self._lock:
            return self._store.truncated_through + 1

    def entries_after(self, index: int) -> List[LogEntry]:
        """Entries with index strictly greater than ``index`` (for resync).

        Raises :class:`LogCompactedError` when compaction already dropped
        part of the requested range — the caller needs a dump-based
        cold start, a replay would silently skip writes."""
        if index < 0:
            index = 0
        with self._lock:
            if index < self._store.truncated_through:
                raise LogCompactedError(
                    f"log entries after {index} were compacted away "
                    f"(oldest retained index is {self._store.truncated_through + 1}); "
                    "cold-start from a database dump instead"
                )
            return self._store.entries_after(index)

    def __len__(self) -> int:
        return self.last_index

    # -- checkpoints ----------------------------------------------------------------

    @property
    def checkpoints(self) -> Dict[str, int]:
        """A snapshot of the live checkpoints, name → index."""
        with self._lock:
            return dict(self._checkpoints)

    def checkpoint(self, name: str, index: Optional[int] = None, overwrite: bool = False) -> int:
        """Pin ``index`` (default: the current head) under ``name``;
        returns the pinned index."""
        if index is not None and index < 0:
            raise CheckpointError(f"checkpoint index must be >= 0, got {index}")
        with self._lock:
            if not overwrite and name in self._checkpoints:
                raise CheckpointError(f"checkpoint {name!r} already exists")
            self._checkpoints[name] = self._store.last_index if index is None else index
            self._store.record_checkpoints(self._checkpoints)
            return self._checkpoints[name]

    def release_checkpoint(self, name: str) -> bool:
        """Drop a checkpoint; returns whether it existed."""
        with self._lock:
            if self._checkpoints.pop(name, None) is None:
                return False
            self._store.record_checkpoints(self._checkpoints)
            return True

    def restore_checkpoints(self, checkpoints: Dict[str, int]) -> None:
        """Take a primary's shipped checkpoints as this log's own: a
        follower's are a pure function of the latest frame. The record is
        rewritten only when they changed."""
        with self._lock:
            if checkpoints != self._checkpoints:
                self._checkpoints = dict(checkpoints)
                self._store.record_checkpoints(self._checkpoints)

    # -- compaction -------------------------------------------------------------------

    def compact(self) -> int:
        """Truncate entries no live checkpoint (nor any future replay
        from one) can need: everything at or below the oldest live
        checkpoint, or the whole retained history when nothing is
        pinned. Returns how many entries the store dropped."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        floor = min(self._checkpoints.values(), default=self._store.last_index)
        dropped = self._store.truncate_through(floor)
        self._appends_since_compact = 0
        if dropped:
            self.compactions += 1
            self.entries_compacted += dropped
        return dropped

    # -- lifecycle / observability ------------------------------------------------------

    def flush(self) -> None:
        # Deliberately NOT under self._lock: the group-commit leader
        # flushes while other writers keep appending — holding the append
        # lock across a multi-millisecond fsync would serialise every
        # writer behind the flush, and no commit group could ever form.
        # The store synchronises its own handle against segment rolls.
        self._store.flush()

    def close(self) -> None:
        with self._lock:
            self._store.close()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            store_stats = self._store.stats()
            checkpoints = dict(self._checkpoints)
        return {
            "last_index": store_stats["last_index"],
            "first_index": store_stats["truncated_through"] + 1,
            "retained_entries": store_stats["entry_count"],
            "tables_sequenced": len(self._table_seqs),
            "compactions": self.compactions,
            "entries_compacted": self.entries_compacted,
            "auto_compact_every": self.auto_compact_every,
            "store": store_stats,
            "checkpoints": checkpoints,
        }


class GroupCommit:
    """Amortises recovery-log fsyncs across concurrent writers.

    Appends stay immediate and ordered (the per-table sequence invariant
    needs assignment under the writer's lock scope); only *durability*
    is batched. A writer that appended index ``i`` calls
    :meth:`wait_durable(i)` after releasing its lock scope and before
    replying to the client. The first waiter becomes the group's leader:
    it issues one ``flush()`` — a single fsync covering every entry
    appended so far, its own and every follower's. Writers that arrive
    while a flush is in flight wait and are covered by the *next*
    leader's fsync, so under load the fsync rate approaches one per
    group instead of one per statement, and no reply ever returns before
    its entry is durable.

    The controller installs one whenever there is something to wait for
    after an append: a durable log (``log_dir`` + ``log_fsync``), whose
    flush is the fsync, or HA peers, whose majority-ack replication round
    runs in the flush even over a volatile store. There is no switch. The
    store never fsyncs per append, so the fsync is not paid twice.

    ``log`` is anything with ``last_index`` and ``flush()``: a
    controller's HA node (the log's fsync, then the majority round) or
    a bare :class:`RecoveryLog`.
    """

    def __init__(self, log: Any) -> None:
        self._log = log
        self._cond = threading.Condition()
        #: Highest index known durable (covered by a finished fsync).
        self._flushed_through = 0
        self._flushing = False
        #: Observability: fsync groups led, and appends whose durability
        #: rode on some group's fsync.
        self.groups = 0
        self.synced_appends = 0

    def wait_durable(self, index: int) -> None:
        """Block until log entry ``index`` is fsynced, batching with
        concurrent waiters. Must be called without holding any scheduler
        lock the append path needs."""
        with self._cond:
            self.synced_appends += 1
            while index > self._flushed_through and self._flushing:
                self._cond.wait(timeout=5.0)
            if index <= self._flushed_through:
                return
            self._flushing = True
        # Leader: everything appended before the flush() below is covered
        # by its single fsync (entries are written to the OS on append;
        # closed segments were sealed at roll time).
        head = index
        flushed = False
        try:
            head = max(head, self._log.last_index)
            self._log.flush()
            flushed = True
        finally:
            with self._cond:
                self._flushing = False
                if flushed:
                    # Only a completed fsync moves the watermark: a failed
                    # flush must leave followers retrying as new leaders
                    # (and surfacing the error), not believing their entry
                    # durable.
                    self._flushed_through = max(self._flushed_through, head)
                    self.groups += 1
                self._cond.notify_all()

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "groups": self.groups,
                "synced_appends": self.synced_appends,
                "flushed_through": self._flushed_through,
            }
