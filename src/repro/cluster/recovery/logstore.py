"""Pluggable persistence for the recovery log.

A :class:`LogStore` holds the ordered history of committed write
statements. The :class:`RecoveryLog` facade assigns indexes and enforces
compaction policy; stores only persist and retrieve entries.

Two implementations:

- :class:`MemoryLogStore` — a list, the behaviour of the original
  58-line ``RecoveryLog`` (nothing survives a restart),
- :class:`FileLogStore` — segmented JSONL files. Appends go to the
  current segment, which rolls over after ``segment_max_entries``
  entries; compaction deletes whole segments from disk and memory, so
  both the directory and the in-memory mirror stay bounded. Opening a
  directory recovers from a crash mid-append by truncating a partial
  trailing line, and resumes ``last_index`` where the previous process
  stopped.

Beside its entries, a store keeps the controller's one durable record:
the compaction floor, the HA epoch and the named checkpoints.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Dict, IO, List, Optional, Tuple

from repro.errors import DriverError


@dataclass(frozen=True)
class LogEntry:
    """One logged write statement.

    ``write_tables``/``table_seqs`` carry the per-table ordering model:
    under conflict-aware locking the cluster-wide index order is only
    meaningful *per table* (disjoint-table writes append in whatever
    order they finish), so each entry records the tables it writes and a
    per-table sequence number assigned by the :class:`RecoveryLog`.
    Replay verifies these sequences stay monotone per table, and a
    backend that already applied an entry's every table effect (tracked
    by :class:`repro.cluster.backend.Backend`) can skip it instead of
    double-applying. Entries with an empty ``write_tables`` have an
    unknown table set and are always appended — and replayed — under the
    exclusive global lock, so they keep total order.
    """

    index: int
    sql: str
    params: Dict[str, Any] = field(default_factory=dict)
    write_tables: Tuple[str, ...] = ()
    table_seqs: Dict[str, int] = field(default_factory=dict)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "sql": self.sql,
            "params": _encode_params(self.params),
            "write_tables": list(self.write_tables),
            "table_seqs": dict(self.table_seqs),
        }

    @staticmethod
    def from_wire(payload: Dict[str, Any]) -> "LogEntry":
        return LogEntry(
            index=int(payload["index"]),
            sql=str(payload["sql"]),
            params=_decode_params(dict(payload.get("params") or {})),
            write_tables=tuple(
                str(table) for table in (payload.get("write_tables") or ())
            ),
            table_seqs={
                str(table): int(seq)
                for table, seq in (payload.get("table_seqs") or {}).items()
            },
        )


#: ``"".join(_encode_line(payload, 0))`` is ``json.dumps(payload,
#: separators=(",", ":"))`` from a C encoder built once, as in netsim.framing.
_encode_line = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", False, False, True
)


def _encode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """Make statement parameters JSON-safe (BLOB values become hex)."""
    encoded: Dict[str, Any] = {}
    for name, value in params.items():
        if isinstance(value, bytes):
            encoded[name] = {"__blob__": value.hex()}
        else:
            encoded[name] = value
    return encoded


def _decode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    decoded: Dict[str, Any] = {}
    for name, value in params.items():
        if isinstance(value, dict) and "__blob__" in value:
            decoded[name] = bytes.fromhex(value["__blob__"])
        else:
            decoded[name] = value
    return decoded


def fsync_directory(directory: str) -> None:
    """Make a rename or a file creation in ``directory`` durable: the
    new name is on disk only once the directory itself is fsynced
    (Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014)."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def atomic_write_json(path: str, payload: Dict[str, Any]) -> None:
    """Durably replace ``path`` with ``payload`` as JSON: tmp-file write,
    fsync, atomic rename, then a directory fsync — a crash leaves either
    the old file or the new one, never a torn mix, and once this returns
    the new one."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(os.path.dirname(path) or ".")


class LogStoreError(DriverError):
    """A log store could not persist or retrieve entries."""


def encode_checkpoints(checkpoints: Dict[str, int]) -> List[Dict[str, Any]]:
    """Checkpoint rows, as the record and a REPLICATE frame carry them."""
    return [{"name": name, "index": index} for name, index in checkpoints.items()]


def decode_checkpoints(rows: Any) -> Dict[str, int]:
    """Name → index of checkpoint rows; ``ValueError`` unless every row
    has a ``str`` name and a non-negative ``int`` index."""
    if not isinstance(rows, list):
        raise ValueError(f"checkpoints {rows!r} are not a list")
    checkpoints: Dict[str, int] = {}
    for row in rows:
        index = row.get("index") if isinstance(row, dict) else None
        if type(index) is not int or index < 0 or type(row.get("name")) is not str:
            raise ValueError(f"bad checkpoint row {row!r}")
        checkpoints[row["name"]] = index
    return checkpoints


class LogStore:
    """Interface every log store implements.

    Entries arrive in strictly increasing index order (the
    :class:`RecoveryLog` facade serialises appends). ``truncated_through``
    is the highest index dropped by compaction (0 when nothing was ever
    dropped): entries with index > ``truncated_through`` are retrievable.

    The store also keeps the controller's record: that floor, the HA
    ``epoch`` (None until a group member settles one) and the named
    ``checkpoints``. Each change rewrites it whole under ``_state_lock``,
    taken last: the HA node records its epoch under its own state lock.
    """

    def __init__(self) -> None:
        self._truncated_through = 0
        self._epoch: Optional[int] = None
        self._checkpoints: Dict[str, int] = {}
        self._state_lock = threading.Lock()

    def append(self, entry: LogEntry) -> None:
        self.append_many([entry])

    def append_many(self, entries: List[LogEntry]) -> None:
        """Append a batch of consecutive entries: a durable store pays one
        flush+fsync for the whole batch (group commit)."""
        raise NotImplementedError

    def entries_after(self, index: int) -> List[LogEntry]:
        """Entries with index strictly greater than ``index``.

        Callers must not ask below ``truncated_through`` (the facade
        raises ``LogCompactedError`` first)."""
        raise NotImplementedError

    @property
    def last_index(self) -> int:
        raise NotImplementedError

    @property
    def truncated_through(self) -> int:
        return self._truncated_through

    @property
    def entry_count(self) -> int:
        """Entries currently retained (bounded by compaction)."""
        raise NotImplementedError

    @property
    def epoch(self) -> Optional[int]:
        return self._epoch

    @property
    def checkpoints(self) -> Dict[str, int]:
        return dict(self._checkpoints)

    def record_epoch(self, epoch: int) -> None:
        with self._state_lock:
            self._epoch = epoch
            self._save_state_locked()

    def record_checkpoints(self, checkpoints: Dict[str, int]) -> None:
        with self._state_lock:
            self._checkpoints = dict(checkpoints)
            self._save_state_locked()

    def _record_floor(self, index: int) -> None:
        with self._state_lock:
            self._truncated_through = index
            self._save_state_locked()

    def _save_state_locked(self) -> None:
        """Persist the whole record (a volatile store keeps it in memory)."""

    def truncate_through(self, index: int) -> int:
        """Drop entries with index <= ``index`` where cheap to do so;
        returns how many were dropped. Stores may retain more than asked
        (e.g. only whole segments are dropped) but never less than the
        caller allows."""
        raise NotImplementedError

    def reset_to_floor(self, index: int) -> None:
        """Discard every retained entry and restart the store at
        compaction floor ``index`` — as if entries ``1..index`` existed
        and were all compacted away. The follower half of an HA snapshot
        install: its whole retained log sits below the primary's
        compaction floor and is superseded by the shipped checkpoint
        snapshot, so it adopts the floor and takes the post-floor suffix
        fresh. ``index`` must be at or above ``last_index``."""
        raise NotImplementedError

    def flush(self) -> None:
        """Make appended entries durable (no-op for volatile stores)."""

    def close(self) -> None:
        """Release file handles; the store may be reopened by a new
        instance on the same directory."""

    def stats(self) -> Dict[str, Any]:
        return {
            "kind": type(self).__name__,
            "last_index": self.last_index,
            "truncated_through": self.truncated_through,
            "entry_count": self.entry_count,
        }


class MemoryLogStore(LogStore):
    """Volatile store: the original in-memory list, plus compaction."""

    def __init__(self) -> None:
        super().__init__()
        self._entries: List[LogEntry] = []

    def append_many(self, entries: List[LogEntry]) -> None:
        self._entries += entries

    def entries_after(self, index: int) -> List[LogEntry]:
        offset = max(index, self._truncated_through) - self._truncated_through
        return list(self._entries[offset:])

    @property
    def last_index(self) -> int:
        if self._entries:
            return self._entries[-1].index
        return self._truncated_through

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def truncate_through(self, index: int) -> int:
        if index <= self._truncated_through:
            return 0
        drop = min(index - self._truncated_through, len(self._entries))
        self._entries = self._entries[drop:]
        self._record_floor(self._truncated_through + drop)
        return drop

    def reset_to_floor(self, index: int) -> None:
        if index < self.last_index:
            raise LogStoreError(
                f"cannot reset to floor {index} below log head {self.last_index}"
            )
        self._entries = []
        self._record_floor(index)


class FileLogStore(LogStore):
    """Segmented JSONL store surviving process restarts.

    Layout of ``directory``::

        segment-00000001.jsonl   entries 1..N, one JSON object per line
        segment-00000N.jsonl     current segment, appended to
        state.json               {"truncated_through": n, "epoch": e or null,
                                  "checkpoints": [{"name": ..., "index": i}, ...]}

    Segment files are named after the index of their first entry. A crash
    mid-append leaves a partial trailing line in the *last* segment only;
    :meth:`_read_segment` truncates it so the next append continues
    cleanly. Compaction removes whole segments (disk and memory), so
    retained entries round up to the segment boundary above the requested
    floor. A ``state.json`` that does not decode refuses to open, and so
    does a directory of the older three-file layout.
    """

    _SEGMENT_PREFIX = "segment-"
    _SEGMENT_SUFFIX = ".jsonl"
    #: The older layout's files, refused rather than migrated.
    _RETIRED_FILES = tuple(f"{stem}.json" for stem in ("logmeta", "checkpoints", "ha"))

    def __init__(
        self,
        directory: str,
        segment_max_entries: int = 256,
        fsync_on_append: bool = False,
    ) -> None:
        if segment_max_entries <= 0:
            raise ValueError("segment_max_entries must be positive")
        super().__init__()
        self.directory = directory
        self._state_file = os.path.join(directory, "state.json")
        self.segment_max_entries = segment_max_entries
        self.fsync_on_append = fsync_on_append
        os.makedirs(directory, exist_ok=True)
        #: Retained entries, grouped per segment in index order.
        self._segments: List[List[LogEntry]] = []
        self._segment_paths: List[str] = []
        self._last_index = 0
        self._handle: Optional[IO[str]] = None
        #: Guards fsync/close of the segment handle. flush() is called by
        #: the group-commit leader *without* the RecoveryLog's append lock
        #: (holding it across a multi-millisecond fsync would serialise
        #: appends behind the flush and no commit group could ever form),
        #: so the fsync must be atomic against a segment roll closing the
        #: handle under its feet. Plain writes never take this lock —
        #: fsyncing a file another thread is appending to is safe, the
        #: fsync simply covers whatever reached the OS first.
        self._handle_lock = threading.Lock()
        self.recovered_partial_lines = 0
        #: fsync() calls issued (appends, batch tails, rolls, flushes) —
        #: the observable the group-commit bench asserts on.
        self.fsyncs = 0
        self._load()

    # -- opening / crash recovery ------------------------------------------------

    def _segment_path(self, first_index: int) -> str:
        return os.path.join(
            self.directory, f"{self._SEGMENT_PREFIX}{first_index:08d}{self._SEGMENT_SUFFIX}"
        )

    def _load_state(self) -> None:
        for name in self._RETIRED_FILES:
            path = os.path.join(self.directory, name)
            if os.path.exists(path):
                raise LogStoreError(
                    f"{path!r} belongs to an older log directory layout, which is not "
                    "migrated: this version keeps its state in state.json"
                )
        path = self._state_file
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
            if not isinstance(record, dict):
                raise ValueError("the record is not an object")
            floor, epoch = record["truncated_through"], record["epoch"]
            if type(floor) is not int or floor < 0:
                raise ValueError(f"floor {floor!r} is not a non-negative integer")
            if epoch is not None and not (type(epoch) is int and epoch > 0):
                raise ValueError(f"epoch {epoch!r} is neither null nor a positive integer")
            checkpoints = decode_checkpoints(record["checkpoints"])
        except (KeyError, ValueError, OSError) as exc:
            raise LogStoreError(f"corrupt controller state {path!r}: {exc!r}") from exc
        self._truncated_through, self._epoch, self._checkpoints = floor, epoch, checkpoints

    def _load(self) -> None:
        self._load_state()
        names = sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith(self._SEGMENT_PREFIX) and name.endswith(self._SEGMENT_SUFFIX)
        )
        expected_next = self._truncated_through + 1
        for position, name in enumerate(names):
            path = os.path.join(self.directory, name)
            entries = self._read_segment(path, is_last=(position == len(names) - 1))
            if not entries:
                # A segment created right before a crash, no entry made it
                # to disk; reuse its slot.
                os.remove(path)
                continue
            if entries[-1].index <= self._truncated_through:
                # Compaction recorded the floor but crashed before
                # removing this segment's file; finish the job now.
                os.remove(path)
                continue
            if entries[0].index != expected_next:
                raise LogStoreError(
                    f"log segment {path!r} starts at index {entries[0].index}, "
                    f"expected {expected_next}"
                )
            self._segments.append(entries)
            self._segment_paths.append(path)
            expected_next = entries[-1].index + 1
        self._last_index = expected_next - 1

    def _read_segment(self, path: str, is_last: bool) -> List[LogEntry]:
        entries: List[LogEntry] = []
        with open(path, "rb") as handle:
            data = handle.read()
        good_offset = 0
        previous = None
        for raw_line in data.splitlines(keepends=True):
            line = raw_line.decode("utf-8", errors="replace")
            stripped = line.strip()
            complete = raw_line.endswith(b"\n")
            if not stripped:
                good_offset += len(raw_line)
                continue
            try:
                if not complete:
                    # No trailing newline: the append was cut mid-line.
                    raise ValueError("partial trailing line")
                entry = LogEntry.from_wire(json.loads(stripped))
            except (ValueError, KeyError) as exc:
                if is_last:
                    # Crash mid-append: truncate the partial/corrupt tail
                    # so the next append continues from the last good line.
                    self.recovered_partial_lines += 1
                    with open(path, "r+b") as handle:
                        handle.seek(good_offset)
                        handle.truncate()
                    break
                raise LogStoreError(f"corrupt log segment {path!r}: {exc}") from exc
            if previous is not None and entry.index != previous + 1:
                raise LogStoreError(
                    f"log segment {path!r} skips from index {previous} to {entry.index}"
                )
            previous = entry.index
            entries.append(entry)
            good_offset += len(raw_line)
        return entries

    # -- appends -------------------------------------------------------------------

    def append_many(self, entries: List[LogEntry]) -> None:
        """Write the whole batch, then flush+fsync once at its tail —
        the group-commit fast path: N durable appends cost one fsync."""
        for entry in entries:
            self._write_entry(entry)
        if entries and self.fsync_on_append:
            self._fsync_handle()

    def _write_entry(self, entry: LogEntry) -> None:
        if not self._segments or len(self._segments[-1]) >= self.segment_max_entries:
            self._roll_segment(entry.index)
        handle = self._ensure_handle()
        handle.write("".join(_encode_line(entry.to_wire(), 0)) + "\n")
        handle.flush()
        self._segments[-1].append(entry)
        self._last_index = entry.index

    def _fsync_handle(self) -> None:
        with self._handle_lock:
            if self._handle is not None and not self._handle.closed:
                os.fsync(self._handle.fileno())
                self.fsyncs += 1

    def _roll_segment(self, first_index: int) -> None:
        # Seal the outgoing segment durably before the handle closes:
        # under group commit entries are written with fsync deferred to a
        # later flush(), and flush() can only reach the *current* handle
        # — an un-fsynced closed segment would be a durability hole.
        self._fsync_handle()
        self._close_handle()
        path = self._segment_path(first_index)
        self._segments.append([])
        self._segment_paths.append(path)

    def _ensure_handle(self) -> IO[str]:
        if self._handle is None or self._handle.closed:
            path = self._segment_paths[-1]
            created = not os.path.exists(path)
            self._handle = open(path, "a", encoding="utf-8")
            if created:
                # The new segment's name must be durable before an entry
                # in it is acked (one directory fsync per segment).
                fsync_directory(self.directory)
        return self._handle

    def _close_handle(self) -> None:
        with self._handle_lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    # -- reads ---------------------------------------------------------------------

    def entries_after(self, index: int) -> List[LogEntry]:
        result: List[LogEntry] = []
        for segment in self._segments:
            if not segment or segment[-1].index <= index:
                continue
            for entry in segment:
                if entry.index > index:
                    result.append(entry)
        return result

    @property
    def last_index(self) -> int:
        return self._last_index

    @property
    def entry_count(self) -> int:
        return sum(len(segment) for segment in self._segments)

    # -- compaction ------------------------------------------------------------------

    def truncate_through(self, index: int) -> int:
        """Delete whole segments whose newest entry is <= ``index``. The
        current (last) segment is never deleted, so appends continue in
        place."""
        droppable = 0
        while (
            len(self._segments) - droppable > 1
            and self._segments[droppable]
            and self._segments[droppable][-1].index <= index
        ):
            droppable += 1
        if not droppable:
            return 0
        dropped = sum(len(segment) for segment in self._segments[:droppable])
        self._drop_segments(self._segments[droppable - 1][-1].index, droppable)
        return dropped

    def reset_to_floor(self, index: int) -> None:
        if index < self._last_index:
            raise LogStoreError(
                f"cannot reset to floor {index} below log head {self._last_index}"
            )
        self._close_handle()
        self._last_index = index
        self._drop_segments(index, len(self._segments))

    def _drop_segments(self, floor: int, count: int) -> None:
        """Drop the first ``count`` segments under the new ``floor``. The
        floor is recorded *before* any file is removed: a crash in between
        leaves segments wholly below the floor, which :meth:`_load`
        recognises and deletes — never a store that cannot be reopened."""
        doomed_paths = self._segment_paths[:count]
        self._record_floor(floor)
        self._segments = self._segments[count:]
        self._segment_paths = self._segment_paths[count:]
        for path in doomed_paths:
            with contextlib.suppress(OSError):
                os.remove(path)

    def _save_state_locked(self) -> None:
        atomic_write_json(
            self._state_file,
            {
                "truncated_through": self._truncated_through,
                "epoch": self._epoch,
                "checkpoints": encode_checkpoints(self._checkpoints),
            },
        )

    # -- lifecycle --------------------------------------------------------------------

    def flush(self) -> None:
        handle = self._handle
        if handle is not None and not handle.closed:
            try:
                handle.flush()
            except ValueError:
                # A segment roll closed the handle mid-call; the roll
                # itself fsynced everything the old segment held.
                return
            self._fsync_handle()

    def close(self) -> None:
        self._close_handle()

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base.update(
            {
                "directory": self.directory,
                "segments": len(self._segments),
                "segment_max_entries": self.segment_max_entries,
                "fsync_on_append": self.fsync_on_append,
                "fsyncs": self.fsyncs,
            }
        )
        return base
