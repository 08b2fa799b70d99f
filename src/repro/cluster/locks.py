"""Conflict-aware locking for the scheduler's write path.

The original write path serialised every broadcast behind one global
``threading.Lock``, so a hash-partitioned RAIDb-0/2 cluster gained write
capacity on paper but executed one write at a time in practice. This
module provides the :class:`LockManager` that replaces it. Lock
granularity is a three-step ladder — each step covers strictly less than
the one above it, and every acquisition falls back *up* the ladder
whenever the narrower scope cannot be proven safe:

1. :meth:`LockManager.exclusive` — the global mode. It waits for every
   in-flight scope to drain and blocks all new ones, which is exactly
   the old global-lock behaviour. Everything that relies on total order
   keeps it: transaction control, statements with an unknown/unparseable
   table set, resync replays, dump-based cold starts, snapshot dumps and
   placement swaps. The worst case is today's safety — never weaker.
2. **table locks** — a write acquires locks on a known, non-empty table
   set, so statements touching disjoint tables execute and broadcast in
   parallel while conflicting statements serialise in acquisition order.
3. **key locks** — a single-row write whose primary-key value is fully
   resolved (the scheduler consults the schema catalog) locks just
   ``(table, key)``, so writers on *disjoint rows of the same table*
   overlap too. A key lock conflicts with a table lock on its table in
   **both directions**: a table-scope holder blocks every key on that
   table, and any held key blocks a whole-table acquisition.

Every acquisition is *all-or-nothing under one condition variable*, so
there is no incremental lock ordering and therefore no deadlock between
writers (a writer never holds part of its scope while waiting for the
rest). Scopes are described by :class:`LockScope` — a set of whole
tables plus a set of ``(table, key)`` pairs — and acquired through
:meth:`LockManager.scope`.

Exclusive acquisition has priority over new table/key acquisitions: once
an exclusive caller is waiting, fresh scopes queue behind it, so a
resync cannot be starved by a steady stream of writers. Exclusive
acquisition is reentrant per thread, and a thread already holding the
exclusive mode acquires any narrower scope as a **no-op**: exclusive
self-ownership already covers every table and key, and waiting for
itself to release would deadlock (a recovery path re-entering the
scheduler did exactly that before this rule existed).

``conflict_aware=False`` turns every acquisition into the exclusive
mode, restoring the single-global-lock behaviour byte for byte — a
historical baseline the concurrency benchmark (E15) builds from this
primitive; the controller always runs conflict-aware. Key granularity
has the same kind of baseline switch one layer up
(``RequestScheduler(key_level_locking=False)``, E16's table-lock
baseline): the scheduler simply stops producing key scopes, and every
write is a table scope again.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple, Union


@dataclass(frozen=True)
class LockScope:
    """One acquisition's footprint: whole tables plus ``(table, key)``
    pairs. Empty scopes are the sentinel for "already covered" (an
    exclusive self-owner's narrower acquisition) and release as no-ops."""

    tables: FrozenSet[str] = frozenset()
    keys: FrozenSet[Tuple[str, Any]] = frozenset()

    @property
    def empty(self) -> bool:
        return not self.tables and not self.keys

    def describe(self) -> str:
        parts = [f"table:{name}" for name in sorted(self.tables)]
        parts += [f"key:{table}[{key!r}]" for table, key in sorted(self.keys, key=repr)]
        return ", ".join(parts) or "nothing"


#: The no-op scope handed back when the caller already holds exclusive.
_COVERED = LockScope()

#: What ``scope()`` accepts: None/empty → exclusive, an iterable of table
#: names → table locks, a LockScope → exactly that footprint.
ScopeSpec = Union[None, Iterable[str], LockScope]


class LockManager:
    """Table- and key-level write locks with an exclusive global mode."""

    def __init__(self, conflict_aware: bool = True) -> None:
        #: When False, every acquisition takes the exclusive mode — the
        #: pre-lock-manager behaviour (one global write lock).
        self.conflict_aware = conflict_aware
        self._cond = threading.Condition()
        #: Tables currently locked whole by some in-flight statement.
        self._held_tables: Set[str] = set()
        #: Keys currently locked, per table (table → set of key values).
        self._held_keys: Dict[str, Set[Any]] = {}
        #: How many table/key-scope acquisitions are in flight.
        self._active_scope_ops = 0
        #: Thread ident of the exclusive holder (None when free).
        self._exclusive_owner: Optional[int] = None
        self._exclusive_depth = 0
        #: Exclusive callers currently waiting (gives them priority).
        self._exclusive_waiters = 0
        #: Scope callers currently blocked (observable: lets tests and
        #: operators see queued writers live, not only after the fact).
        self._scope_waiters = 0
        # -- counters (surfaced through stats()) --
        self.table_acquisitions = 0
        self.key_acquisitions = 0
        self.exclusive_acquisitions = 0
        #: Acquisitions that had to wait for a conflicting holder.
        self.table_waits = 0
        self.key_waits = 0
        self.exclusive_waits = 0
        #: Narrower scopes absorbed by exclusive self-ownership (the
        #: would-be self-deadlocks).
        self.covered_by_exclusive = 0
        #: Total seconds spent blocked waiting for locks.
        self.wait_seconds = 0.0

    # -- conflict predicate ------------------------------------------------------

    def _scope_conflicts_locked(self, scope: LockScope) -> bool:
        """Whether ``scope`` conflicts with the current holders. Caller
        holds ``_cond``. Exclusive state is checked by the wait loops."""
        for table in scope.tables:
            # A whole-table request conflicts with the table held whole
            # AND with any key held on it — table↔key conflicts must cut
            # both ways or a table-scope DDL could run under a row write.
            if table in self._held_tables or self._held_keys.get(table):
                return True
        for table, key in scope.keys:
            if table in self._held_tables:
                return True
            if key in self._held_keys.get(table, ()):
                return True
        return False

    # -- table / key scopes ------------------------------------------------------

    def acquire_scope(self, scope: LockScope) -> LockScope:
        """Block until every table and key in ``scope`` is free, then
        hold them all (all-or-nothing). Returns the scope actually held —
        pass it to :meth:`release_scope`.

        A thread that already owns the exclusive mode gets the empty
        scope back immediately: its exclusive hold covers any table or
        key, and waiting for ``_exclusive_owner`` to clear would be
        waiting for itself (the self-deadlock this excusal fixes).

        Must not be called with an empty scope — an unknown footprint
        means the caller cannot know what it conflicts with and must
        take :meth:`exclusive` instead."""
        if scope.empty:
            raise ValueError("empty lock scope: acquire exclusive() instead")
        me = threading.get_ident()
        with self._cond:
            if self._exclusive_owner == me:
                self.covered_by_exclusive += 1
                return _COVERED
            waited = False
            started = 0.0
            try:
                while (
                    self._exclusive_owner is not None
                    or self._exclusive_waiters
                    or self._scope_conflicts_locked(scope)
                ):
                    if not waited:
                        waited = True
                        started = time.monotonic()
                        self._scope_waiters += 1
                    self._cond.wait()
            finally:
                if waited:
                    self._scope_waiters -= 1
            if waited:
                self.wait_seconds += time.monotonic() - started
                if scope.tables:
                    self.table_waits += 1
                else:
                    self.key_waits += 1
            self._held_tables.update(scope.tables)
            for table, key in scope.keys:
                self._held_keys.setdefault(table, set()).add(key)
            self._active_scope_ops += 1
            if scope.tables:
                self.table_acquisitions += 1
            if scope.keys:
                self.key_acquisitions += 1
            return scope

    def release_scope(self, scope: LockScope) -> None:
        if scope.empty:
            # The exclusive self-ownership sentinel: nothing was taken.
            return
        with self._cond:
            self._held_tables.difference_update(scope.tables)
            for table, key in scope.keys:
                keys = self._held_keys.get(table)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        self._held_keys.pop(table, None)
            self._active_scope_ops -= 1
            self._cond.notify_all()

    def acquire_tables(self, tables: Iterable[str]) -> FrozenSet[str]:
        """Table-only convenience over :meth:`acquire_scope`; returns the
        frozen table set actually held (empty when exclusive
        self-ownership already covered it)."""
        wanted = frozenset(tables)
        if not wanted:
            raise ValueError("empty table set: acquire exclusive() instead")
        return self.acquire_scope(LockScope(tables=wanted)).tables

    def release_tables(self, tables: FrozenSet[str]) -> None:
        release = frozenset(tables)
        if not release:
            return
        self.release_scope(LockScope(tables=release))

    # -- exclusive scope ---------------------------------------------------------

    def acquire_exclusive(self) -> None:
        """Block until no table/key acquisition is in flight, then hold
        the whole write path. Reentrant per thread."""
        me = threading.get_ident()
        with self._cond:
            if self._exclusive_owner == me:
                self._exclusive_depth += 1
                return
            self._exclusive_waiters += 1
            waited = False
            started = 0.0
            try:
                while self._exclusive_owner is not None or self._active_scope_ops:
                    if not waited:
                        waited = True
                        started = time.monotonic()
                    self._cond.wait()
            finally:
                self._exclusive_waiters -= 1
            if waited:
                self.exclusive_waits += 1
                self.wait_seconds += time.monotonic() - started
            self._exclusive_owner = me
            self._exclusive_depth = 1
            self.exclusive_acquisitions += 1

    def release_exclusive(self) -> None:
        with self._cond:
            if self._exclusive_owner != threading.get_ident():
                raise RuntimeError("exclusive lock released by a non-owner thread")
            self._exclusive_depth -= 1
            if self._exclusive_depth == 0:
                self._exclusive_owner = None
                self._cond.notify_all()

    # -- context managers --------------------------------------------------------

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        self.acquire_exclusive()
        try:
            yield
        finally:
            self.release_exclusive()

    @contextmanager
    def tables(self, tables: Iterable[str]) -> Iterator[None]:
        held = self.acquire_tables(tables)
        try:
            yield
        finally:
            self.release_tables(held)

    @contextmanager
    def scope(self, spec: ScopeSpec) -> Iterator[None]:
        """The scheduler's one entry point: a :class:`LockScope` (or a
        plain table set) for a known non-empty footprint, the exclusive
        mode for ``None``/empty (and always when ``conflict_aware`` is
        off)."""
        if isinstance(spec, LockScope):
            scope = spec
        else:
            scope = LockScope(tables=frozenset(spec) if spec is not None else frozenset())
        if not self.conflict_aware or scope.empty:
            with self.exclusive():
                yield
        else:
            held = self.acquire_scope(scope)
            try:
                yield
            finally:
                self.release_scope(held)

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "conflict_aware": self.conflict_aware,
                "tables_held": len(self._held_tables),
                "keys_held": sum(len(keys) for keys in self._held_keys.values()),
                "key_tables_held": len(self._held_keys),
                "active_table_ops": self._active_scope_ops,
                "exclusive_held": self._exclusive_owner is not None,
                "exclusive_waiters": self._exclusive_waiters,
                "scope_waiters": self._scope_waiters,
                "table_acquisitions": self.table_acquisitions,
                "key_acquisitions": self.key_acquisitions,
                "exclusive_acquisitions": self.exclusive_acquisitions,
                "table_waits": self.table_waits,
                "key_waits": self.key_waits,
                "exclusive_waits": self.exclusive_waits,
                "covered_by_exclusive": self.covered_by_exclusive,
                "wait_seconds": round(self.wait_seconds, 6),
            }
