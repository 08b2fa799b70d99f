"""Conflict-aware locking for the scheduler's write path.

The :class:`LockManager` orders cluster writes. Every acquisition's
footprint is one :class:`LockScope` value, at one of three
granularities — each covers strictly less than the one above it, and a
caller that cannot prove the narrower footprint safe asks for the wider
one:

1. **exclusive** — the empty scope, :data:`EXCLUSIVE`
   (:meth:`LockManager.exclusive`). It waits for every in-flight scope
   to drain and blocks all new ones: total order. Everything that
   relies on total order takes it: transaction control, statements with
   an unknown/unparseable table set, resync replays, dump-based cold
   starts, snapshot dumps and placement swaps.
2. **table locks** — a write acquires locks on a known, non-empty table
   set, so statements touching disjoint tables execute and broadcast in
   parallel while conflicting statements serialise in acquisition order.
3. **key locks** — a single-row write whose primary-key value is fully
   resolved (see :mod:`repro.cluster.lockscope`) locks just
   ``(table, key)``, so writers on *disjoint rows of the same table*
   overlap too. A key lock conflicts with a table lock on its table in
   **both directions**: a table-scope holder blocks every key on that
   table, and any held key blocks a whole-table acquisition.

Every acquisition is *all-or-nothing under one condition variable*, so
there is no incremental lock ordering and therefore no deadlock between
writers (a writer never holds part of its scope while waiting for the
rest).

Exclusive acquisition has priority over new table/key acquisitions: once
an exclusive caller is waiting, fresh scopes queue behind it, so a
resync cannot be starved by a steady stream of writers. Exclusive
acquisition is reentrant per thread, and a thread already holding the
exclusive mode acquires any narrower scope as a **no-op**: exclusive
self-ownership already covers every table and key, and waiting for
itself to release would deadlock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, Optional, Set, Tuple


@dataclass(frozen=True)
class LockScope:
    """One acquisition's footprint: whole tables plus ``(table, key)``
    pairs. The empty scope is the exclusive mode (:data:`EXCLUSIVE`) —
    an unknown footprint conflicts with everything."""

    tables: FrozenSet[str] = frozenset()
    keys: FrozenSet[Tuple[str, Any]] = frozenset()

    @property
    def empty(self) -> bool:
        return not self.tables and not self.keys

    @property
    def kind(self) -> str:
        """``exclusive``, ``table`` or ``key`` — the granularity name
        traces attribute a lock wait to."""
        if self.tables:
            return "table"
        return "key" if self.keys else "exclusive"


#: The empty scope: the exclusive mode. Also what :meth:`acquire_scope`
#: reports as held when the caller's own exclusive hold already covers
#: the scope it asked for (it releases as a no-op).
EXCLUSIVE = LockScope()


class LockManager:
    """Table- and key-level write locks with an exclusive global mode."""

    def __init__(self) -> None:
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

        A thread that already owns the exclusive mode gets
        :data:`EXCLUSIVE` back immediately: its exclusive hold covers
        any table or key, and waiting for ``_exclusive_owner`` to clear
        would be waiting for itself.

        Must not be called with an empty scope — an unknown footprint
        means the caller cannot know what it conflicts with and must
        take :meth:`exclusive` instead."""
        if scope.empty:
            raise ValueError("empty lock scope: acquire exclusive() instead")
        me = threading.get_ident()
        with self._cond:
            if self._exclusive_owner == me:
                self.covered_by_exclusive += 1
                return EXCLUSIVE
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
    def scope(self, scope: LockScope) -> Iterator[None]:
        """The scheduler's one entry point: hold exactly ``scope`` —
        the exclusive mode when it is empty."""
        if scope.empty:
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
