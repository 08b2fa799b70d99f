"""Conflict-aware locking for the scheduler's write path.

The :class:`LockManager` orders cluster writes. Every acquisition's
footprint is one :class:`LockScope` value, at one of three
granularities — each covers strictly less than the one above it, and a
caller that cannot prove the narrower footprint safe asks for the wider
one:

1. **exclusive** — the empty scope, :data:`EXCLUSIVE`: a statement
   with an unknown/unparseable table set. It conflicts with every
   table and key anyone else holds.
2. **table locks** — a write acquires locks on a known, non-empty table
   set, so statements touching disjoint tables execute and broadcast in
   parallel while conflicting statements serialise in acquisition order.
3. **key locks** — a single-row write whose primary-key value is fully
   resolved (see :mod:`repro.cluster.lockscope`) locks just
   ``(table, key)``, so writers on *disjoint rows of the same table*
   overlap too. A key lock conflicts with a table lock on its table in
   **both directions**: a table-scope holder blocks every key on that
   table, and any held key blocks a whole-table acquisition.

Each acquisition is *all-or-nothing under one condition variable*. An
auto-commit statement holds its scope for the statement alone and never
waits while it holds part of one, so statements cannot deadlock.

**Transactions hold what they take.** A scope taken for a ``holder`` —
the scheduler's record of one session's transaction — stays held past
the statement, until :meth:`LockManager.release` at COMMIT or ROLLBACK
(strict two-phase locking), and a holder never conflicts with itself:
what it already holds it does not take again. A transaction can then
wait while it holds, so two of them can deadlock; **wait-die** on the
``age`` each passes (its BEGIN order) breaks every cycle: a holder that
must wait for an *older* transaction is refused with :class:`Refused`
instead, and its caller rolls it back. The older one waits. A
transaction that holds nothing yet waits too, whatever its age: no
cycle can run through it.

**The exclusive mode** (:meth:`LockManager.exclusive`) is the
operator's: resync replays, dump-based cold starts, snapshot dumps,
disables and placement swaps. It waits for every statement *in flight*
to finish — transactions between statements included, it never waits
for one to end — and blocks all new ones: total order. Exclusive
acquisition has priority over new acquisitions, as an exclusive-scope
statement waiting for its footprint has: once one waits, fresh scopes
queue behind it, so neither is starved by a steady stream of writers —
except a transaction that already holds scopes, which such a waiter may
be waiting for. The exclusive mode is reentrant per thread, and a
thread holding it acquires any narrower scope as a **no-op**: exclusive
self-ownership already covers every table and key, and waiting for
itself to release would deadlock.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class LockScope:
    """One acquisition's footprint: whole tables plus ``(table, key)``
    pairs. The empty scope is the exclusive footprint (:data:`EXCLUSIVE`)
    — an unknown footprint conflicts with everything."""

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


#: The empty scope: the exclusive footprint. Also what
#: :meth:`acquire_scope` reports as held when the caller's own exclusive
#: hold already covers the scope it asked for (it releases as a no-op).
EXCLUSIVE = LockScope()

#: What :meth:`LockManager._enter` returns to a thread holding the
#: exclusive mode: nothing was taken or counted.
_COVERED = object()
#: The holder of what auto-commit statements hold, each for itself.
_STATEMENT = object()


class _InFlight:
    """:meth:`LockManager.scope`'s block: in ``_enter(scope, holder, age,
    keep)``, out ``_leave`` (nothing, if the caller's exclusive hold covered it)."""

    __slots__ = ("_manager", "_args", "_taken")

    def __init__(self, manager: "LockManager", *args: Any) -> None:
        self._manager, self._args = manager, args

    def __enter__(self) -> None:
        self._taken = self._manager._enter(*self._args)

    def __exit__(self, *exc_info: Any) -> None:
        if self._taken is not _COVERED:
            self._manager._leave(self._taken, self._args[1])


class Refused(Exception):
    """Wait-die refused a transaction's acquisition: it holds scopes and
    would wait for an older transaction. Nothing new was taken."""


class LockManager:
    """Table- and key-level write locks, held per statement or per
    transaction, with an exclusive global mode."""

    def __init__(self) -> None:
        #: Guards everything below (never reentrantly); ``_cond`` waits on it.
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        #: Tables locked whole, and by whom.
        self._held_tables: Dict[str, Any] = {}
        #: Keys locked, per table (table → key → holder).
        self._held_keys: Dict[str, Dict[Any, Any]] = {}
        #: Who holds the exclusive footprint (an unknown-shape statement),
        #: None when nobody does.
        self._everything: Any = None
        #: What each transaction holds, and its age (BEGIN order).
        self._holdings: Dict[Any, List[LockScope]] = {}
        self._ages: Dict[Any, int] = {}
        #: Transactions with a statement in flight.
        self._busy: Set[Any] = set()
        #: How many statements are in flight under the lock manager.
        self._active_scope_ops = 0
        #: Thread ident of the exclusive holder (None when free).
        self._exclusive_owner: Optional[int] = None
        self._exclusive_depth = 0
        #: Exclusive callers, and exclusive-scope statements, waiting
        #: (gives them priority).
        self._exclusive_waiters = 0
        self._everything_waiters = 0
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
        #: Acquisitions wait-die refused.
        self.refusals = 0
        #: Narrower scopes absorbed by exclusive self-ownership (the
        #: would-be self-deadlocks).
        self.covered_by_exclusive = 0
        #: Total seconds spent blocked waiting for locks.
        self.wait_seconds = 0.0
        #: Told ``True`` when a scope caller starts to wait for a
        #: transaction between statements — one that holds what it needs
        #: and has no statement in flight — and ``False`` when it stops
        #: (under ``_mutex``): a pool whose threads wait so lends their
        #: slots meanwhile, or that transaction's own COMMIT could find no
        #: thread to run on. A wait for statements in flight is not told:
        #: they finish on the threads they hold.
        self.on_wait: Callable[[bool], None] = lambda waiting: None

    # -- conflict predicate ------------------------------------------------------

    def _blockers_locked(self, scope: LockScope, holder: Any) -> List[Any]:
        """Who holds what ``scope`` needs, ``holder`` (None: a statement,
        which holds nothing yet) aside. Caller holds ``_mutex``."""
        everything = self._everything
        blockers = [] if everything is None or everything is holder else [everything]
        if scope.empty:
            blockers += [h for h in self._held_tables.values() if h is not holder]
            return blockers + [
                h for keys in self._held_keys.values() for h in keys.values() if h is not holder
            ]
        held_tables, held_keys = self._held_tables, self._held_keys
        for table in scope.tables:
            # A whole-table request conflicts with the table held whole
            # AND with any key held on it — table↔key conflicts must cut
            # both ways or a table-scope DDL could run under a row write.
            found = held_tables.get(table)
            if found is not None and found is not holder:
                blockers.append(found)
            if table in held_keys:
                blockers += [h for h in held_keys[table].values() if h is not holder]
        for table, key in scope.keys:
            found = held_tables.get(table)
            if found is not None and found is not holder:
                blockers.append(found)
            found = held_keys[table].get(key) if table in held_keys else None
            if found is not None and found is not holder:
                blockers.append(found)
        return blockers

    def _wanted_locked(self, scope: LockScope, holder: Any) -> Optional[LockScope]:
        """The part of ``scope`` ``holder`` does not hold yet (None when
        it holds all of it)."""
        if self._everything is holder:
            return None
        if scope.empty:
            return scope
        tables = frozenset(t for t in scope.tables if self._held_tables.get(t) is not holder)
        keys = frozenset(
            (t, k)
            for t, k in scope.keys
            if self._held_tables.get(t) is not holder and self._held_keys.get(t, {}).get(k) is not holder
        )
        return LockScope(tables, keys) if tables or keys else None

    # -- acquisition ---------------------------------------------------------------

    def _enter(
        self, scope: Optional[LockScope], holder: Any, age: Optional[int], keep: bool = True
    ) -> Any:
        """Put one statement in flight, holding ``scope`` (None: nothing
        new) for ``holder`` (None: the statement itself); returns what it
        newly took for the statement, or :data:`_COVERED` when the
        calling thread holds the exclusive mode (nothing is taken or
        counted). A holder keeps what it takes; one that does not
        ``keep`` it — a transaction's read — waits only for conflicting
        statements in flight and takes nothing. Raises :class:`Refused`
        under wait-die."""
        with self._mutex:
            if self._exclusive_owner is not None and self._exclusive_owner == threading.get_ident():
                self.covered_by_exclusive += 1
                return _COVERED
            if holder is None:
                owner, holds, read, wanted = _STATEMENT, False, False, scope
            else:
                owner, holds, read = holder, holder in self._holdings, not keep
                if age is not None and holder not in self._ages:
                    self._ages[holder] = age
                wanted = scope if scope is None or not holds else self._wanted_locked(scope, holder)
            everything = wanted is not None and not (wanted.tables or wanted.keys or read)
            waited = lent = False
            started = 0.0
            try:
                while True:
                    blockers: Sequence[Any] = ()
                    if self._exclusive_owner is None and (
                        holds
                        or everything
                        or not (self._exclusive_waiters or self._everything_waiters)
                    ):
                        held = self._held_tables or self._held_keys or self._everything is not None
                        blockers = self._blockers_locked(wanted, holder) if held and wanted is not None else []
                        if read:
                            blockers = [h for h in blockers if h in self._busy or h not in self._holdings]
                        if not blockers:
                            break
                        if holds and not read and age is not None and any(
                            self._ages.get(h, age) < age for h in blockers
                        ):
                            self.refusals += 1
                            raise Refused(f"would wait for an older transaction (age {age})")
                    if not waited:
                        waited = True
                        started = time.monotonic()
                        self._scope_waiters += 1
                        self._everything_waiters += everything
                    idle = any(h in self._holdings and h not in self._busy for h in blockers)
                    if idle != lent:
                        lent = idle
                        self.on_wait(lent)
                    self._cond.wait()
            finally:
                if waited:
                    self._scope_waiters -= 1
                    self._everything_waiters -= everything
                    self.wait_seconds += time.monotonic() - started
                if lent:
                    self.on_wait(False)
            self._active_scope_ops += 1
            if holder is not None:
                self._busy.add(holder)
            if wanted is None or read:
                return None
            self._take_locked(wanted, owner, waited)
            if holder is None:
                return wanted
            self._holdings.setdefault(holder, []).append(wanted)
            return None

    def _take_locked(self, scope: LockScope, holder: Any, waited: bool) -> None:
        if not (scope.tables or scope.keys):
            self._everything = holder
            self.exclusive_acquisitions += 1
            self.exclusive_waits += waited
            return
        for table in scope.tables:
            self._held_tables[table] = holder
        for table, key in scope.keys:
            self._held_keys.setdefault(table, {})[key] = holder
        if scope.tables:
            self.table_acquisitions += 1
            self.table_waits += waited
        if scope.keys:
            self.key_acquisitions += 1
            self.key_waits += waited and not scope.tables

    def _drop_locked(self, scope: LockScope, holder: Any) -> None:
        """Stop holding ``scope`` for ``holder`` (None: a statement's own)."""
        if not (scope.tables or scope.keys):
            if holder is None or self._everything is holder:
                self._everything = None
            return
        for table in scope.tables:
            if holder is None or self._held_tables.get(table) is holder:
                self._held_tables.pop(table, None)
        for table, key in scope.keys:
            keys = self._held_keys.get(table)
            if keys is not None and (holder is None or keys.get(key) is holder):
                del keys[key]
                if not keys:
                    del self._held_keys[table]

    def _leave(self, taken: Optional[LockScope], holder: Any) -> None:
        """A statement of ``holder`` (None: a statement of its own) leaves
        flight, releasing ``taken`` (None: nothing)."""
        with self._mutex:
            if taken is not None:
                self._drop_locked(taken, None)
            if holder is not None:
                self._busy.discard(holder)
            self._active_scope_ops -= 1
            if self._scope_waiters or self._exclusive_waiters:
                self._cond.notify_all()

    def acquire_scope(self, scope: LockScope) -> LockScope:
        """Block until every table and key in ``scope`` is free, then
        hold them all (all-or-nothing) for the calling statement. Returns
        the scope actually held — pass it to :meth:`release_scope`.

        A thread that already owns the exclusive mode gets
        :data:`EXCLUSIVE` back immediately: its exclusive hold covers
        any table or key, and waiting for ``_exclusive_owner`` to clear
        would be waiting for itself.

        Must not be called with an empty scope — an unknown footprint is
        taken through :meth:`scope`."""
        if scope.empty:
            raise ValueError("empty lock scope: take it through scope() instead")
        if self._enter(scope, None, None) is _COVERED:
            return EXCLUSIVE
        return scope

    def release_scope(self, scope: LockScope) -> None:
        if scope.empty:
            # The exclusive self-ownership sentinel: nothing was taken.
            return
        self._leave(scope, None)

    def release(self, holder: Any) -> None:
        """Release everything ``holder`` (a transaction) holds."""
        with self._mutex:
            for scope in self._holdings.pop(holder, ()):
                self._drop_locked(scope, holder)
            self._ages.pop(holder, None)
            if self._scope_waiters or self._exclusive_waiters:
                self._cond.notify_all()

    # -- exclusive mode ------------------------------------------------------------

    def acquire_exclusive(self) -> None:
        """Block until no statement is in flight, then hold the whole
        write path. Reentrant per thread."""
        me = threading.get_ident()
        with self._mutex:
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
        with self._mutex:
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

    def scope(
        self, scope: Optional[LockScope], holder: Any = None, age: Optional[int] = None, keep: bool = True
    ) -> "_InFlight":
        """The scheduler's one entry point: run the block in flight,
        holding ``scope`` — the exclusive footprint when it is empty.
        Without a ``holder`` the block is one auto-commit statement and
        holds the scope for itself. With one (a transaction, of ``age``)
        the scope is taken for it, minus what it already holds, and
        stays held for it until :meth:`release`; ``scope`` None takes
        nothing new. A holder's block that does not ``keep`` its scope
        is a read: another transaction's held rows do not stop it, as
        one database does not stop a read of an uncommitted row, only
        statements in flight, so it reads no write half-way across the
        replicas. Raises :class:`Refused` under wait-die."""
        return _InFlight(self, scope, holder, age, keep)

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._mutex:
            return {
                "tables_held": len(self._held_tables),
                "keys_held": sum(len(keys) for keys in self._held_keys.values()),
                "key_tables_held": len(self._held_keys),
                "active_table_ops": self._active_scope_ops,
                "exclusive_held": self._exclusive_owner is not None or self._everything is not None,
                "exclusive_waiters": self._exclusive_waiters + self._everything_waiters,
                "scope_waiters": self._scope_waiters,
                "transactions_holding": len(self._holdings),
                "table_acquisitions": self.table_acquisitions,
                "key_acquisitions": self.key_acquisitions,
                "exclusive_acquisitions": self.exclusive_acquisitions,
                "table_waits": self.table_waits,
                "key_waits": self.key_waits,
                "exclusive_waits": self.exclusive_waits,
                "refusals": self.refusals,
                "covered_by_exclusive": self.covered_by_exclusive,
                "wait_seconds": round(self.wait_seconds, 6),
            }
