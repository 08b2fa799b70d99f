"""Transactions: a statement is a transaction of one.

Every INSERT, UPDATE and DELETE records the undo of each row it writes
into one log: the session's open transaction's, else the statement's
own. A statement that raises is undone whole (inside a transaction its
earlier statements stay, as in SQLite); ROLLBACK undoes the
transaction's log and COMMIT forgets it.

The engine serializes statement execution with a single lock, so the undo
log does not need to handle concurrent writers to the same row; what the
Drivolution experiments need from transactions is the *lifecycle* —
knowing whether a connection has an in-flight transaction (the
``AFTER_COMMIT`` expiration policy) and being able to abort it cleanly
(the ``IMMEDIATE`` policy).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sqlengine.errors import TransactionError
from repro.sqlengine.storage import Row, Table

#: One undo record: the table, the slot written, and the row the slot held
#: before the write (None: the write stored a new row there).
Undo = Tuple[Table, int, Optional[Row]]


def undo(log: List[Undo], mark: int = 0) -> None:
    """Restore the rows recorded in ``log[mark:]``, newest first, and
    forget those records."""
    for table, index, before in reversed(log[mark:]):
        if before is None:
            table.remove_at(index)
        else:
            table.restore_at(index, before)
    del log[mark:]


class TransactionManager:
    """Tracks the open transaction of one session."""

    def __init__(self) -> None:
        self.active = False
        self._log: List[Undo] = []

    def statement_log(self) -> List[Undo]:
        """Where a write statement records its undo: the open transaction's
        log, else a new one of the statement's own."""
        return self._log if self.active else []

    def begin(self) -> None:
        if self.active:
            raise TransactionError("transaction already in progress")
        self.active = True

    def commit(self) -> None:
        if not self.active:
            raise TransactionError("COMMIT without an open transaction")
        self.active = False
        self._log = []

    def rollback(self) -> None:
        if not self.active:
            raise TransactionError("ROLLBACK without an open transaction")
        self.abort_if_active()

    def abort_if_active(self) -> bool:
        """Roll back the open transaction if there is one (used by forced
        connection termination under the IMMEDIATE policy)."""
        if not self.active:
            return False
        undo(self._log)
        self.active = False
        return True
