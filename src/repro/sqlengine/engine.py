"""Engine facade: databases, users and sessions.

An :class:`Engine` is what a DBMS process owns: a set of named databases,
a user/password catalog and a factory for :class:`Session` objects. The
database server (:mod:`repro.dbserver`) wraps an engine behind a wire
protocol; the Drivolution server queries it directly when embedded
in-database, or through a driver when running externally.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sqlengine.database import Database
from repro.sqlengine.errors import SqlExecutionError, TransactionError
from repro.sqlengine.executor import ResultSet
from repro.sqlengine.parser import parse
from repro.sqlengine.transactions import TransactionManager


class Session:
    """One client session against one database.

    Sessions are cheap; every connection from the database server gets its
    own session so its transaction state is isolated.
    """

    def __init__(self, engine: "Engine", database: Database, user: Optional[str] = None) -> None:
        self._engine = engine
        self._database = database
        self.user = user
        self._transactions = TransactionManager()
        self._closed = False

    @property
    def database_name(self) -> str:
        return self._database.name

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_transaction(self) -> bool:
        """Whether an explicit transaction is open (used by AFTER_COMMIT)."""
        return self._transactions.active

    def execute(
        self,
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        positional: Sequence[Any] = (),
    ) -> ResultSet:
        """Run one SQL statement: the database's plan for a text it has
        run before, otherwise parse the text, plan it and run the plan."""
        if self._closed:
            raise SqlExecutionError("session is closed")
        params = params or {}
        database = self._database
        with database.lock:
            plan = database.cached_plan(sql)
            if plan is not None:
                return plan(self._transactions, params, positional)
        statement = parse(sql)
        with database.lock:
            return database.plan(sql, statement)(self._transactions, params, positional)

    def begin(self) -> None:
        self.execute("BEGIN")

    def commit(self) -> None:
        self.execute("COMMIT")

    def rollback(self) -> None:
        self.execute("ROLLBACK")

    def abort(self) -> bool:
        """Roll back any in-flight transaction (forced termination path)."""
        with self._database.lock:
            return self._transactions.abort_if_active()

    def close(self) -> None:
        """Close the session, rolling back any open transaction."""
        if self._closed:
            return
        try:
            self.abort()
        except TransactionError:  # pragma: no cover - abort never raises this
            pass
        self._closed = True


class Engine:
    """A DBMS instance: named databases plus a user catalog."""

    def __init__(self, name: str = "repro-db", clock: Callable[[], float] = time.time) -> None:
        self.name = name
        self.clock = clock
        self._databases: Dict[str, Database] = {}
        self._users: Dict[str, str] = {}
        self._lock = threading.RLock()

    # -- databases -------------------------------------------------------------

    def create_database(self, name: str) -> Database:
        """Create (or return the existing) database called ``name``."""
        with self._lock:
            key = name.lower()
            if key not in self._databases:
                self._databases[key] = Database(name, clock=self.clock)
            return self._databases[key]

    def database(self, name: str) -> Optional[Database]:
        with self._lock:
            return self._databases.get(name.lower())

    def database_names(self) -> List[str]:
        with self._lock:
            return sorted(db.name for db in self._databases.values())

    def drop_database(self, name: str) -> bool:
        with self._lock:
            return self._databases.pop(name.lower(), None) is not None

    # -- users -------------------------------------------------------------------

    def create_user(self, user: str, password: str) -> None:
        with self._lock:
            self._users[user] = password

    def authenticate(self, user: Optional[str], password: Optional[str]) -> bool:
        """Check credentials. An engine with no users accepts anyone."""
        with self._lock:
            if not self._users:
                return True
            if user is None:
                return False
            return self._users.get(user) == password

    # -- sessions -----------------------------------------------------------------

    def open_session(self, database_name: str, user: Optional[str] = None) -> Session:
        database = self.database(database_name)
        if database is None:
            raise SqlExecutionError(f"database {database_name!r} does not exist")
        return Session(self, database, user=user)
