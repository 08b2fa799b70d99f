"""Driver runtime: a concrete DB-API implementation over the database wire protocol.

A *driver package* in this repro is a small piece of Python source code
(stored as a BLOB in the database, per the paper's Table 1) that binds
specific parameters — driver version, wire protocol version, bundled
extensions, optional pre-configured URL — to this runtime. That mirrors
how a vendor's JDBC jar wraps a shared client library: the jar is what
gets distributed and versioned, the library does the actual talking.

The module also holds what every driver runtime in the repro shares —
the cluster driver (:mod:`repro.cluster.driver`) builds on the same
three bases: :class:`ResultCursor` (a cursor over one buffered RESULT
reply), :class:`WireConnection` (the DB-API transaction surface, the
transaction flag — an owed BEGIN, or what the session's owner said on
the last reply — the deferred BEGIN itself, and the connection
lifecycle — ``close()`` from any thread — over a subclass's
``_execute_locked`` and ``_detach``) and
:class:`DriverRuntime` (identity, option merging, pre-configured URLs,
connection tracking).

The pydb runtime implements:

- connection establishment with protocol-version negotiation and the
  authentication method appropriate to the bundled extensions
  (``kerberos`` extension → token authentication),
- pre-configured URLs: when the package carries ``preconfigured_url`` the
  host in the application's URL is ignored and the driver always connects
  to its baked-in target (the master/slave failover mechanism of paper
  Section 5.2),
- DB-API cursors over the EXECUTE/RESULT wire messages,
- feature probes for extension packages (GIS, NLS, ...).
"""

from __future__ import annotations

import functools
import re
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.dbapi.api import Connection, Cursor
from repro.dbapi.exceptions import (
    InterfaceError,
    IntegrityError,
    OperationalError,
    ProgrammingError,
)
from repro.dbapi.urls import ConnectionUrl, parse_url
from repro.dbserver.auth import compute_token
from repro.dbserver.wire import BEGIN_MIN_VERSION, PROTOCOL_VERSION, MessageType, make_connect, make_execute
from repro.errors import TransportError
from repro.netsim.registry import DEFAULT_NETWORK_NAME, get_network
from repro.netsim.transport import Channel, Network

_ERROR_CODE_MAP = {
    "protocol_mismatch": OperationalError,
    "auth_failed": OperationalError,
    "auth_method_unsupported": OperationalError,
    "unknown_database": OperationalError,
    "sql_error": ProgrammingError,
    "bad_message": InterfaceError,
    "bad_handshake": InterfaceError,
    "internal_error": OperationalError,
}


def _raise_for_error(message: Dict[str, Any]) -> None:
    code = str(message.get("code", "internal_error"))
    text = str(message.get("message", "unknown server error"))
    exc_class = _ERROR_CODE_MAP.get(code, OperationalError)
    if "constraint" in text or "foreign key" in text or "duplicate primary key" in text:
        exc_class = IntegrityError
    raise exc_class(f"[{code}] {text}")


class ResultCursor(Cursor):
    """Cursor over an EXECUTE/RESULT exchange: each ``execute`` buffers
    the whole reply its connection's ``_execute`` returned."""

    def __init__(self, connection: "WireConnection") -> None:
        self._connection = connection
        self._rows: List[Tuple[Any, ...]] = []
        self._cursor_index = 0
        self._columns: List[str] = []
        self._rowcount = -1
        self._closed = False

    @property
    def description(self) -> Optional[List[Tuple]]:
        if not self._columns:
            return None
        return [(name, None, None, None, None, None, None) for name in self._columns]

    @property
    def rowcount(self) -> int:
        return self._rowcount

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> "ResultCursor":
        if self._closed:
            raise InterfaceError("cursor is closed")
        result = self._connection._execute(sql, params or {})
        self._columns = list(result.get("columns", []))
        self._rows = [tuple(row) for row in result.get("rows", [])]
        self._cursor_index = 0
        self._rowcount = int(result.get("rowcount", -1))
        return self

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        if self._cursor_index >= len(self._rows):
            return None
        row = self._rows[self._cursor_index]
        self._cursor_index += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        count = size if size is not None else self.arraysize
        rows = self._rows[self._cursor_index : self._cursor_index + count]
        self._cursor_index += len(rows)
        return rows

    def fetchall(self) -> List[Tuple[Any, ...]]:
        rows = self._rows[self._cursor_index :]
        self._cursor_index = len(self._rows)
        return rows

    def close(self) -> None:
        self._closed = True
        self._rows = []


#: Name kept for the pydb driver's cursor.
RuntimeCursor = ResultCursor

#: The texts the engine's parser reads as a BEGIN, COMMIT or ROLLBACK and
#: nothing else: any case, whitespace around, one optional ``;``.
_LONE_CONTROL = re.compile(
    r"\s*(?:(BEGIN(?:\s+TRANSACTION)?|START\s+TRANSACTION)|COMMIT|ROLLBACK)\s*;?\s*", re.IGNORECASE
)


@functools.lru_cache(maxsize=512)
def _lone_control(sql: str) -> Optional[str]:
    """``"begin"`` or ``"end"`` (COMMIT or ROLLBACK) when ``sql`` is one of
    :data:`_LONE_CONTROL`'s texts, else None: any other text — ``BEGIN
    WORK``, ``COMMIT foo`` — is sent, so its error is the server's."""
    match = _LONE_CONTROL.fullmatch(sql)
    if match is None:
        return None
    return "begin" if match.group(1) else "end"


def _answered_here() -> Tuple[List[str], List[Tuple[Any, ...]], int]:
    """The collect of a statement answered without a request, as the engine answers."""
    return [], [], 0


class WireConnection(Connection):
    """The DB-API surface of a connection that talks an EXECUTE/RESULT
    wire protocol, and its lifecycle. Subclasses implement
    ``_execute_locked(sql, params, begin)`` — one statement in, run
    after a BEGIN when ``begin`` says the request carries one, the
    RESULT message out, errors raised — and ``_detach()``, which
    releases the server-side session and must tolerate being called
    twice. Both run under ``_lock``, the exchange lock: one statement
    at a time, and never concurrently with the detach.

    When both ends speak a version whose EXECUTE may carry ``begin``
    (:attr:`carries_begin`, set at CONNECT), a lone BEGIN on a
    connection in no transaction is answered here and owed: the next
    request carries it, and a COMMIT or ROLLBACK that finds it still
    owed is answered here too. The debt is settled when that request
    returns or raises to the caller — the BEGIN ran, or failed with its
    statement — whatever a subclass retried in between."""

    #: Whether both ends of the connection speak a begin-carrying version.
    carries_begin = False

    def __init__(self, driver: "DriverRuntime") -> None:
        self._driver = driver
        self._closed = False
        self._in_transaction = False
        #: A BEGIN answered here, which the next request carries.
        self._owed_begin = False
        self._lock = threading.Lock()
        #: Number of statements executed on this connection (observability
        #: for experiments: proves traffic kept flowing across an upgrade):
        #: a carried BEGIN counts once the server ran it, one answered here never.
        self.statements_executed = 0

    def _execute(self, sql: str, params: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self._closed:
                raise InterfaceError("connection is closed")
            if self._answer_here(sql):
                return {"columns": [], "rows": [], "rowcount": 0}  # as the engine answers
            return self._carry_locked(sql, params)

    def _carry_locked(self, sql: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """``sql`` through :meth:`_execute_locked` (under ``_lock``),
        carrying the owed BEGIN if there is one: the debt is settled once
        it returns or raises."""
        try:
            return self._execute_locked(sql, params, self._owed_begin)
        finally:
            self._owed_begin = False

    def _carry_before_batch_locked(
        self, statements: List[Tuple[str, Dict[str, Any]]]
    ) -> Tuple[List[Dict[str, Any]], List[Tuple[str, Dict[str, Any]]]]:
        """For a subclass about to fire ``statements`` as one batch (under
        ``_lock``): an owed BEGIN is paid first, by the first statement
        sent alone as :meth:`_execute` sends it, retries included, so a
        refused BEGIN leaves nothing behind it running auto-commit.
        Returns that statement's result, if one ran, and the statements
        left to fire."""
        if not (self._owed_begin and statements):
            return [], statements
        (sql, params), rest = statements[0], statements[1:]
        return [self._carry_locked(sql, params)], rest

    def _answer_here(self, sql: str) -> bool:
        """Whether ``sql`` needs no request (under ``_lock``): a lone BEGIN
        on a connection in no transaction becomes owed, and a lone COMMIT
        or ROLLBACK finding it still owed settles it."""
        control = _lone_control(sql) if self.carries_begin else None
        if control == "begin" and not (self._owed_begin or self._in_transaction):
            self._owed_begin = True
            return True
        if control == "end" and self._owed_begin:
            self._owed_begin = False
            return True
        return False

    def _execute_locked(self, sql: str, params: Dict[str, Any], begin: bool) -> Dict[str, Any]:
        raise NotImplementedError

    def _detach(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Close from any thread (the bootloader closes connections the
        application is still using): new statements are refused from
        here, a statement in flight on another thread is answered
        first, then the session is released."""
        self._closed = True
        with self._lock:
            self._detach()
            self._owed_begin = False
        self._driver._forget_connection(self)

    def cursor(self) -> ResultCursor:
        if self._closed:
            raise InterfaceError("connection is closed")
        return ResultCursor(self)

    def _reply_received(self, reply: Dict[str, Any]) -> None:
        """Every statement's reply, RESULT or ERROR, passes here before
        it is interpreted. The server that owns the session says on each
        whether a transaction is open on it (``in_transaction``, omitted
        when false): that — not which method the application called or
        what its SQL looked like — is the server's half of the flag, and
        this is its only writer. The other half is an owed BEGIN."""
        self._in_transaction = bool(reply.get("in_transaction"))

    def begin(self) -> None:
        self._execute("BEGIN", {})

    def commit(self) -> None:
        if self.in_transaction:
            self._execute("COMMIT", {})

    def rollback(self) -> None:
        if self.in_transaction:
            self._execute("ROLLBACK", {})

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_transaction(self) -> bool:
        """A BEGIN is owed, or the server said so on its last reply."""
        return self._owed_begin or self._in_transaction

    @property
    def driver_info(self) -> Dict[str, Any]:
        return self._driver.info()


class RuntimeConnection(WireConnection):
    """A live connection produced by :class:`RuntimeDriver`."""

    #: Whether the EXECUTE awaiting its reply carries a BEGIN.
    _begin_carried = False

    def __init__(self, driver: "RuntimeDriver", channel: Channel, url: ConnectionUrl, session_id: str) -> None:
        super().__init__(driver)
        self._channel = channel
        self._url = url
        self._session_id = session_id

    # -- internals ----------------------------------------------------------

    def _exchange(self, message: Dict[str, Any], timeout: float) -> Dict[str, Any]:
        self._channel.send(message)
        return self._channel.recv(timeout=timeout)

    def _execute_locked(self, sql: str, params: Dict[str, Any], begin: bool) -> Dict[str, Any]:
        self._send_execute_locked(sql, params, begin)
        return self._receive_result_locked()

    def _send_execute_locked(self, sql: str, params: Dict[str, Any], begin: bool) -> None:
        self._begin_carried = begin
        try:
            self._channel.send(make_execute(sql, params=params, begin=begin))
        except TransportError as exc:
            self._closed = True
            raise OperationalError(f"connection lost: {exc}") from exc

    def _receive_result_locked(self) -> Dict[str, Any]:
        begun, self._begin_carried = self._begin_carried and not self._in_transaction, False
        try:
            reply = self._channel.recv(timeout=30.0)
        except TransportError as exc:
            self._closed = True
            raise OperationalError(f"connection lost: {exc}") from exc
        self._reply_received(reply)
        self.statements_executed += int(begun and self._in_transaction)  # the carried BEGIN ran
        if reply.get("type") == MessageType.ERROR:
            _raise_for_error(reply)
        if reply.get("type") != MessageType.RESULT:
            raise InterfaceError(f"unexpected reply {reply.get('type')!r}")
        self.statements_executed += 1
        return reply

    def send_execute(self, sql: str, params: Optional[Dict[str, Any]] = None):
        """The split form of one statement, for a caller that sends to
        several connections before it waits on any: the EXECUTE goes on
        the wire now, and the returned zero-argument callable — to be
        called exactly once — waits for the reply and returns
        ``(columns, rows, rowcount)``, raising as ``cursor.execute``
        would. The exchange lock is held from here until that call
        returns, so a ``close()`` from another thread still waits for
        the reply in flight. A statement answered here (an owed BEGIN,
        or its COMMIT or ROLLBACK) sends nothing and holds nothing."""
        self._lock.acquire()
        try:
            if self._closed:
                raise InterfaceError("connection is closed")
            answered = self._answer_here(sql)
            if not answered:
                self._send_execute_locked(sql, params or {}, self._owed_begin)
        except BaseException:
            self._owed_begin = False
            self._lock.release()
            raise
        if answered:
            self._lock.release()
            return _answered_here
        return self._collect_result

    def _collect_result(self) -> Tuple[List[str], List[Tuple[Any, ...]], int]:
        try:
            reply = self._receive_result_locked()
        finally:
            self._owed_begin = False
            self._lock.release()
        return (
            list(reply.get("columns", [])),
            [tuple(row) for row in reply.get("rows", [])],
            int(reply.get("rowcount", -1)),
        )

    def _detach(self) -> None:
        try:
            if self._in_transaction:
                # Answered before the CLOSE goes out, so the transaction
                # is rolled back by the time close() returns. The server's
                # word only: an owed BEGIN opened nothing there.
                self._reply_received(self._exchange(make_execute("ROLLBACK"), timeout=30.0))
            self._channel.send({"type": MessageType.CLOSE})
        except TransportError:
            pass
        finally:
            self._channel.close()

    @property
    def session_id(self) -> str:
        return self._session_id

    @property
    def url(self) -> ConnectionUrl:
        return self._url

    def ping(self) -> bool:
        """Check liveness of the server side of this connection."""
        if self._closed:
            return False
        with self._lock:
            try:
                reply = self._exchange({"type": MessageType.PING}, timeout=5.0)
            except TransportError:
                self._closed = True
                return False
        return reply.get("type") == MessageType.PONG


class DriverRuntime:
    """What a driver package binds: a name, versions, bundled
    extensions, an optional pre-configured URL and default options —
    plus the bookkeeping of the connections it opened. Subclasses
    implement :meth:`_open`."""

    api_name = ""

    def __init__(
        self,
        name: str,
        driver_version: Tuple[int, int, int],
        protocol_version: int,
        extensions: Optional[List[str]] = None,
        preconfigured_url: Optional[str] = None,
        default_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.driver_version = tuple(driver_version)
        self.protocol_version = protocol_version
        self.extensions = list(extensions or [])
        self.preconfigured_url = preconfigured_url
        self.default_options = dict(default_options or {})
        self._connections: List[WireConnection] = []
        self._lock = threading.Lock()

    def info(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "api_name": self.api_name,
            "driver_version": tuple(self.driver_version),
            "protocol_version": self.protocol_version,
            "extensions": list(self.extensions),
            "preconfigured_url": self.preconfigured_url,
        }

    def supports(self, feature: str) -> bool:
        return feature in self.extensions

    # -- connection management --------------------------------------------------

    def connect(
        self,
        url: str,
        user: Optional[str] = None,
        password: Optional[str] = None,
        network: Optional[Network] = None,
        **options: Any,
    ) -> WireConnection:
        """Open a connection. Application options are merged over the
        driver's pre-configured defaults (paper Section 3.1.1); a
        pre-configured URL overrides the application's."""
        merged: Dict[str, Any] = {**self.default_options, **options}
        parsed = parse_url(self.preconfigured_url or url)
        if network is None:
            network_name = merged.get("network", parsed.options.get("network", DEFAULT_NETWORK_NAME))
            network = get_network(str(network_name))
        connection = self._open(network, parsed, user, password, merged)
        with self._lock:
            self._connections.append(connection)
        return connection

    def _open(
        self,
        network: Network,
        url: ConnectionUrl,
        user: Optional[str],
        password: Optional[str],
        options: Dict[str, Any],
    ) -> WireConnection:
        raise NotImplementedError

    def _forget_connection(self, connection: WireConnection) -> None:
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def open_connections(self) -> List[WireConnection]:
        """Currently open connections created by this driver instance."""
        with self._lock:
            return [conn for conn in self._connections if not conn.closed]

    def close_all(self) -> None:
        """Close every connection created by this driver instance."""
        for connection in self.open_connections():
            connection.close()


class RuntimeDriver(DriverRuntime):
    """A parameterised DB-API driver over the database wire protocol."""

    api_name = "PYDB-API"

    def __init__(
        self,
        name: str = "pydb-driver",
        driver_version: Tuple[int, int, int] = (1, 0, 0),
        protocol_version: int = PROTOCOL_VERSION,
        extensions: Optional[List[str]] = None,
        preconfigured_url: Optional[str] = None,
        default_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            name, driver_version, protocol_version, extensions, preconfigured_url, default_options
        )

    def _open(
        self,
        network: Network,
        url: ConnectionUrl,
        user: Optional[str],
        password: Optional[str],
        options: Dict[str, Any],
    ) -> RuntimeConnection:
        try:
            channel = network.connect(url.primary_host, timeout=5.0)
        except TransportError as exc:
            raise OperationalError(f"cannot reach database at {url.primary_host}: {exc}") from exc
        auth_method = "password"
        auth_token = None
        if "kerberos" in self.extensions and options.get("realm_secret"):
            auth_method = "token"
            auth_token = compute_token(str(options["realm_secret"]), user)
        connect_message = make_connect(
            url.database,
            self.protocol_version,
            user=user,
            password=password,
            auth_method=auth_method,
            auth_token=auth_token,
        )
        try:
            channel.send(connect_message)
            reply = channel.recv(timeout=10.0)
        except TransportError as exc:
            channel.close()
            raise OperationalError(f"handshake with {url.primary_host} failed: {exc}") from exc
        if reply.get("type") == MessageType.ERROR:
            channel.close()
            _raise_for_error(reply)
        if reply.get("type") != MessageType.CONNECT_OK:
            channel.close()
            raise InterfaceError(f"unexpected handshake reply {reply.get('type')!r}")
        connection = RuntimeConnection(self, channel, url, str(reply.get("session_id", "")))
        spoken = min(self.protocol_version, reply.get("protocol_version", 0))
        connection.carries_begin = spoken >= BEGIN_MIN_VERSION
        return connection
