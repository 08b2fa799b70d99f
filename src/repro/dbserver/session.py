"""Server-side handling of one client connection."""

from __future__ import annotations

import uuid
from typing import Any, Callable, Dict, Optional

from repro.errors import ReproError, TransportError
from repro.dbserver.auth import AuthenticationError, Authenticator
from repro.dbserver.wire import MessageType, make_connect_ok, make_error, make_result
from repro.netsim.transport import Channel
from repro.sqlengine.engine import Engine, Session
from repro.sqlengine.errors import SqlEngineError

#: Extension handlers receive (server, channel, first_message) and take
#: over the connection entirely (used by the in-database Drivolution server).
ExtensionHandler = Callable[[Channel, Dict[str, Any]], None]


class ServerSession:
    """Serves one client channel until it closes.

    The session performs the protocol-version handshake, authentication,
    then loops on EXECUTE messages, mapping them to a
    :class:`repro.sqlengine.engine.Session`.
    """

    def __init__(
        self,
        server_name: str,
        engine: Engine,
        channel: Channel,
        min_protocol_version: int,
        max_protocol_version: int,
        authenticators: Dict[str, Authenticator],
        extensions: Dict[str, ExtensionHandler],
        on_session_open: Optional[Callable[["ServerSession"], None]] = None,
        on_session_close: Optional[Callable[["ServerSession"], None]] = None,
    ) -> None:
        self._server_name = server_name
        self._engine = engine
        self._channel = channel
        self._min_version = min_protocol_version
        self._max_version = max_protocol_version
        self._authenticators = authenticators
        self._extensions = extensions
        self._on_session_open = on_session_open
        self._on_session_close = on_session_close
        self.session_id = uuid.uuid4().hex
        self.sql_session: Optional[Session] = None
        self.user: Optional[str] = None
        self.database: Optional[str] = None

    # -- main loop -----------------------------------------------------------

    def run(self) -> None:
        try:
            first = self._channel.recv(timeout=30.0)
        except TransportError:
            return
        message_type = str(first.get("type", ""))
        # Dispatch extension traffic (e.g. Drivolution bootstrap) before
        # treating the connection as a database session.
        for prefix, handler in self._extensions.items():
            if message_type.startswith(prefix):
                handler(self._channel, first)
                return
        if message_type != MessageType.CONNECT:
            self._channel.send(make_error("bad_handshake", f"expected connect, got {message_type!r}"))
            return
        if not self._handshake(first):
            return
        if self._on_session_open is not None:
            self._on_session_open(self)
        try:
            self._serve_statements()
        finally:
            if self.sql_session is not None:
                self.sql_session.close()
            if self._on_session_close is not None:
                self._on_session_close(self)

    # -- handshake -----------------------------------------------------------

    def _handshake(self, connect: Dict[str, Any]) -> bool:
        client_version = connect.get("protocol_version")
        if not isinstance(client_version, int) or not (
            self._min_version <= client_version <= self._max_version
        ):
            self._channel.send(
                make_error(
                    "protocol_mismatch",
                    f"client protocol version {client_version!r} not supported "
                    f"(server accepts {self._min_version}..{self._max_version})",
                )
            )
            return False
        auth_method = str(connect.get("auth_method", "password"))
        authenticator = self._authenticators.get(auth_method)
        if authenticator is None:
            self._channel.send(
                make_error(
                    "auth_method_unsupported",
                    f"authentication method {auth_method!r} not enabled on this server",
                )
            )
            return False
        try:
            authenticator.authenticate(self._engine, connect)
        except AuthenticationError as exc:
            self._channel.send(make_error("auth_failed", str(exc)))
            return False
        database_name = str(connect.get("database", ""))
        database = self._engine.database(database_name)
        if database is None:
            self._channel.send(make_error("unknown_database", f"database {database_name!r} does not exist"))
            return False
        self.user = connect.get("user")
        self.database = database_name
        self.sql_session = self._engine.open_session(database_name, user=self.user)
        self._channel.send(
            make_connect_ok(self._server_name, self._max_version, self.session_id)
        )
        return True

    # -- statement loop --------------------------------------------------------

    def _serve_statements(self) -> None:
        assert self.sql_session is not None
        while True:
            try:
                message = self._channel.recv(timeout=None)
            except TransportError:
                return
            message_type = message.get("type")
            if message_type == MessageType.CLOSE:
                return
            if message_type == MessageType.PING:
                self._channel.send({"type": MessageType.PONG})
                continue
            reply = self._answer(message)
            # Every RESULT/ERROR says whether this session's transaction
            # is open *now* — the engine's answer, however it was opened
            # or ended; omitted when false, like every optional field
            # (docs/wire.md).
            if self.sql_session.in_transaction:
                reply["in_transaction"] = True
            try:
                self._channel.send(reply)
            except TransportError:
                return

    def _answer(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """The RESULT or ERROR for one frame of the statement loop. An
        ill-typed EXECUTE is refused like an unexpected frame: raising
        would kill this session's thread and the client would see a
        closed channel where it is owed an answer."""
        message_type = message.get("type")
        if message_type != MessageType.EXECUTE:
            return make_error("bad_message", f"unexpected message {message_type!r}")
        sql = message.get("sql", "")
        params = message.get("params") or {}
        positional = message.get("positional") or []
        if not (
            isinstance(sql, str) and isinstance(params, dict) and isinstance(positional, list)
        ):
            return make_error(
                "bad_message",
                "EXECUTE takes a string sql, a mapping params and a list positional",
            )
        try:
            result = self.sql_session.execute(sql, params=params, positional=positional)
        except SqlEngineError as exc:
            return make_error("sql_error", str(exc))
        except ReproError as exc:  # pragma: no cover - defensive
            return make_error("internal_error", str(exc))
        return make_result(result.columns, result.rows, result.rowcount)
