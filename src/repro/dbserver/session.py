"""Server-side handling of one client connection."""

from __future__ import annotations

import uuid
from typing import Any, Dict, Optional

from repro.errors import ReproError
from repro.dbserver.auth import AuthenticationError
from repro.dbserver.wire import MessageType, make_connect_ok, make_error, make_result
from repro.netsim.ingress import STOP, Route
from repro.sqlengine.engine import Engine, Session
from repro.sqlengine.errors import SqlEngineError


class ServerSession:
    """One client's session, from its CONNECT until its channel closes:
    the protocol-version handshake and authentication, then statements
    (the :data:`STATEMENTS` table) on a
    :class:`repro.sqlengine.engine.Session`."""

    def __init__(self, engine: Engine, config: Any) -> None:
        self._engine = engine
        self._config = config
        self.session_id = uuid.uuid4().hex
        self.sql_session: Optional[Session] = None

    def handshake(self, connect: Dict[str, Any]) -> Dict[str, Any]:
        """Open the SQL session and answer the CONNECT_OK; the refusal
        instead, with no session opened, when the CONNECT does not
        qualify."""
        config = self._config
        client_version = connect["protocol_version"]
        if not config.min_protocol_version <= client_version <= config.max_protocol_version:
            return make_error(
                "protocol_mismatch",
                f"client protocol version {client_version!r} not supported "
                f"(server accepts {config.min_protocol_version}..{config.max_protocol_version})",
            )
        auth_method = connect.get("auth_method") or "password"
        authenticator = config.authenticators.get(auth_method)
        if authenticator is None:
            return make_error(
                "auth_method_unsupported",
                f"authentication method {auth_method!r} not enabled on this server",
            )
        try:
            authenticator.authenticate(self._engine, connect)
        except AuthenticationError as exc:
            return make_error("auth_failed", str(exc))
        database_name = connect["database"]
        if self._engine.database(database_name) is None:
            return make_error("unknown_database", f"database {database_name!r} does not exist")
        self.sql_session = self._engine.open_session(database_name, user=connect.get("user"))
        return make_connect_ok(config.name, config.max_protocol_version, self.session_id)

    def flagged(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Every RESULT/ERROR says whether this session's transaction is
        open *now* — the engine's answer, however it was opened or ended;
        omitted when false, like every optional field (docs/wire.md)."""
        if self.sql_session.in_transaction:
            reply["in_transaction"] = True
        return reply

    def execute(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Run the statement; when the frame says ``begin`` (v4), run BEGIN
        first and the statement only if BEGIN succeeded."""
        try:
            if message.get("begin"):
                self.sql_session.execute("BEGIN")
            result = self.sql_session.execute(
                message["sql"],
                params=message.get("params") or {},
                positional=message.get("positional") or [],
            )
        except SqlEngineError as exc:
            return self.flagged(make_error("sql_error", str(exc)))
        except ReproError as exc:  # pragma: no cover - defensive
            return self.flagged(make_error("internal_error", str(exc)))
        return self.flagged(make_result(result.columns, result.rows, result.rowcount))


def refuse_statement(session: ServerSession, frame: Dict[str, Any], code: str, detail: str) -> Dict[str, Any]:
    """A frame the statement table refuses is answered like a statement."""
    return session.flagged(make_error(code, detail))


#: What a CONNECTed channel takes (docs/wire.md "Who may send what").
STATEMENTS = {
    MessageType.EXECUTE: Route(
        ServerSession.execute, {"sql": str}, {"params": dict, "positional": list, "begin": bool}
    ),
    MessageType.CLOSE: Route(lambda session, frame: STOP),
    MessageType.PING: Route(lambda session, frame: {"type": MessageType.PONG}),
}
