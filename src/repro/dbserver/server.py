"""The database server process."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

from repro.dbserver.auth import Authenticator, PasswordAuthenticator
from repro.dbserver.session import STATEMENTS, ServerSession, refuse_statement
from repro.dbserver.wire import PROTOCOL_VERSION, MessageType, make_error
from repro.netsim.ingress import STOP, Route, refuse_with, serve
from repro.netsim.transport import Address, Channel, ChannelServer, Network
from repro.sqlengine.engine import Engine

#: Refuses a frame with the database protocol's ERROR and nothing more.
_refuse = refuse_with(make_error)


@dataclass
class ServerConfig:
    """Tunable parameters of a :class:`DatabaseServer`."""

    name: str = "repro-db"
    min_protocol_version: int = PROTOCOL_VERSION - 1
    max_protocol_version: int = PROTOCOL_VERSION
    authenticators: Dict[str, Authenticator] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.authenticators:
            self.authenticators = {"password": PasswordAuthenticator()}


class DatabaseServer:
    """Hosts a :class:`~repro.sqlengine.engine.Engine` behind the wire protocol.

    What the listener takes is one table, :attr:`routes`: a CONNECT opens
    a session, and an attached Drivolution server adds its rows — this
    is how the in-database Drivolution server shares the database's
    listener (paper Section 4.1.2). A second listener on a different
    address can also be attached with :meth:`listen_also`, which is the
    "different port than the database engine" deployment.
    """

    def __init__(
        self,
        engine: Engine,
        network: Network,
        address: Address,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.address = address
        self.config = config or ServerConfig(name=engine.name)
        #: Who may send what on this listener (docs/wire.md "Who may send
        #: what"); an attached Drivolution server adds its rows.
        self.routes: Dict[str, Route] = {
            MessageType.CONNECT: Route(
                self._open_session,
                {"database": str, "protocol_version": int},
                {"user": str, "password": str, "auth_method": str, "auth_token": str},
                code="bad_handshake",
            ),
        }
        self._serve = partial(serve, routes=self.routes, refuse=_refuse)
        self._servers: List[ChannelServer] = []
        self._active_sessions: Dict[str, ServerSession] = {}
        self._lock = threading.Lock()
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "DatabaseServer":
        """Bind the main listener and start serving."""
        if self._started:
            return self
        listener = self.network.listen(self.address)
        server = ChannelServer(listener, self._serve, name=f"db-{self.config.name}")
        server.start()
        self._servers.append(server)
        self._started = True
        return self

    def listen_also(self, address: Address) -> None:
        """Serve the same engine (and the same table) on an additional address."""
        listener = self.network.listen(address)
        server = ChannelServer(listener, self._serve, name=f"db-{self.config.name}-alt")
        server.start()
        self._servers.append(server)

    def stop(self) -> None:
        """Stop all listeners. Existing connections finish their work."""
        for server in self._servers:
            server.stop()
        self._servers.clear()
        self._started = False

    @property
    def running(self) -> bool:
        return self._started

    # -- observability -------------------------------------------------------------

    def active_session_count(self) -> int:
        with self._lock:
            return len(self._active_sessions)

    def active_sessions(self) -> List[ServerSession]:
        with self._lock:
            return list(self._active_sessions.values())

    # -- internals -------------------------------------------------------------------

    def _open_session(self, channel: Channel, connect: Dict[str, Any]) -> Any:
        """Answer a CONNECT: the CONNECT_OK and then the statement table
        until the channel closes, or a refusal that ends the channel (no
        second password on the same connection)."""
        session = ServerSession(self.engine, self.config)
        reply = session.handshake(connect)
        if session.sql_session is None:
            channel.send(reply)
            return STOP
        with self._lock:
            self._active_sessions[session.session_id] = session
        try:
            channel.send(reply)
            serve(channel, STATEMENTS, refuse_statement, context=session, greeted=True)
        finally:
            session.sql_session.close()
            with self._lock:
                self._active_sessions.pop(session.session_id, None)
        return STOP
