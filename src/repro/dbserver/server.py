"""The database server process."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dbserver.auth import Authenticator, PasswordAuthenticator
from repro.dbserver.session import ExtensionHandler, ServerSession
from repro.dbserver.wire import PROTOCOL_VERSION
from repro.netsim.transport import Address, Channel, ChannelServer, Network
from repro.sqlengine.engine import Engine


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

    Extensions registered via :meth:`register_extension` take over
    connections whose first message type starts with the extension's
    prefix; this is how the in-database Drivolution server shares the
    database's listener (paper Section 4.1.2). A second listener on a
    different address can also be attached with :meth:`listen_also`, which
    is the "different port than the database engine" deployment.
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
        self._extensions: Dict[str, ExtensionHandler] = {}
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
        server = ChannelServer(listener, self._handle_channel, name=f"db-{self.config.name}")
        server.start()
        self._servers.append(server)
        self._started = True
        return self

    def listen_also(self, address: Address) -> None:
        """Serve the same engine (and extensions) on an additional address."""
        listener = self.network.listen(address)
        server = ChannelServer(listener, self._handle_channel, name=f"db-{self.config.name}-alt")
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

    # -- extensions --------------------------------------------------------------

    def register_extension(self, message_prefix: str, handler: ExtensionHandler) -> None:
        """Register a handler for connections opening with ``message_prefix`` messages."""
        self._extensions[message_prefix] = handler

    # -- observability -------------------------------------------------------------

    def active_session_count(self) -> int:
        with self._lock:
            return len(self._active_sessions)

    def active_sessions(self) -> List[ServerSession]:
        with self._lock:
            return list(self._active_sessions.values())

    # -- internals -------------------------------------------------------------------

    def _handle_channel(self, channel: Channel) -> None:
        session = ServerSession(
            server_name=self.config.name,
            engine=self.engine,
            channel=channel,
            min_protocol_version=self.config.min_protocol_version,
            max_protocol_version=self.config.max_protocol_version,
            authenticators=self.config.authenticators,
            extensions=self._extensions,
            on_session_open=self._track_open,
            on_session_close=self._track_close,
        )
        session.run()

    def _track_open(self, session: ServerSession) -> None:
        with self._lock:
            self._active_sessions[session.session_id] = session

    def _track_close(self, session: ServerSession) -> None:
        with self._lock:
            self._active_sessions.pop(session.session_id, None)
