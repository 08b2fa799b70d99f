"""The Drivolution Server (paper Sections 3 and 4).

A :class:`DrivolutionServer` answers bootloader requests over the
Drivolution bootstrap protocol: it matches drivers, grants leases and
serves driver files. How it stores drivers and which databases it speaks
for is determined by its *binding*:

- :class:`InDatabaseServerBinding` — the server lives inside a DBMS
  (Section 4.1.2). Drivers are rows of that engine's information schema;
  the server either shares the database's listener (registered as an
  extension, so bootloader connections and database connections arrive on
  the same port) or listens on a separate port.
- :class:`ExternalServerBinding` — the server is an external process that
  queries a legacy database through a conventional driver (Section 4.1.3,
  Figure 2).
- :class:`StandaloneServerBinding` — the server owns an embedded database
  and distributes drivers for any number of databases (Section 4.1.4,
  used by the Sequoia legacy-environment case study, Figure 5).

The server also supports the paper's dedicated notification channel: a
bootloader may SUBSCRIBE, and :meth:`DrivolutionServer.notify_update`
(called by the admin after installing a driver) immediately pushes an
update-available signal instead of waiting for lease expiry.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core import messages
from repro.core.lease import LeaseManager
from repro.core.matchmaker import Matchmaker, NoMatchingDriver
from repro.core.messages import (
    DrivolutionErrorMessage,
    DrivolutionOffer,
    DrivolutionRequest,
)
from repro.core.package import DriverPackage, DriverSigner
from repro.core.registry import ConnectionBackend, DriverRegistry, SessionBackend
from repro.errors import DrivolutionError, TransportError
from repro.netsim.secure import Certificate, CertificateAuthority, SecureChannel
from repro.netsim.transport import Address, Channel, ChannelServer, Network
from repro.sqlengine.engine import Engine


class ServerBinding:
    """How a Drivolution server reaches its driver store."""

    def __init__(self, registry: DriverRegistry, known_databases: Optional[Callable[[], List[str]]] = None):
        self.registry = registry
        self.known_databases = known_databases


class InDatabaseServerBinding(ServerBinding):
    """Drivers live in the hosting DBMS's information schema."""

    def __init__(self, engine: Engine, database_name: str, clock: Callable[[], float] = time.time) -> None:
        self.engine = engine
        self.database_name = database_name
        engine.create_database(database_name)
        session = engine.open_session(database_name)
        registry = DriverRegistry(SessionBackend(session), clock=clock)
        registry.install_schema()
        super().__init__(registry, known_databases=engine.database_names)


class StandaloneServerBinding(ServerBinding):
    """Drivers live in an embedded database owned by the Drivolution server.

    ``served_databases`` restricts which database names this server will
    answer for; empty means "any" (a pure distribution service).
    """

    def __init__(
        self,
        served_databases: Optional[List[str]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.engine = Engine(name="drivolution-embedded", clock=clock)
        self.engine.create_database("drivolution")
        session = self.engine.open_session("drivolution")
        registry = DriverRegistry(SessionBackend(session), clock=clock)
        registry.install_schema()
        served = list(served_databases or [])
        super().__init__(registry, known_databases=(lambda: served) if served else None)


class ExternalServerBinding(ServerBinding):
    """Drivers live in a legacy database reached through a legacy driver.

    ``connection_factory`` opens a DB-API connection to the legacy
    database (Figure 2's step 2); upgrading that single legacy driver is
    the only client-side driver maintenance left in this deployment.
    """

    def __init__(
        self,
        connection_factory: Callable[[], Any],
        served_databases: Optional[List[str]] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self._connection_factory = connection_factory
        self.connection = connection_factory()
        registry = DriverRegistry(ConnectionBackend(self.connection), clock=clock)
        registry.install_schema()
        served = list(served_databases or [])
        super().__init__(registry, known_databases=(lambda: served) if served else None)

    def reconnect(self) -> None:
        """Re-open the legacy connection (e.g. after upgrading that driver)."""
        try:
            self.connection.close()
        except Exception:
            pass
        self.connection = self._connection_factory()
        self.registry.rebind(ConnectionBackend(self.connection))


@dataclass
class ServerStats:
    """Counters for experiments and tests."""

    requests: int = 0
    discovers: int = 0
    offers: int = 0
    errors: int = 0
    files_served: int = 0
    bytes_served: int = 0
    renewals: int = 0
    notifications_sent: int = 0


class DrivolutionServer:
    """Answers the Drivolution bootstrap protocol for one binding."""

    def __init__(
        self,
        binding: ServerBinding,
        network: Optional[Network] = None,
        address: Optional[Address] = None,
        clock: Callable[[], float] = time.time,
        server_id: Optional[str] = None,
        signer: Optional[DriverSigner] = None,
        certificate: Optional[Certificate] = None,
        certificate_authority: Optional[CertificateAuthority] = None,
        require_secure_channel: bool = False,
    ) -> None:
        self.binding = binding
        self.network = network
        self.address = address
        self.clock = clock
        self.server_id = server_id or f"drivolution-{uuid.uuid4().hex[:8]}"
        self.signer = signer
        self.certificate = certificate
        self.certificate_authority = certificate_authority
        self.require_secure_channel = require_secure_channel
        self.stats = ServerStats()
        self.leases = LeaseManager(binding.registry, clock=clock)
        self.matchmaker = Matchmaker(
            binding.registry, known_databases=binding.known_databases, clock=clock
        )
        self._subscribers: List[Dict[str, Any]] = []
        self._channel_server: Optional[ChannelServer] = None
        self._lock = threading.Lock()

    # -- deployment ------------------------------------------------------------

    def start(self) -> "DrivolutionServer":
        """Listen on the configured network address (standalone/in-database
        on a separate port)."""
        if self.network is None or self.address is None:
            raise DrivolutionError("start() requires a network and an address")
        if self._channel_server is not None:
            return self
        listener = self.network.listen(self.address)
        self._channel_server = ChannelServer(listener, self._serve_channel, name=self.server_id)
        self._channel_server.start()
        return self

    def stop(self) -> None:
        if self._channel_server is not None:
            self._channel_server.stop()
            self._channel_server = None

    def attach_to_database_server(self, database_server) -> None:
        """Share the database's listener (in-database deployment on the
        same port): Drivolution traffic is dispatched by message prefix."""
        database_server.register_extension(messages.MESSAGE_PREFIX, self.handle_connection)

    # -- registry passthroughs used by the admin ----------------------------------

    @property
    def registry(self) -> DriverRegistry:
        return self.binding.registry

    # -- notification channel -------------------------------------------------------

    def notify_update(self, api_name: str, database: Optional[str] = None) -> int:
        """Push an update-available signal to matching subscribers.

        Returns the number of subscribers notified. Dead channels are
        dropped silently (their bootloaders fall back to lease polling).
        """
        notified = 0
        with self._lock:
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            if subscriber["api_name"] and api_name and subscriber["api_name"] != api_name:
                continue
            if database and subscriber["database"] and subscriber["database"] != database:
                continue
            try:
                subscriber["channel"].send(messages.make_update_available(api_name, database))
                notified += 1
            except TransportError:
                with self._lock:
                    if subscriber in self._subscribers:
                        self._subscribers.remove(subscriber)
        self.stats.notifications_sent += notified
        return notified

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    # -- connection handling -----------------------------------------------------------

    def _serve_channel(self, channel: Channel) -> None:
        """Entry point for connections on the server's own listener."""
        try:
            first = channel.recv(timeout=30.0)
        except TransportError:
            return
        self.handle_connection(channel, first)

    def handle_connection(self, channel: Channel, first_message: Dict[str, Any]) -> None:
        """Serve one bootloader connection starting with ``first_message``.

        Also used as the database-server extension entry point.
        """
        if first_message.get("type") == "secure_hello":
            channel, first_message = self._upgrade_to_secure(channel, first_message)
            if channel is None:
                return
        elif self.require_secure_channel:
            channel.send(
                DrivolutionErrorMessage(
                    "secure_channel_required",
                    "this Drivolution server only serves drivers over secure channels",
                ).to_wire()
            )
            return
        message: Optional[Dict[str, Any]] = first_message
        while message is not None:
            try:
                self._dispatch(channel, message)
                message = channel.recv(timeout=None)
            except TransportError:
                return

    def _upgrade_to_secure(self, channel: Channel, first_message: Dict[str, Any]):
        """Perform the server side of the secure handshake (the listener
        already read its first frame) and receive the first request; a
        client certificate this server's authority did not issue is
        refused."""
        if self.certificate is None:
            channel.send(DrivolutionErrorMessage("no_certificate", "server has no certificate").to_wire())
            return None, None
        try:
            secure = SecureChannel.server_handshake(
                channel,
                self.certificate,
                authority=self.certificate_authority,
                hello=first_message,
            )
            return secure, secure.recv(timeout=30.0)
        except TransportError:
            return None, None

    # -- protocol dispatch ----------------------------------------------------------------

    def _dispatch(self, channel: Channel, message: Dict[str, Any]) -> None:
        """Answer one message."""
        message_type = message.get("type")
        handler = self._handlers.get(message_type)
        if handler is None:
            channel.send(
                DrivolutionErrorMessage("bad_message", f"unexpected message {message_type!r}").to_wire()
            )
            return
        handler(self, channel, message)

    def _handle_request(self, channel: Channel, message: Dict[str, Any]) -> None:
        """REQUEST and DISCOVER: a DISCOVER is a REQUEST that grants no
        lease and ships no file — it describes what a unicast REQUEST
        would be offered."""
        request = DrivolutionRequest.from_wire(message)
        is_discover = message.get("type") == messages.DISCOVER
        if is_discover:
            self.stats.discovers += 1
        else:
            self.stats.requests += 1
        try:
            result = self.matchmaker.match(request)
        except NoMatchingDriver as exc:
            self.stats.errors += 1
            channel.send(DrivolutionErrorMessage("no_driver", str(exc)).to_wire())
            return
        lease_id, includes_file = "", False
        if not is_discover:
            previous = self.leases.get(request.current_lease_id) if request.current_lease_id else None
            lease_id = self.leases.renew(
                previous_lease_id=request.current_lease_id,
                client_id=request.client_id or f"client-{uuid.uuid4().hex[:8]}",
                driver_id=result.driver_id,
                lease_time_ms=result.lease_time_ms,
                renew_policy=result.renew_policy,
                expiration_policy=result.expiration_policy,
                database=request.database,
                user=request.user,
            ).lease_id
            includes_file = previous is None or previous.driver_id != result.driver_id
            if not includes_file:
                self.stats.renewals += 1
        offer = DrivolutionOffer(
            lease_id=lease_id,
            lease_time_ms=result.lease_time_ms,
            driver_id=result.driver_id,
            driver_location=f"driver:{result.driver_id}",
            binary_format=str(result.driver_row.get("binary_format", "")),
            renew_policy=int(result.renew_policy),
            expiration_policy=int(result.expiration_policy),
            driver_version=DriverRegistry.row_version(result.driver_row),
            driver_options=result.driver_options,
            includes_file=includes_file,
            server_id=self.server_id,
        )
        channel.send(offer.to_wire())
        self.stats.offers += 1

    def _handle_file_request(self, channel: Channel, message: Dict[str, Any]) -> None:
        location = str(message.get("driver_location", ""))
        scheme, _, driver_id = location.partition(":")
        if scheme != "driver" or not driver_id.isdecimal():
            channel.send(
                DrivolutionErrorMessage("bad_location", f"unknown driver location {location!r}").to_wire()
            )
            return
        try:
            package = self.registry.get_driver(int(driver_id))
        except DrivolutionError as exc:
            self.stats.errors += 1
            channel.send(DrivolutionErrorMessage("no_driver", str(exc)).to_wire())
            return
        if self.signer is not None and package.signature is None:
            package = package.signed_by(self.signer)
        channel.send(messages.make_file_data(package.to_wire()))
        self.stats.files_served += 1
        self.stats.bytes_served += package.size_bytes

    def _handle_release(self, channel: Channel, message: Dict[str, Any]) -> None:
        lease_id = str(message.get("lease_id", ""))
        released = self.leases.release(lease_id)
        channel.send({"type": "drivolution_release_ack", "released": released})

    def _handle_subscribe(self, channel: Channel, message: Dict[str, Any]) -> None:
        subscriber = {
            "channel": channel,
            "client_id": str(message.get("client_id", "")),
            "api_name": str(message.get("api_name", "")),
            "database": str(message.get("database", "")),
        }
        with self._lock:
            self._subscribers.append(subscriber)
        channel.send({"type": "drivolution_subscribe_ack", "server_id": self.server_id})

    _handlers = {
        messages.REQUEST: _handle_request,
        messages.DISCOVER: _handle_request,
        messages.FILE_REQUEST: _handle_file_request,
        messages.RELEASE: _handle_release,
        messages.SUBSCRIBE: _handle_subscribe,
    }
