"""The Drivolution Server (paper Sections 3 and 4).

A :class:`DrivolutionServer` answers bootloader requests over the
Drivolution bootstrap protocol: it matches drivers, grants leases and
serves driver files. How it stores drivers and which databases it speaks
for is determined by its *binding*:

- :class:`InDatabaseServerBinding` — the server lives inside a DBMS
  (Section 4.1.2). Drivers are rows of that engine's information schema;
  the server either shares the database's listener (its rows join the
  database server's table, so bootloader connections and database
  connections arrive on the same port) or listens on a separate port.
- :class:`ExternalServerBinding` — the server is an external process that
  queries a legacy database through a conventional driver (Section 4.1.3,
  Figure 2).
- :class:`StandaloneServerBinding` — the server owns an embedded database
  and distributes drivers for any number of databases (Section 4.1.4,
  used by the Sequoia legacy-environment case study, Figure 5).

The server also supports the paper's dedicated notification channel: a
bootloader may SUBSCRIBE, and :meth:`DrivolutionServer.notify_update`
(called by the admin after installing a driver) immediately pushes an
update-available signal instead of waiting for lease expiry. A server
with a ``certificate`` serves secure channels only (Section 3.1).
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.core import messages
from repro.core.matchmaker import Matchmaker, NoMatchingDriver
from repro.core.messages import (
    DrivolutionErrorMessage,
    DrivolutionOffer,
    DrivolutionRequest,
)
from repro.core.package import DriverSigner
from repro.core.registry import ConnectionBackend, DriverRegistry, RegistryError, SessionBackend
from repro.errors import DrivolutionError, TransportError
from repro.netsim.ingress import STOP, Route, Sender, refuse_with, serve
from repro.netsim.secure import Certificate, CertificateAuthority, SecureChannel
from repro.netsim.transport import Address, Channel, ChannelServer, Network
from repro.sqlengine.engine import Engine


def _error(code: str, detail: str) -> Dict[str, Any]:
    return DrivolutionErrorMessage(code, detail).to_wire()


#: Refuses a frame with a DRIVOLUTION_ERROR and nothing more.
_refuse = refuse_with(_error)


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
    ) -> None:
        self.binding = binding
        self.network = network
        self.address = address
        self.clock = clock
        self.server_id = server_id or f"drivolution-{uuid.uuid4().hex[:8]}"
        self.signer = signer
        self.certificate = certificate
        self.certificate_authority = certificate_authority
        self.stats = ServerStats()
        self.matchmaker = Matchmaker(binding.registry, known_databases=binding.known_databases)
        self._subscribers: List[Dict[str, Any]] = []
        self._channel_server: Optional[ChannelServer] = None
        self._lock = threading.Lock()
        secure = None
        if certificate is not None:
            secure = Sender(
                "secure channel", lambda ch: isinstance(ch, SecureChannel), "secure_channel_required"
            )
        # Every row answers in this protocol, whichever listener hosts it.
        row = partial(Route, sender=secure, refuse=_refuse)
        request = row(
            self._handle_request,
            {"database": str, "api_name": str, "client_platform": str},
            {
                "user": str,
                "api_version": list,
                "preferred_binary_format": str,
                "preferred_driver_version": list,
                "client_id": str,
                "client_ip": str,
                "current_lease_id": str,
            },
        )
        #: The protocol's requests (docs/wire.md "Who may send what").
        self._requests: Dict[str, Route] = {
            messages.REQUEST: request,
            messages.DISCOVER: request,
            messages.FILE_REQUEST: row(self._handle_file_request, {"driver_location": str}, {"lease_id": str}),
            messages.RELEASE: row(self._handle_release, {"lease_id": str}, {"client_id": str}),
            messages.SUBSCRIBE: row(
                self._handle_subscribe, optional={"client_id": str, "api_name": str, "database": str}
            ),
        }
        #: What a listener serving this protocol takes: the requests and,
        #: with a certificate, the secure hello that leads to them.
        self.routes: Dict[str, Route] = dict(self._requests)
        if certificate is not None:
            self.routes["secure_hello"] = Route(
                self._secure_hello, optional={"nonce": bytes, "certificate": dict}, refuse=_refuse
            )

    # -- deployment ------------------------------------------------------------

    def start(self) -> "DrivolutionServer":
        """Listen on the configured network address (standalone/in-database
        on a separate port)."""
        if self.network is None or self.address is None:
            raise DrivolutionError("start() requires a network and an address")
        if self._channel_server is not None:
            return self
        listener = self.network.listen(self.address)
        self._channel_server = ChannelServer(
            listener, partial(serve, routes=self.routes, refuse=_refuse), name=self.server_id
        )
        self._channel_server.start()
        return self

    def stop(self) -> None:
        if self._channel_server is not None:
            self._channel_server.stop()
            self._channel_server = None

    def attach_to_database_server(self, database_server) -> None:
        """Share a host's listener — a database server's (in-database
        deployment on the same port) or a controller's (Figure 6): this
        protocol's rows join the host's table."""
        database_server.routes.update(self.routes)

    # -- the one reader and writer of the Drivolution tables -----------------------

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

    # -- the protocol ------------------------------------------------------------------

    def _secure_hello(self, channel: Channel, hello: Dict[str, Any]) -> Any:
        """Answer the secure handshake, then serve the requests over the
        secure channel until it closes. A client certificate this
        server's authority did not issue ends the channel."""
        try:
            secure = SecureChannel.server_handshake(
                channel, self.certificate, authority=self.certificate_authority, hello=hello
            )
        except TransportError:
            return STOP
        serve(secure, self._requests, _refuse)
        return STOP

    def _handle_request(self, channel: Channel, message: Dict[str, Any]) -> Any:
        """REQUEST and DISCOVER: a DISCOVER is a REQUEST that grants no
        lease and ships no file — it describes what a unicast REQUEST
        would be offered.

        A stored row it cannot read (a DBA's UPDATE) is this server's
        fault: a DRIVOLUTION_ERROR would revoke running clients, so the
        channel ends and bootloaders keep their driver as
        ``server_unreachable`` (paper §4.1.3)."""
        request = DrivolutionRequest.from_wire(message)
        is_discover = message["type"] == messages.DISCOVER
        if is_discover:
            self.stats.discovers += 1
        else:
            self.stats.requests += 1
        try:
            offer = self._offer(request, is_discover)
        except NoMatchingDriver as exc:
            self.stats.errors += 1
            return _error("no_driver", str(exc))
        except (RegistryError, ValueError):
            self.stats.errors += 1
            return STOP
        self.stats.offers += 1
        return offer.to_wire()

    def _offer(self, request: DrivolutionRequest, is_discover: bool) -> DrivolutionOffer:
        result = self.matchmaker.match(request)
        lease_id = ""
        if not is_discover:
            # A renewal: the presented lease ends where the new one starts.
            if request.current_lease_id:
                self.registry.release_lease(request.current_lease_id)
            lease_id = self.registry.record_lease(
                client_id=request.client_id or f"client-{uuid.uuid4().hex[:8]}",
                driver_id=result.driver_id,
                lease_time_ms=result.lease_time_ms,
                renew_policy=result.renew_policy,
                expiration_policy=result.expiration_policy,
                database=request.database,
                user=request.user,
            )["lease_id"]
        # Whether the client already runs this package is policies.offer_step's call.
        return DrivolutionOffer(
            lease_id=lease_id,
            lease_time_ms=result.lease_time_ms,
            driver_id=result.driver_id,
            driver_location=self.registry.get_driver(result.driver_id).location(),
            binary_format=str(result.driver_row.get("binary_format", "")),
            renew_policy=int(result.renew_policy),
            expiration_policy=int(result.expiration_policy),
            driver_version=DriverRegistry.row_version(result.driver_row),
            driver_options=result.driver_options,
            includes_file=not is_discover,
            server_id=self.server_id,
        )

    def _handle_file_request(self, channel: Channel, message: Dict[str, Any]) -> Dict[str, Any]:
        location = message["driver_location"]
        found = self.registry.find_drivers(location)
        if not found:
            self.stats.errors += 1
            return _error("bad_location", f"unknown driver location {location!r}")
        package = found[0][1]
        if self.signer is not None and package.signature is None:
            package = package.signed_by(self.signer)
        self.stats.files_served += 1
        self.stats.bytes_served += package.size_bytes
        return messages.make_file_data(package.to_wire())

    def _handle_release(self, channel: Channel, message: Dict[str, Any]) -> Dict[str, Any]:
        released = self.registry.release_lease(message["lease_id"])
        return {"type": "drivolution_release_ack", "released": released}

    def _handle_subscribe(self, channel: Channel, message: Dict[str, Any]) -> Dict[str, Any]:
        subscriber = {
            "channel": channel,
            "client_id": message.get("client_id") or "",
            "api_name": message.get("api_name") or "",
            "database": message.get("database") or "",
        }
        with self._lock:
            self._subscribers.append(subscriber)
        return {"type": "drivolution_subscribe_ack", "server_id": self.server_id}
