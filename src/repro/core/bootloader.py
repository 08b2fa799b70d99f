"""The Drivolution bootloader (paper Section 3.1.1).

The bootloader is the only Drivolution component installed on the client
machine. It substitutes the database driver: the application calls
``bootloader.connect(url, ...)`` exactly as it would call a driver's
``connect``, and the bootloader

1. contacts a Drivolution server (explicitly configured, taken from the
   connection URL, or discovered by broadcast),
2. downloads the driver the server offers, verifies its signature when a
   signer is configured, decodes it and loads it dynamically,
3. opens the actual database connection through the loaded driver, passing
   the application's connection options through (merged under the
   server-enforced ``driver_options``),
4. keeps track of the lease and, when it expires — or immediately, when a
   dedicated notification channel signals an update — asks the server again.
   Whatever the answer, ``policies.offer_step`` judges it and one
   transition, :meth:`Bootloader._switch_driver`, applies the verdict:
   the lease is adopted, another package is fetched and loaded, and the
   connections not on the driver now running are handled according to
   the expiration policy. A first acquisition is that transition *from*
   no driver (a renewal with no lease to present); a revocation is that
   transition *to* no driver, and the next ``connect`` asks again.

The security posture is what is configured: a ``certificate_authority``
means every channel to a Drivolution server is a verified secure channel,
a ``signer`` means an unsigned or mis-signed package is refused.

The bootloader is generic: it knows nothing about any particular driver
implementation, only about the Drivolution protocol and the DB-API shape
of the ``connect`` entry point.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import messages
from repro.core.constants import ExpirationPolicy
from repro.core.loader import DriverLoader, LoadedDriver
from repro.core.messages import (
    DrivolutionDiscover,
    DrivolutionErrorMessage,
    DrivolutionOffer,
    DrivolutionRequest,
)
from repro.core.package import DriverPackage, DriverSigner
from repro.core.policies import CLOSE, RAISE, RENEWED, REVOKED, UPGRADED, OfferVerdict, TransitionReport
from repro.core.policies import apply_expiration_policy, expiry_step, offer_step, unload_step
from repro.dbapi.api import Cursor
from repro.dbapi.urls import parse_url
from repro.errors import DrivolutionError, TransportError
from repro.netsim.ingress import Route, serve
from repro.netsim.secure import CertificateAuthority, SecureChannel
from repro.netsim.transport import Address, Channel, Network


class BootloaderError(DrivolutionError):
    """Bootloader-level failure (no driver offered, driver revoked...)."""


class DrivolutionServerUnreachable(BootloaderError):
    """No Drivolution server answered at all (network-level failure).

    Distinct from a DRIVOLUTION_ERROR answer: the paper requires the
    bootloader to keep its current driver when the server is merely
    unavailable (Section 4.1.3), whereas an explicit error revokes it.
    """


@dataclass
class BootloaderConfig:
    """Static configuration of a bootloader instance.

    Only the API name and client platform are mandatory concepts; everything
    else has sensible defaults. ``drivolution_servers`` is the explicit
    server list used in legacy dual-URL deployments (Section 5.3.1); when
    empty, the bootloader contacts the host(s) of the connection URL.
    A ``certificate_authority`` makes every channel to a Drivolution server
    a secure one verified against it (and ``expected_server_subject``); a
    ``signer`` makes a valid package signature mandatory.
    """

    api_name: str = "PYDB-API"
    client_platform: str = "cpython-any"
    api_version: Optional[Tuple[int, int]] = None
    client_id: str = field(default_factory=lambda: f"bootloader-{uuid.uuid4().hex[:8]}")
    client_ip: str = ""
    drivolution_servers: List[Address] = field(default_factory=list)
    preferred_binary_format: Optional[str] = None
    preferred_driver_version: Optional[Tuple[int, int, int]] = None
    use_discovery: bool = False
    certificate_authority: Optional[CertificateAuthority] = None
    expected_server_subject: Optional[str] = None
    signer: Optional[DriverSigner] = None
    request_timeout: float = 10.0


class ManagedCursor(Cursor):
    """A driver cursor handed to the application: everything passes
    through, and each statement runs through its connection's hook."""

    def __init__(self, managed: "ManagedConnection", inner: Cursor) -> None:
        self._managed = managed
        self._inner = inner

    @property
    def description(self):
        return self._inner.description

    @property
    def rowcount(self) -> int:
        return self._inner.rowcount

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> "ManagedCursor":
        self._managed._statement(self._inner.execute, sql, params)
        return self

    def fetchone(self):
        return self._inner.fetchone()

    def fetchmany(self, size: Optional[int] = None):
        return self._inner.fetchmany(self.arraysize if size is None else size)

    def fetchall(self):
        return self._inner.fetchall()

    def close(self) -> None:
        self._inner.close()


class ManagedConnection:
    """A connection handed to the application, tracked by the bootloader.

    All calls pass through to the underlying driver connection; the
    wrapper sees each statement start and end, and the close. Whether a
    transaction is open is the driver connection's answer
    (``in_transaction``, from the server's last reply).
    """

    _ids = itertools.count(1)

    def __init__(self, bootloader: "Bootloader", inner, driver_generation: int) -> None:
        self._bootloader = bootloader
        self._inner = inner
        self.driver_generation = driver_generation
        #: The policy that superseded this connection's driver, if any.
        self._expiry: Optional[ExpirationPolicy] = None
        self._in_flight = False
        #: Orders a statement's start against expire()'s look and close.
        self._state = threading.Lock()
        self.connection_id = f"conn-{next(ManagedConnection._ids)}"

    # -- passthrough DB-API surface ------------------------------------------

    def cursor(self) -> ManagedCursor:
        return ManagedCursor(self, self._inner.cursor())

    def begin(self) -> None:
        self._statement(self._inner.begin)

    def commit(self) -> None:
        self._statement(self._inner.commit)

    def rollback(self) -> None:
        self._statement(self._inner.rollback)

    def _statement(self, call: Callable[..., Any], *args: Any) -> None:
        with self._state:
            self._in_flight = True
        try:
            call(*args)
        finally:
            # Cleared before reading _expiry, which expire() sets before reading this.
            self._in_flight = False
            if self._expiry is not None:
                self.expire()

    def expire(self, policy: Optional[ExpirationPolicy] = None) -> Tuple[str, bool]:
        """The one expiry hook, called by the transition with the policy
        that superseded this connection's driver and then at every
        statement boundary: apply ``expiry_step``'s verdict (closing under
        ``_state``, so no statement starts between look and close).
        Returns the verdict and whether a transaction was open."""
        if policy is not None:
            self._expiry = policy
        with self._state:
            in_transaction = self._inner.in_transaction
            verdict = expiry_step(self._expiry, in_transaction, self._in_flight)
            if verdict == CLOSE and not self._inner.closed:
                self._inner.close()
        if verdict == CLOSE:
            self._bootloader._on_connection_closed(self)
        return verdict, in_transaction

    def close(self) -> None:
        if not self._inner.closed:
            self._inner.close()
        self._bootloader._on_connection_closed(self)

    def supports(self, feature: str) -> bool:
        return self._inner.supports(feature)

    def __enter__(self) -> "ManagedConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- properties -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._inner.closed

    @property
    def in_transaction(self) -> bool:
        return self._inner.in_transaction

    @property
    def driver_info(self) -> Dict[str, Any]:
        return self._inner.driver_info

    @property
    def stale(self) -> bool:
        """True when this connection is open on a superseded driver."""
        return self._expiry is not None and not self.closed

    @property
    def inner(self):
        """The underlying driver connection (for tests/experiments)."""
        return self._inner


@dataclass
class BootloaderStats:
    """Counters for experiments and tests."""

    connect_calls: int = 0
    blocked_connects: int = 0
    driver_downloads: int = 0
    bytes_downloaded: int = 0
    lease_renewals: int = 0
    upgrades: int = 0
    revocations: int = 0
    update_checks: int = 0
    discover_rounds: int = 0


class Bootloader:
    """Client-side Drivolution bootloader."""

    def __init__(
        self,
        config: Optional[BootloaderConfig] = None,
        network: Optional[Network] = None,
        clock: Callable[[], float] = time.time,
        loader: Optional[DriverLoader] = None,
    ) -> None:
        self.config = config or BootloaderConfig()
        self.network = network
        self.clock = clock
        self.loader = loader or DriverLoader(signer=self.config.signer)
        self.stats = BootloaderStats()
        self._lock = threading.RLock()
        self._current: Optional[LoadedDriver] = None
        self._lease: Optional[DrivolutionOffer] = None
        self._recheck_time: Optional[float] = None
        #: Why a loaded driver was taken away; None unless revoked.
        self._revocation_reason: Optional[str] = None
        self._connections: List[ManagedConnection] = []
        self._last_transition: Optional[TransitionReport] = None
        self._server_used: Optional[Address] = None
        self._last_request_context: Dict[str, Any] = {}
        self._renewal_thread: Optional[threading.Thread] = None
        self._renewal_stop = threading.Event()
        self._notification_thread: Optional[threading.Thread] = None
        self._notification_channel: Optional[Channel] = None

    # ------------------------------------------------------------------ connect

    def connect(
        self,
        url: str,
        user: Optional[str] = None,
        password: Optional[str] = None,
        **options: Any,
    ) -> ManagedConnection:
        """Intercept the driver's ``connect`` call (Section 3.1.1).

        Without a driver (first call, or after a revocation) or with a
        lapsed lease the server is asked first; afterwards the call is
        forwarded to the loaded driver. The password goes to that driver
        only: no Drivolution frame carries it.
        """
        self.stats.connect_calls += 1
        with self._lock:
            if self._current is None or self.lease_expired():
                self.check_for_update(url=url, user=user, force=True)
            if self._current is None:
                self.stats.blocked_connects += 1
                raise BootloaderError(
                    "no suitable driver available: the previous driver was revoked "
                    f"({self._revocation_reason})"
                )
            driver = self._current
            merged: Dict[str, Any] = {}
            if self._lease is not None:
                merged.update(self._lease.driver_options)
            merged.update(options)
            if self.network is not None and "network" not in merged:
                merged["network"] = self.network
            inner = driver.connect(url, user=user, password=password, **merged)
            managed = ManagedConnection(self, inner, driver_generation=driver.generation)
            self._connections.append(managed)
            return managed

    # -------------------------------------------------------------- driver state

    @property
    def current_driver(self) -> Optional[LoadedDriver]:
        with self._lock:
            return self._current

    @property
    def current_lease(self) -> Optional[DrivolutionOffer]:
        """The offer the current driver runs under: the client's one lease record."""
        with self._lock:
            return self._lease

    @property
    def revoked(self) -> bool:
        with self._lock:
            return self._revocation_reason is not None

    @property
    def last_transition(self) -> Optional[TransitionReport]:
        with self._lock:
            return self._last_transition

    def active_connections(self) -> List[ManagedConnection]:
        with self._lock:
            return [conn for conn in self._connections if not conn.closed]

    def stale_connections(self) -> List[ManagedConnection]:
        return [conn for conn in self.active_connections() if conn.stale]

    def lease_expired(self) -> bool:
        with self._lock:
            return self._recheck_time is not None and self.clock() >= self._recheck_time

    def driver_info(self) -> Dict[str, Any]:
        """Metadata of the currently loaded driver (empty before bootstrap)."""
        with self._lock:
            return self._current.info() if self._current is not None else {}

    def _on_connection_closed(self, managed: ManagedConnection) -> None:
        with self._lock:
            if managed in self._connections:
                self._connections.remove(managed)
            self._unload_unused()

    def _unload_unused(self) -> None:
        """The one unload site: a superseded driver goes with the last
        open connection that uses it (policies.unload_step)."""
        loaded = {driver.generation: driver for driver in self.loader.loaded_drivers()}
        in_use = {conn.driver_generation for conn in self._connections if not conn.closed}
        running = self._current.generation if self._current is not None else None
        for generation in unload_step(running, loaded, in_use):
            self.loader.unload(loaded[generation])

    # ------------------------------------------------------------------ negotiation

    def _candidate_servers(self, url: str) -> List[Address]:
        """Where to look for a Drivolution server, in order of preference."""
        return list(self.config.drivolution_servers or parse_url(url).hosts)

    def _negotiate(
        self, servers: List[Address], url: str, user: Optional[str]
    ) -> Tuple[OfferVerdict, DrivolutionOffer, Optional[DriverPackage], Address]:
        """Run the bootstrap protocol (REQUEST → OFFER → FILE transfer)
        against the first server that answers, presenting the held lease.

        Returns the offer step's verdict, the accepted offer, the package
        (None unless the verdict loads one) and the server that served it.
        """
        if self.network is None:
            raise BootloaderError("bootloader has no network configured")
        parsed = parse_url(url)
        request = DrivolutionRequest(
            database=parsed.database,
            api_name=self.config.api_name,
            client_platform=self.config.client_platform,
            user=user,
            api_version=self.config.api_version,
            preferred_binary_format=self.config.preferred_binary_format,
            preferred_driver_version=self.config.preferred_driver_version,
            client_id=self.config.client_id,
            client_ip=self.config.client_ip,
            current_lease_id=self._lease.lease_id if self._lease else None,
        )
        if self.config.use_discovery:
            servers = self._discover(request, servers)
        last_error: Optional[Exception] = None
        any_server_answered = False
        for server in servers:
            try:
                return self._negotiate_with(server, request)
            except TransportError as exc:
                last_error = exc
                continue
            except DrivolutionError as exc:
                any_server_answered = True
                last_error = exc
                continue
        if not any_server_answered:
            raise DrivolutionServerUnreachable(
                f"no Drivolution server reachable (tried {servers!r}): {last_error}"
            )
        raise BootloaderError(
            f"no Drivolution server could provide a driver (tried {servers!r}): {last_error}"
        )

    def _discover(self, request: DrivolutionRequest, fallback: List[Address]) -> List[Address]:
        """Broadcast DISCOVER and order servers by whoever answered first."""
        self.stats.discover_rounds += 1
        discover = DrivolutionDiscover(**{**request.__dict__})
        candidates = list(self.network.registered_addresses()) or list(fallback)
        answered: List[Address] = []
        for address in candidates:
            try:
                with self._open_channel(address, timeout=1.0) as channel:
                    reply = channel.request(discover.to_wire(), timeout=1.0)
            except TransportError:
                continue
            if reply.get("type") == messages.OFFER:
                answered.append(address)
        return answered or list(fallback)

    def _open_channel(self, server: Address, timeout: Optional[float] = None) -> Channel:
        """The one way out to a Drivolution server: with a certificate
        authority configured the channel is secure and the server's
        certificate (and subject) verified before anything is sent."""
        timeout = self.config.request_timeout if timeout is None else timeout
        channel = self.network.connect(server, timeout=timeout)
        if self.config.certificate_authority is None:
            return channel
        try:
            return SecureChannel.client_handshake(
                channel,
                self.config.certificate_authority,
                expected_subject=self.config.expected_server_subject,
                timeout=timeout,
            )
        except TransportError:
            channel.close()
            raise

    def _negotiate_with(
        self, server: Address, request: DrivolutionRequest
    ) -> Tuple[OfferVerdict, DrivolutionOffer, Optional[DriverPackage], Address]:
        channel = self._open_channel(server)
        try:
            channel.send(request.to_wire())
            reply = channel.recv(timeout=self.config.request_timeout)
            if reply.get("type") == messages.ERROR:
                error = DrivolutionErrorMessage.from_wire(reply)
                raise BootloaderError(f"DRIVOLUTION_ERROR [{error.code}]: {error.detail}")
            offer = DrivolutionOffer.from_wire(reply)
            step = offer_step(self._current, offer, self._revocation_reason is not None)
            package: Optional[DriverPackage] = None
            if step.load:
                channel.send(messages.make_file_request(offer.driver_location, offer.lease_id))
                file_reply = channel.recv(timeout=self.config.request_timeout)
                if file_reply.get("type") == messages.ERROR:
                    error = DrivolutionErrorMessage.from_wire(file_reply)
                    raise BootloaderError(f"driver download failed [{error.code}]: {error.detail}")
                if file_reply.get("type") != messages.FILE_DATA:
                    raise BootloaderError(
                        f"unexpected file transfer reply {file_reply.get('type')!r}"
                    )
                package = DriverPackage.from_wire(file_reply.get("package", {}))
                self.stats.driver_downloads += 1
                self.stats.bytes_downloaded += package.size_bytes
            return step, offer, package, server
        finally:
            channel.close()

    # ------------------------------------------------------------------ the one transition

    def check_for_update(
        self,
        url: Optional[str] = None,
        user: Optional[str] = None,
        force: bool = False,
    ) -> str:
        """Ask the server what to run and apply its answer (the client side
        of the paper's Table 4).

        Returns ``"not_due"`` (lease still valid and ``force`` not set),
        ``"installed"`` (a driver acquired from no driver), ``"renewed"``
        (same driver, new lease), ``"upgraded"`` (another driver),
        ``"revoked"`` (the server refused: no driver until it offers one
        again) or ``"server_unreachable"`` (no server answered: the current
        driver is kept, Section 4.1.3). With no driver to keep, an
        unreachable server raises, as does a refusal when there is no
        driver to revoke.
        """
        with self._lock:
            if not force and not self.lease_expired():
                return "not_due"
            self.stats.update_checks += 1
            context = self._last_request_context
            url = url or context.get("url")
            user = user if user is not None else context.get("user")
            if url is None:
                raise BootloaderError("no connection context available to request a driver")
            self._last_request_context = {"url": url, "user": user}
            servers = self._candidate_servers(url)
            if self._server_used in servers:
                # Prefer the server that granted the current lease.
                servers = [self._server_used] + [item for item in servers if item != self._server_used]
            reason = None
            try:
                step, offer, package, server = self._negotiate(servers, url, user)
            except DrivolutionServerUnreachable:
                if self._current is None:
                    raise
                return "server_unreachable"
            except BootloaderError as exc:
                # Explicit DRIVOLUTION_ERROR: the transition to no driver.
                offer, package, server, reason = None, None, None, str(exc)
                step = offer_step(self._current, None, self._revocation_reason is not None)
            return self._switch_driver(step, offer, package, server, reason)

    def _switch_driver(
        self,
        step: OfferVerdict,
        offer: Optional[DrivolutionOffer],
        package: Optional[DriverPackage],
        server: Optional[Address],
        reason: Optional[str] = None,
    ) -> str:
        """Apply the offer step's verdict on ``offer`` (None for a refusal,
        and ``reason`` says why). A package to load is loaded before
        anything is mutated, so a failed load leaves driver, lease and
        connections as they were. Returns the outcome
        :meth:`check_for_update` reports."""
        if step.outcome == RAISE:
            raise BootloaderError(reason or "the server's answer leaves no driver to run")
        old = self._current
        # The answer's expiration policy governs; a refusal carries none,
        # so the lease being lost does.
        governing = offer or self._lease
        if step.load:
            new = self.loader.load(package)
        else:
            new = old if step.outcome == RENEWED else None
        if new is None:
            offer = None
        self._current, self._lease, self._server_used = new, offer, server
        self._recheck_time = self.clock() + offer.lease_time_ms / 1000.0 if offer else None
        if new is not old:
            self._last_transition = apply_expiration_policy(
                [
                    conn
                    for conn in self._connections
                    if not conn.closed and (new is None or conn.driver_generation != new.generation)
                ],
                ExpirationPolicy.from_value(governing.expiration_policy),
            )
            self._unload_unused()
        if new is None:
            if old is not None:
                self._revocation_reason = reason or "server revoked driver"
                self.stats.revocations += 1
            return REVOKED
        self._revocation_reason = None
        if step.outcome == RENEWED:
            self.stats.lease_renewals += 1
        elif step.outcome == UPGRADED:
            self.stats.upgrades += 1
        return step.outcome

    # ------------------------------------------------------------------ background renewal

    def start_renewal_timer(self, poll_interval: float = 0.05) -> None:
        """Poll the lease on a dedicated thread (Section 3.4.2 "dedicated
        thread as a timer"). ``poll_interval`` is wall-clock seconds between
        checks of the (possibly simulated) lease clock."""
        if self._renewal_thread is not None:
            return
        self._renewal_stop.clear()

        def loop() -> None:
            while not self._renewal_stop.wait(poll_interval):
                try:
                    if self.lease_expired():
                        self.check_for_update()
                except DrivolutionError:
                    continue

        self._renewal_thread = threading.Thread(target=loop, name="drivolution-renewal", daemon=True)
        self._renewal_thread.start()

    def stop_renewal_timer(self) -> None:
        if self._renewal_thread is None:
            return
        self._renewal_stop.set()
        self._renewal_thread.join(timeout=2.0)
        self._renewal_thread = None

    # ------------------------------------------------------------------ push notifications

    def subscribe_for_updates(self, server: Address, database: str = "") -> None:
        """Open a dedicated notification channel to ``server``.

        On an update-available push the bootloader immediately re-checks
        with the server (force=True), achieving near-instant upgrades
        instead of waiting for the lease to expire.
        """
        if self._notification_thread is not None:
            return
        channel = self._open_channel(server)
        channel.send(messages.make_subscribe(self.config.client_id, self.config.api_name, database))
        ack = channel.recv(timeout=self.config.request_timeout)
        if ack.get("type") != "drivolution_subscribe_ack":
            channel.close()
            raise BootloaderError(f"subscription rejected: {ack!r}")
        self._notification_channel = channel
        # Refusals go unanswered: the server reads whatever a subscriber
        # sends as a request, and would refuse the refusal in turn.
        self._notification_thread = threading.Thread(
            target=serve,
            args=(channel, self._push_routes, lambda *refused: None),
            kwargs={"context": self, "greeted": True},
            name="drivolution-notify",
            daemon=True,
        )
        self._notification_thread.start()

    def _on_update_available(self, message: Dict[str, Any]) -> None:
        try:
            self.check_for_update(force=True)
        except DrivolutionError:
            pass  # the lease timer asks again

    #: What the push channel takes (docs/wire.md "Who may send what").
    _push_routes = {
        messages.UPDATE_AVAILABLE: Route(_on_update_available, optional={"api_name": str, "database": str}),
    }

    def unsubscribe(self) -> None:
        if self._notification_channel is not None:
            self._notification_channel.close()
            self._notification_channel = None
        self._notification_thread = None

    # ------------------------------------------------------------------ shutdown

    def shutdown(self) -> None:
        """Stop background threads and close every managed connection."""
        self.stop_renewal_timer()
        self.unsubscribe()
        for connection in self.active_connections():
            connection.close()
