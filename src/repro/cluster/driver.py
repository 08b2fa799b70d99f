"""Cluster client driver (the analogue of the Sequoia JDBC driver).

"Sequoia offers a JDBC driver with failover capabilities that needs to be
installed in client applications" (paper Section 5.3). This runtime is the
Python equivalent:

- connection URLs may list several controllers
  (``sequoia://controller1,controller2/vdb``); the driver load-balances
  new connections across them and fails over to the next controller when
  one becomes unavailable,
- the wire protocol is versioned; drivers are backward compatible with
  older controllers (the handshake downgrades),
- statements that fail because the current controller died are retried
  once on another controller, as long as no transaction is in flight.

Like the pydb runtime, Drivolution driver *packages* for Sequoia bind a
name/version to this runtime (see
:func:`repro.dbapi.driver_factory.build_sequoia_driver`).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.cluster.classifier import is_transaction_control
from repro.cluster.wire import (
    BEGIN_MIN_VERSION,
    CLUSTER_PROTOCOL_VERSION,
    ERROR_NOT_PRIMARY,
    ERROR_SERVER_BUSY,
    MULTIPLEX_MIN_VERSION,
    TRACE_MIN_VERSION,
    ClusterMessageType,
    make_connect,
    make_execute,
    make_session_close,
    make_session_open,
)
from repro.dbapi.exceptions import InterfaceError, OperationalError, ProgrammingError
from repro.dbapi.runtime import DriverRuntime, ResultCursor, WireConnection
from repro.dbapi.urls import ConnectionUrl
from repro.errors import TransportError
from repro.netsim.transport import Channel, Network

_FALSEY_OPTION_VALUES = {False, 0, "0", "false", "False", "off", "no"}


def _option_enabled(value: Any, default: bool = True) -> bool:
    if value is None:
        return default
    return value not in _FALSEY_OPTION_VALUES


class _ServerBusy(Exception):
    """Internal marker for a ``server_busy`` admission-control rejection.

    Deliberately *not* an OperationalError: the generic failover path
    must never see it — a saturated controller is healthy, and failing
    over to a sibling would just move the herd. The retry loop in
    :meth:`ClusterConnection._execute_locked` converts it to backoff-and-retry
    on the same host, or to a plain OperationalError once the retry
    budget is spent."""


class _Pending:
    """One request in flight on a link. ``answered`` is a lock held from
    creation and released exactly once, by whoever takes the request
    out of the link's pending table and stores its reply — a one-shot
    event at a fraction of a :class:`threading.Event`'s cost."""

    __slots__ = ("key", "answered", "reply")

    def __init__(self, key: Tuple[str, int]) -> None:
        self.key = key
        self.answered = threading.Lock()
        self.answered.acquire()
        self.reply: Optional[Dict[str, Any]] = None


class ControllerLink:
    """One handshaked channel to a controller and the sessions it carries.

    What the handshake granted decides its shape. A *shared* link
    (multiplexing granted) carries many sessions, opened with
    SESSION_OPEN: a reader thread is the only receiver and matches each
    reply to its waiter by ``(session_id, request_id)``, so any number
    of connections — and pipelined statements per connection — have
    requests in flight at once; a waiter blocks on its own request's
    ``answered`` lock. The runtime pools shared links per
    ``(network, host, database)``.

    A *private* link (no grant) carries the one implicit session the
    CONNECT_OK named and is never pooled. Its frames carry no
    correlation fields and replies arrive in request order, so it has
    no reader thread: the waiting caller receives, and a reply answers
    the oldest request in flight. The owning connection's exchange lock
    makes that caller the only receiver.

    Either way the physical channel closes when its last session does.
    """

    def __init__(
        self,
        channel: Channel,
        host: str,
        key: Tuple[Any, ...],
        connect_ok: Dict[str, Any],
        shared: bool,
    ) -> None:
        self._transport = channel
        #: Registry key, used by the runtime to release the link.
        self.key = key
        self.controller_id = str(connect_ok.get("controller_id", host))
        #: The version the controller said it speaks with this driver.
        self.protocol_version = int(connect_ok.get("protocol_version", 0))
        #: Whether the controller granted tracing on this channel —
        #: sessions that want spans back may then send a ``trace_id``
        #: per EXECUTE.
        self.tracing = bool(connect_ok.get("tracing"))
        self.shared = shared
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        #: Requests in flight, oldest first.
        self._pending: Dict[Tuple[str, int], _Pending] = {}
        self._request_ids = itertools.count(1)
        self._sessions: set = set()
        self._implicit = str(connect_ok.get("session_id", ""))
        self._dead = False
        if shared:
            threading.Thread(
                target=self._read_loop, name=f"mux-reader-{host}", daemon=True
            ).start()

    # -- receiving -----------------------------------------------------------------

    def _read_loop(self) -> None:
        while self._receive(None):
            pass

    def _receive(self, timeout: Optional[float]) -> bool:
        """Take one frame off the channel and hand it to its waiter;
        False once the channel is lost (every waiter was failed)."""
        try:
            message = self._transport.recv(timeout=timeout)
        except TransportError as exc:
            self._fail_all(f"controller channel lost: {exc}")
            return False
        if message.get("type") == ClusterMessageType.PONG:
            return True
        session_id, request_id = message.get("session_id"), message.get("request_id")
        if self.shared and not (isinstance(session_id, str) and isinstance(request_id, int)):
            # Uncorrelated frame (e.g. a ``bad_correlation`` error for
            # garbage this driver never sends): no owner to wake.
            return True
        with self._lock:
            key = (session_id, request_id) if self.shared else next(iter(self._pending), None)
            pending = self._pending.pop(key, None)
        if pending is not None:
            pending.reply = message
            pending.answered.release()
        return True

    def _fail_all(self, reason: str) -> None:
        with self._lock:
            self._dead = True
            pendings = list(self._pending.values())
            self._pending.clear()
        for pending in pendings:
            pending.reply = {
                "type": ClusterMessageType.ERROR,
                "code": "connection_lost",
                "message": reason,
            }
            pending.answered.release()

    # -- requests ----------------------------------------------------------------

    def _send(self, key: Tuple[str, int], message: Dict[str, Any]) -> _Pending:
        pending = _Pending(key)
        with self._lock:
            if self._dead:
                raise TransportError("controller link is closed")
            self._pending[key] = pending
        try:
            with self._send_lock:
                self._transport.send(message)
        except TransportError:
            self._fail_all("controller channel lost")
            raise
        return pending

    def submit(
        self,
        session_id: str,
        sql: str,
        params: Optional[Dict[str, Any]],
        trace_id: Optional[str] = None,
        begin: bool = False,
    ) -> _Pending:
        """Fire one statement without waiting — the pipelining primitive."""
        request_id = next(self._request_ids)
        correlation = (
            {"session_id": session_id, "request_id": request_id} if self.shared else {}
        )
        return self._send(
            (session_id, request_id),
            make_execute(sql, params, trace_id=trace_id, begin=begin, **correlation),
        )

    def wait(self, pending: _Pending, timeout: float = 30.0) -> Dict[str, Any]:
        if self.shared:
            if not pending.answered.acquire(timeout=timeout):
                # One session's problem: its siblings' replies still
                # arrive, so the link lives on.
                with self._lock:
                    self._pending.pop(pending.key, None)
                raise TransportError("timed out waiting for reply")
        else:
            # Replies come in request order, one per frame received. A
            # timeout leaves the stream desynchronised (the late reply
            # would answer the next request), so it kills the link.
            while pending.reply is None and self._receive(timeout):
                pass
        reply = pending.reply or {}
        if reply.get("type") == ClusterMessageType.ERROR and reply.get("code") == "connection_lost":
            raise TransportError(str(reply.get("message")))
        return reply

    # -- sessions ------------------------------------------------------------------

    def open_session(self) -> str:
        if not self.shared:
            session_id = self._implicit
        else:
            session_id = uuid.uuid4().hex
            request_id = next(self._request_ids)
            pending = self._send(
                (session_id, request_id), make_session_open(session_id, request_id)
            )
            reply = self.wait(pending, timeout=10.0)
            if reply.get("type") != ClusterMessageType.SESSION_OPEN_OK:
                raise TransportError(
                    f"session open failed: [{reply.get('code')}] {reply.get('message')}"
                )
        with self._lock:
            self._sessions.add(session_id)
        return session_id

    def close_session(self, session_id: str) -> None:
        with self._lock:
            self._sessions.discard(session_id)
            announce = self.shared and not self._dead
        # A private link's CLOSE (it follows at once: that was its last
        # session) ends the implicit session.
        if announce:
            try:
                with self._send_lock:
                    self._transport.send(make_session_close(session_id))
            except TransportError:
                self._fail_all("controller channel lost")

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead

    def close(self) -> None:
        self._fail_all("channel closed")
        try:
            with self._send_lock:
                self._transport.send({"type": ClusterMessageType.CLOSE})
        except TransportError:
            pass
        self._transport.close()


#: The cluster driver's cursor type (perfbench's L0 ``ClusterCursor.execute``).
ClusterCursor = ResultCursor


class ClusterConnection(WireConnection):
    """A failover-capable connection to a controller group. It holds one
    attachment at a time — a session on a :class:`ControllerLink` —
    made by :meth:`_connect_to_any`, used by :meth:`_request` and given
    up by :meth:`_detach`, whichever kind of link the handshake granted."""

    def __init__(
        self,
        driver: "ClusterDriverRuntime",
        network: Network,
        url: ConnectionUrl,
        options: Dict[str, Any],
    ) -> None:
        super().__init__(driver)
        self._network = network
        self._url = url
        #: The one attachment: a session on a link (None, None when detached).
        self._link: Optional[ControllerLink] = None
        self._session_id: Optional[str] = None
        self._controller_id: Optional[str] = None
        self._current_host: Optional[str] = None
        self.failovers = 0
        #: Controller HA: the primary address the last ``not_primary``
        #: bounce carried (tried first on the next reconnect), and
        #: whether the last OperationalError was such a bounce — bounces
        #: get their own bounded retry grace so chasing the primary does
        #: not eat the dead-host failover budget.
        self._primary_hint: Optional[str] = None
        self._not_primary_bounce = False
        self.not_primary_bounces = 0
        #: server_busy admission rejections retried (and total time slept
        #: backing off) — the saturation-visibility twin of ``failovers``.
        self.server_busy_retries = 0
        self.busy_backoff_seconds = 0.0
        self._busy_retries = max(0, int(options.get("busy_retries", 8)))
        self._busy_backoff_s = max(0.0, float(options.get("busy_backoff_ms", 2.0))) / 1000.0
        self._busy_backoff_cap_s = (
            max(0.0, float(options.get("busy_backoff_cap_ms", 50.0))) / 1000.0
        )
        # Multiplexing is attempted by default on a v3 driver; the
        # handshake downgrades transparently against a v2 controller —
        # absence of the ``multiplexing`` grant in CONNECT_OK means a
        # private link.
        self._want_mux = driver.protocol_version >= MULTIPLEX_MIN_VERSION and _option_enabled(
            options.get("multiplexing"), default=True
        )
        self._mux_channels_per_host = max(1, int(options.get("mux_channels_per_host", 1)))
        # Tracing is opt-in (``trace=true`` in the URL options or connect
        # kwargs) and negotiated like multiplexing: without the
        # controller's ``tracing`` grant every frame stays untraced.
        self._want_trace = driver.protocol_version >= TRACE_MIN_VERSION and _option_enabled(
            options.get("trace"), default=False
        )
        self._tracing = False
        #: Most recent traced statement: ``{"trace_id", "latency_s",
        #: "spans"}`` with the server's span payload in wire form (see
        #: ``repro.obs.Trace.spans_from_wire`` to rehydrate).
        self.last_trace: Optional[Dict[str, Any]] = None
        self.traced_statements = 0
        # Per-statement trace ids are a connection-unique prefix plus a
        # counter: as unique as a fresh uuid4 per statement, without
        # paying uuid generation on every traced execute.
        self._trace_id_prefix = uuid.uuid4().hex[:16]
        self._trace_seq = 0
        self._connect_to_any()

    # -- connection establishment with failover -----------------------------------

    def _detach(self) -> None:
        """Give up the session, closing server-side state so nothing
        leaks: a failover away from a *healthy* controller (e.g. one
        answering controller_recovering) would otherwise pin its session
        for the process lifetime. The link goes with its last session,
        or at once if its channel died."""
        link, self._link = self._link, None
        session_id, self._session_id = self._session_id, None
        if link is not None:
            link.close_session(session_id)
            self._driver._release_link(link)

    def _connect_to_any(self, exclude: Optional[str] = None) -> None:
        self._detach()
        hosts = list(self._url.hosts)
        start = self._driver._next_start_index(len(hosts))
        ordered = hosts[start:] + hosts[:start]
        if exclude is not None:
            ordered = [host for host in ordered if host != exclude] or ordered
        hint = self._primary_hint
        if hint is not None and hint in ordered:
            # An HA follower told us where the primary is: try it first
            # instead of probing hosts in round-robin order.
            ordered = [hint] + [host for host in ordered if host != hint]
        last_error: Optional[Exception] = None
        for host in ordered:
            try:
                link, session_id = self._open_session_on(host)
            except (TransportError, OperationalError, InterfaceError) as exc:
                last_error = exc
                continue
            self._link = link
            self._session_id = session_id
            self._controller_id = link.controller_id
            self._current_host = host
            self._tracing = self._want_trace and link.tracing
            spoken = min(self._driver.protocol_version, link.protocol_version)
            self.carries_begin = spoken >= BEGIN_MIN_VERSION
            return
        raise OperationalError(f"no controller reachable among {hosts!r}: {last_error}")

    def _open_session_on(self, host: str) -> Tuple[ControllerLink, str]:
        key = (id(self._network), host, self._url.database)
        while self._want_mux:
            # Ride an already-established shared link to this controller
            # before opening a new socket. A None checkout claims a
            # forming slot against the per-host cap (released in the
            # finally below, whatever the outcome).
            link = self._driver._checkout_link(key, self._mux_channels_per_host)
            if link is None:
                break
            try:
                return link, link.open_session()
            except TransportError:
                # Unusable for new sessions: closing it takes it out of
                # the registry at the next checkout, which ends in a
                # fresh connect to the same host.
                link.close()
        try:
            link = self._handshake(host, key)
            try:
                session_id = link.open_session()
            except TransportError:
                link.close()
                raise
            if link.shared:
                self._driver._register_link(link)
            return link, session_id
        finally:
            if self._want_mux:
                self._driver._forming_done(key)

    def _handshake(self, host: str, key: Tuple[Any, ...]) -> ControllerLink:
        channel = self._network.connect(host, timeout=5.0)
        try:
            channel.send(
                make_connect(
                    self._url.database,
                    self._driver.protocol_version,
                    multiplex=self._want_mux,
                    trace=self._want_trace,
                )
            )
            reply = channel.recv(timeout=10.0)
            if reply.get("type") == ClusterMessageType.ERROR:
                raise OperationalError(f"[{reply.get('code')}] {reply.get('message')}")
            if reply.get("type") != ClusterMessageType.CONNECT_OK:
                raise InterfaceError(f"unexpected handshake reply {reply.get('type')!r}")
        except Exception:
            channel.close()
            raise
        # What the controller granted — not what was asked — decides the
        # link's shape: no grant (an older protocol on either side, or
        # this connection opted out) means a private link.
        shared = self._want_mux and bool(reply.get("multiplexing"))
        return ControllerLink(channel, host, key, reply, shared)

    # -- statement execution ---------------------------------------------------------

    def _execute_locked(self, sql: str, params: Dict[str, Any], begin: bool) -> Dict[str, Any]:
        # One attempt per configured controller: a dead controller and
        # a sibling busy replaying its recovery log (error code
        # ``controller_recovering``) both push the statement to the
        # next host. ``failovers`` counts *successful* reconnects —
        # a reconnect that fails raises without bumping the counter.
        attempts = max(2, len(self._url.hosts))
        busy_left = self._busy_retries
        # HA ``not_primary`` bounces are healthy redirections, not
        # failures: they get their own bounded grace so a redirect
        # (or a just-finished election) never exhausts the budget
        # meant for actually-dead controllers.
        bounce_grace = len(self._url.hosts)
        attempt = 0
        while attempt < attempts:
            try:
                if begin and not self.carries_begin:
                    # Carried to a controller that cannot take it (a
                    # failover mid rolling upgrade): BEGIN goes alone first.
                    self._execute_once("BEGIN", {})
                    begin = False
                return self._execute_once(sql, params, begin)
            except _ServerBusy as exc:
                # Admission-control rejection: the controller refused
                # the statement *before* any backend saw it, so
                # retrying the same host is safe even mid-transaction
                # (the session — and the transaction it owns — is
                # alive and well; the controller is merely saturated).
                # Failing over would only move the herd, so the retry
                # stays put, with capped jittered exponential backoff.
                if busy_left <= 0:
                    raise OperationalError(str(exc)) from exc
                used = self._busy_retries - busy_left
                busy_left -= 1
                delay = min(
                    self._busy_backoff_cap_s, self._busy_backoff_s * (2**used)
                ) * (0.5 + random.random() * 0.5)
                self.server_busy_retries += 1
                self.busy_backoff_seconds += delay
                if delay > 0:
                    time.sleep(delay)
            except OperationalError:
                # Transparent failover: only safe outside a transaction
                # — mid-transaction, surface the error rather than
                # silently retrying against a sibling that never saw the
                # transaction's earlier statements. The connection ends
                # here; detaching tells a controller that is still alive
                # to roll the transaction back now, not whenever the
                # application gets round to close(). "Mid-transaction" is
                # what the controller said on the session's last reply,
                # so it holds however the transaction was opened; a
                # request that carried a BEGIN and was refused retries
                # with it. A connection closed from another thread
                # meanwhile — or by a loss of a request carrying a
                # BEGIN (:meth:`_request`) — is not re-attached either.
                if self._in_transaction or self._closed:
                    self._detach()
                    self._closed = True
                    raise
                bounced, self._not_primary_bounce = self._not_primary_bounce, False
                if bounced and bounce_grace > 0:
                    bounce_grace -= 1
                else:
                    attempt += 1
                    if attempt >= attempts:
                        raise
                self._connect_to_any(exclude=self._current_host)
                self.failovers += 1
        raise OperationalError("unreachable")  # pragma: no cover

    def _execute_once(self, sql: str, params: Dict[str, Any], begin: bool = False) -> Dict[str, Any]:
        # On a tracing-granted link every statement carries a fresh
        # trace_id; the reply's span list (plus the round-trip latency
        # observed right here) lands in ``last_trace``. Untraced
        # connections skip all of it — no id, no timing, no extra field.
        if self._tracing:
            self._trace_seq += 1
            trace_id = f"{self._trace_id_prefix}-{self._trace_seq:x}"
            started = time.monotonic()
        else:
            trace_id = None
            started = 0.0
        (reply,) = self._request([(sql, params)], 30.0, trace_id, begin)
        if trace_id is not None:
            # Captured before interpretation so failed statements are
            # traceable too.
            self.traced_statements += 1
            # The span payload stays in wire form (a pre-serialised JSON
            # string) — parsing it belongs to whoever inspects the trace,
            # not to the statement latency path.
            self.last_trace = {
                "trace_id": trace_id,
                "latency_s": time.monotonic() - started,
                "spans": reply.get("trace") or [],
            }
        return self._interpret_reply(reply)

    def _request(
        self,
        statements: List[Tuple[str, Dict[str, Any]]],
        timeout: float,
        trace_id: Optional[str] = None,
        begin: bool = False,
    ) -> List[Dict[str, Any]]:
        """Fire ``statements`` on the session and collect their replies in
        order — one statement is a pipeline of one; with ``begin`` the
        first carries a BEGIN. Any transport failure (channel lost, reply
        timed out) detaches: the session is closed and the link released,
        which closes it if its channel died. A lost request that carried a
        BEGIN may have opened a transaction, so the connection then ends,
        as a loss mid-transaction ends it."""
        link, session_id = self._link, self._session_id
        try:
            if link is None:
                raise TransportError("not attached to a controller")
            pendings = [
                link.submit(session_id, sql, params, trace_id, begin=begin and index == 0)
                for index, (sql, params) in enumerate(statements)
            ]
            replies = [link.wait(pending, timeout) for pending in pendings]
        except TransportError as exc:
            self._detach()
            self._closed = self._closed or (begin and link is not None)
            raise OperationalError(f"controller connection lost: {exc}") from exc
        for reply in replies:
            self._reply_received(reply)
        self.statements_executed += int(begin and self._in_transaction)  # the carried BEGIN ran
        return replies

    def _interpret_reply(self, reply: Dict[str, Any]) -> Dict[str, Any]:
        if reply.get("type") == ClusterMessageType.ERROR:
            code = reply.get("code")
            message = f"[{code}] {reply.get('message')}"
            if code == ERROR_SERVER_BUSY:
                raise _ServerBusy(message)
            if code == ERROR_NOT_PRIMARY:
                # HA follower bounce: remember where the primary is (the
                # reply may carry its address) and fail over — the
                # statement never ran, so the retry is safe. A bounce
                # without an address (mid-election, no winner yet) keeps
                # any previously learned hint rather than discarding it.
                hint = reply.get("primary_host")
                if hint:
                    self._primary_hint = str(hint)
                self._not_primary_bounce = True
                self.not_primary_bounces += 1
                raise OperationalError(message)
            if code in ("execution_failed",):
                raise ProgrammingError(message)
            raise OperationalError(message)
        if reply.get("type") != ClusterMessageType.RESULT:
            raise InterfaceError(f"unexpected reply {reply.get('type')!r}")
        self.statements_executed += 1
        return reply

    # -- statement pipelining ---------------------------------------------------------

    def execute_pipeline(
        self,
        statements: Iterable[Union[str, Tuple[str, Optional[Dict[str, Any]]]]],
        timeout: float = 30.0,
    ) -> List[Dict[str, Any]]:
        """Fire several statements back-to-back without waiting for each
        reply (one round-trip's worth of latency overlaps the next
        statement's execution), then collect every result in order.

        A session's statements execute strictly FIFO on the controller
        — queued on a shared link, read off the channel one by one on a
        private one — so pipelining inside an open transaction is
        supported: the fired batch lands in order within the
        transaction, and the final COMMIT (issued separately) flushes
        it. A BEGIN the connection owes rides the first statement, which
        is sent alone, with a lone statement's retries, and answered
        before the rest is fired.
        Transaction *control* — what the classifier calls one — cannot
        be pipelined: a BEGIN/COMMIT in the middle of an already-fired
        batch could not abort the statements behind it.
        There is no transparent failover for the fired batch — by the time an
        error surfaces, later statements may already have executed, so
        the failure is raised as-is (results before the failing
        statement are lost to the caller but were applied by the
        cluster)."""
        prepared: List[Tuple[str, Dict[str, Any]]] = []
        for statement in statements:
            if isinstance(statement, str):
                sql, params = statement, {}
            else:
                sql, params = statement[0], dict(statement[1] or {})
            if is_transaction_control(sql):
                raise ProgrammingError(f"cannot pipeline transaction control ({sql.strip()})")
            prepared.append((sql, params))
        with self._lock:
            if self._closed:
                raise InterfaceError("connection is closed")
            if not prepared:
                return []  # nothing to carry an owed BEGIN: it stays owed
            results, prepared = self._carry_before_batch_locked(prepared)
            for reply in self._request(prepared, timeout):
                try:
                    results.append(self._interpret_reply(reply))
                except _ServerBusy as exc:
                    # Not auto-retried here: the statements behind the
                    # rejected one were already fired, and re-firing this
                    # one now would reorder it after them. The statement
                    # never executed, so the *caller* may re-issue it.
                    raise OperationalError(
                        f"{exc} (not auto-retried mid-pipeline: later statements "
                        "were already fired; the rejected statement never ran and "
                        "may be re-issued)"
                    ) from exc
            return results

    @property
    def multiplexed(self) -> bool:
        """Whether this connection rides a shared multiplexed channel."""
        return self._link is not None and self._link.shared

    @property
    def session_id(self) -> Optional[str]:
        """The session this connection holds on its link (None when detached)."""
        return self._session_id

    @property
    def controller_id(self) -> Optional[str]:
        """Which controller this connection is currently attached to."""
        return self._controller_id

    @property
    def tracing(self) -> bool:
        """Whether statements on this connection carry trace ids."""
        return self._tracing

    def stats(self) -> Dict[str, Any]:
        """Per-connection counters (observability for tests/benches)."""
        return {
            "statements_executed": self.statements_executed,
            "failovers": self.failovers,
            "not_primary_bounces": self.not_primary_bounces,
            "server_busy_retries": self.server_busy_retries,
            "busy_backoff_seconds": self.busy_backoff_seconds,
            "tracing": self._tracing,
            "traced_statements": self.traced_statements,
        }


class ClusterDriverRuntime(DriverRuntime):
    """Parameterised Sequoia-like driver runtime."""

    api_name = "SEQUOIA"

    def __init__(
        self,
        name: str = "sequoia-driver",
        driver_version: Tuple[int, int, int] = (1, 0, 0),
        protocol_version: int = CLUSTER_PROTOCOL_VERSION,
        preconfigured_url: Optional[str] = None,
        default_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            name, driver_version, protocol_version, None, preconfigured_url, default_options
        )
        self._round_robin = 0
        #: Shared links, keyed ``(id(network), host, database)`` —
        #: sessions for the same virtual database share a physical
        #: channel, which carries no identity. Private links are never
        #: registered.
        self._links: Dict[Tuple[Any, ...], List[ControllerLink]] = {}
        #: Channel establishments in flight per key, counted against the
        #: per-host cap so a burst of concurrent connects does not
        #: stampede past ``mux_channels_per_host`` fresh channels.
        self._forming: Dict[Tuple[Any, ...], int] = {}
        self._links_cond = threading.Condition(self._lock)

    # -- shared link registry --------------------------------------------------------

    def _checkout_link(
        self, key: Tuple[Any, ...], channels_per_host: int
    ) -> Optional[ControllerLink]:
        """An existing live shared link for ``key``, or None to make the
        caller establish a new one — the caller then owns a *forming*
        slot and MUST report back via :meth:`_forming_done`. Until
        ``channels_per_host`` links exist (counting in-flight
        establishments), new sessions spread onto fresh links; after
        that they pile onto the least-loaded live one. A caller that
        finds the cap reached but nothing live yet waits for a forming
        link instead of opening link number cap+1."""
        cap = max(1, channels_per_host)
        with self._links_cond:
            while True:
                links = self._links.get(key, [])
                live = [link for link in links if not link.dead]
                if len(live) != len(links):
                    if live:
                        self._links[key] = live
                    else:
                        self._links.pop(key, None)
                forming = self._forming.get(key, 0)
                if len(live) + forming < cap:
                    self._forming[key] = forming + 1
                    return None
                if live:
                    return min(live, key=lambda link: link.session_count)
                # Cap's worth of links are mid-handshake on other
                # threads: piggyback on the first to finish. The timeout
                # claims a slot anyway if they all stall or fail.
                if not self._links_cond.wait(timeout=10.0):
                    self._forming[key] = self._forming.get(key, 0) + 1
                    return None

    def _forming_done(self, key: Tuple[Any, ...]) -> None:
        """Release a forming slot claimed by a None checkout — called
        whether the establishment registered a shared link, was granted
        only a private one, or failed."""
        with self._links_cond:
            remaining = self._forming.get(key, 0) - 1
            if remaining > 0:
                self._forming[key] = remaining
            else:
                self._forming.pop(key, None)
            self._links_cond.notify_all()

    def _register_link(self, link: ControllerLink) -> None:
        with self._links_cond:
            self._links.setdefault(link.key, []).append(link)
            self._links_cond.notify_all()

    def _release_link(self, link: ControllerLink) -> None:
        """Called when a connection detaches: the physical channel closes
        once its last session is gone — or at once if it died — so idle
        links never outlive their clients (no leaked reader threads)."""
        with self._lock:
            if link.session_count > 0 and not link.dead:
                return
            links = self._links.get(link.key)
            if links and link in links:
                links.remove(link)
                if not links:
                    del self._links[link.key]
        link.close()

    def mux_channel_count(self) -> int:
        """Live shared channels (observability for tests and benches)."""
        with self._lock:
            return sum(len(links) for links in self._links.values())

    def _next_start_index(self, host_count: int) -> int:
        """Round-robin start index for load balancing new connections."""
        if host_count <= 0:
            return 0
        with self._lock:
            self._round_robin = (self._round_robin + 1) % host_count
            return self._round_robin

    def _open(
        self,
        network: Network,
        url: ConnectionUrl,
        user: Optional[str],
        password: Optional[str],
        options: Dict[str, Any],
    ) -> ClusterConnection:
        # The credentials stay here: the controller authenticates nobody.
        return ClusterConnection(self, network, url, options)


#: Module-level conventional Sequoia driver (legacy installation path).
SequoiaDriver = ClusterDriverRuntime(name="sequoia-legacy", driver_version=(1, 0, 0))


def connect(
    url: str,
    user: Optional[str] = None,
    password: Optional[str] = None,
    network: Optional[Network] = None,
    **options: Any,
) -> ClusterConnection:
    """Module-level ``connect`` for the conventional Sequoia driver."""
    return SequoiaDriver.connect(url, user=user, password=password, network=network, **options)
