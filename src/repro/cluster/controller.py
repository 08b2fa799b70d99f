"""The cluster controller (Sequoia's central component).

A controller exposes one *virtual database* to clients over the cluster
wire protocol and maps every statement onto the replicated backends via
the request scheduler. It supports:

- protocol-version checking at connection time (drivers may be older than
  the controller, never newer),
- disabling a backend around a consistent checkpoint and re-enabling it
  with a resync from the recovery log,
- one table of who may send what on its listener (``Controller.routes``),
  joined by an embedded Drivolution server's rows — this is how the hybrid
  deployment (Figure 6) answers bootloader requests on its own address,
- group communication with peer controllers, used to replicate Drivolution
  driver installations so that "all client applications can be upgraded no
  matter which server they are connected to".
"""

from __future__ import annotations

import threading
import traceback
import uuid
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from queue import SimpleQueue
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.cluster.backend import Backend
from repro.cluster.broadcaster import WriteBroadcaster
from repro.cluster.classifier import classify, normalize_table_name
from repro.cluster.loadbalancer import create_policy
from repro.cluster.placement import PlacementMap, create_placement
from repro.cluster.querycache import QueryCache
from repro.cluster.recovery import (
    DatabaseDump,
    DatabaseDumper,
    FailureDetector,
    FileLogStore,
    GroupCommit,
    MemoryLogStore,
    PeerLink,
    RecoveryLog,
    ReplicatedLogStore,
    exchange,
)
from repro.cluster.scheduler import RequestScheduler, SchedulerError
from repro.core.clock import Clock, wall_clock
from repro.cluster.wire import (
    CLUSTER_PROTOCOL_VERSION,
    ERROR_NOT_A_PEER,
    ERROR_NOT_PRIMARY,
    ERROR_SERVER_BUSY,
    MIN_CLIENT_PROTOCOL_VERSION,
    MULTIPLEX_MIN_VERSION,
    TRACE_MIN_VERSION,
    ClusterMessageType,
    ClusterWireError,
    attach_trace,
    correlate,
    make_connect_ok,
    make_error,
    make_group,
    make_ha_status_ok,
    make_result,
    make_session_open_ok,
)
from repro.obs import NULL_TRACE, MetricsRegistry, SlowQueryLog, Trace, render_json, render_prometheus
from repro.core.admin import DrivolutionAdmin
from repro.core.constants import DEFAULT_LEASE_TIME_MS, ExpirationPolicy, RenewPolicy
from repro.core.package import DriverPackage
from repro.core.server import DrivolutionServer
from repro.errors import DriverError, ReproError, TransportError
from repro.netsim.ingress import STOP, Route, Sender, refuse_with, serve
from repro.netsim.transport import Address, Channel, ChannelServer, Network

#: Refuses a frame with the cluster protocol's ERROR and nothing more.
_refuse = refuse_with(make_error)


@dataclass
class ControllerConfig:
    """Static configuration of one controller."""

    controller_id: str = field(default_factory=lambda: f"controller-{uuid.uuid4().hex[:6]}")
    virtual_database: str = "vdb"
    protocol_version: int = CLUSTER_PROTOCOL_VERSION
    #: Read load-balancing policy as a spec string (see
    #: repro.cluster.loadbalancer): ``round_robin``, ``least_pending``,
    #: ``weighted`` or ``weighted:db1=3,db2=1``.
    read_policy: str = "round_robin"
    #: Statement-execution workers shared by all multiplexed sessions
    #: (a v3 client that asks for a trunk is granted one — docs/wire.md).
    worker_pool_size: int = 16
    #: Not a field: writes always batch. perfbench reads it; ROADMAP item 4(b) removes that read.
    write_batching: ClassVar[bool] = True
    #: Admission control: statements a single multiplexed session may
    #: have queued before further EXECUTEs get a retryable
    #: ``server_busy`` ERROR (bounds per-session memory under runaway
    #: pipelining). None = unbounded, the pre-admission behaviour.
    max_session_queue_depth: Optional[int] = 256
    #: Admission control: statements queued-or-executing across the
    #: whole controller before EXECUTEs get ``server_busy`` (bounds
    #: total queueing when the statement workers saturate — clients back off
    #: and retry instead of queueing unboundedly). None (default) = off.
    max_in_flight_statements: Optional[int] = None
    #: Cache SELECT results with table-based invalidation. Off by default:
    #: with several controllers in a group, writes routed through a peer do
    #: not invalidate this controller's cache.
    query_cache_enabled: bool = False
    #: Table placement (RAIDb level) as a spec string — parseable from any
    #: string-carrying layer (URL options, config files): ``full``
    #: (RAIDb-1, the default), ``hash:N`` (RAIDb-2, each table on N
    #: backends), ``raidb0`` (partitioning, no redundancy), or
    #: ``explicit:users=db1+db2,orders=db3``. None keeps full replication.
    placement: Optional[str] = None
    #: Directory for the durable recovery log (segmented JSONL) and the
    #: controller's state record (floor, epoch, checkpoints). None keeps
    #: both in memory. Each controller needs its own directory: it
    #: replays *its* write order.
    log_dir: Optional[str] = None
    #: Make every acknowledged write durable in ``log_dir`` before its
    #: reply: one fsync per commit group (concurrent writers share it),
    #: never one per append.
    log_fsync: bool = False
    #: Compact the log every N appends (0 = only on demand). Compaction
    #: truncates entries older than the oldest live named checkpoint.
    auto_compact_every: int = 0
    #: Controller HA (docs/ha.md): addresses of the *other* controllers
    #: replicating this recovery log. Every controller is an HA node;
    #: this only sizes its group (empty = the group of one). The
    #: primary's group-commit flush pushes each fsync group to these
    #: peers and requires a strict cluster majority (counting itself)
    #: before any write is acknowledged, and followers refuse writes
    #: with a retryable ``not_primary`` ERROR. Use 3 controllers: a
    #: 2-node cluster's majority is 2, so either node's death halts
    #: writes (deliberately — see docs/ha.md).
    ha_peers: List[Address] = field(default_factory=list)
    #: Seconds between heartbeat rounds of the failure detector's
    #: background thread, which runs while the controller is started iff
    #: an interval is set. ``Controller.heartbeat()`` can always be
    #: called manually (experiments drive it from a simulated clock).
    heartbeat_interval: Optional[float] = None
    #: Per-statement tracing (see docs/observability.md): every statement
    #: gets a Trace whose stage spans feed the latency histogram and the
    #: slow-query log, and v3 clients that negotiated tracing get the
    #: span list back on their RESULT/ERROR frames. Off (the default)
    #: keeps the statement path free of trace objects entirely.
    tracing: bool = False


#: Queue sentinel ordering a session's close after its pending executes.
_CLOSE_SESSION = object()


class _Session:
    """One logical session on a client channel: its id and counters plus
    a FIFO of pending statements. ``scheduled`` is True while the session
    is on the run queue or a worker is running one of its items;
    statements of one session never run concurrently (per-session order
    is preserved) while different sessions' statements interleave freely
    across the workers. Whether its transaction is open is not kept here:
    it is ``scheduler.in_transaction(session_id)``."""

    __slots__ = ("session_id", "statements", "failed", "queue", "scheduled", "closed")

    def __init__(self, session_id: str) -> None:
        self.session_id = session_id
        self.statements = 0
        self.failed = 0
        self.queue: deque = deque()
        self.scheduled = False
        self.closed = False


class _ChannelState:
    """Server-side state of one client channel.

    A *trunk* (multiplexing granted) carries many sessions, opened by
    SESSION_OPEN and correlated by ``session_id``/``request_id``. A
    *dedicated* channel is a trunk with exactly one session, ``implicit``,
    opened by the handshake: its frames carry no correlation, and since
    EXECUTE/RESULT alternate strictly its reader thread runs each
    statement itself instead of queueing it for the run queue."""

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        #: Serialises concurrent workers' replies onto the one channel.
        self.send_lock = threading.Lock()
        #: Guards ``sessions`` and every _Session's queue/flags.
        self.lock = threading.Lock()
        self.sessions: Dict[str, _Session] = {}
        #: The handshake-opened session of a dedicated channel; None on a trunk.
        self.implicit: Optional[_Session] = None


#: Which run queue the current thread works for, if any.
_worker = threading.local()


class _RunQueue:
    """The trunk sessions that have work, and the threads that run it.

    One ``SimpleQueue`` holds ``(state, session)`` entries. A worker takes
    one, runs ONE queued item of that session, then puts the session back
    at the tail if it has more — a session with 100 pipelined statements
    interleaves with its channel peers instead of holding a worker until
    drained — and otherwise clears ``scheduled``. A statement costs one
    entry tuple, one C queue hop and two uncontended lock passes.

    Workers start on demand: an entry that finds no idle worker starts
    one, up to ``size``, so an idle controller has no worker threads and
    the ceiling holds however many sessions are open. ``_idle`` counts
    workers with no entry to take; a worker that puts its own session
    back takes an entry itself and stays counted busy. A worker waiting
    for a transaction between statements (:meth:`park`) does not count
    toward the ceiling: that transaction's COMMIT may be queued behind
    it. A worker past the ceiling that finds nothing to do exits."""

    def __init__(self, run: Callable[[_ChannelState, _Session, Any], None], size: int, name: str) -> None:
        self._run = run
        self._size = max(1, size)
        self._name = name
        self._ready: SimpleQueue = SimpleQueue()
        #: Guards the fields below and orders every put before close()'s
        #: stop entries, so nothing is queued behind them.
        self._lock = threading.Lock()
        self._idle = 0
        #: Workers waiting for a transaction's lock.
        self._parked = 0
        self._threads: List[threading.Thread] = []
        self._started = 0
        self.closed = False

    def put(self, state: _ChannelState, session: _Session, requeue: bool = False) -> bool:
        """Queue a session that has work (``requeue``: from the worker
        that ran its last item). Once closed the work is dropped — the
        channel is about to die — and ``scheduled`` reset; False then."""
        worker = None
        with self._lock:
            closed = self.closed
            if not closed:
                self._ready.put((state, session))
                if requeue:
                    return True
                if self._idle:
                    self._idle -= 1
                else:
                    worker = self._spare_worker_locked()
        if closed:
            with state.lock:
                session.scheduled = False
            return False
        if worker is not None:
            worker.start()
        return True

    def _spare_worker_locked(self) -> Optional[threading.Thread]:
        """A new worker, unless the unparked ones reach the ceiling."""
        if len(self._threads) - self._parked >= self._size:
            return None
        worker = threading.Thread(target=self._work, name=f"{self._name}-mux_{self._started}", daemon=True)
        self._started += 1
        self._threads.append(worker)
        return worker

    def park(self, waiting: bool) -> None:
        """The calling thread starts (``waiting``) or stops waiting for a
        transaction between statements. A worker of this queue that waits
        lends its slot: queued work nobody is idle to take gets a new
        worker."""
        if getattr(_worker, "queue", None) is not self:
            return
        worker = None
        with self._lock:
            self._parked += 1 if waiting else -1
            if waiting and not self.closed and not self._idle and not self._ready.empty():
                worker = self._spare_worker_locked()
        if worker is not None:
            worker.start()

    def _work(self) -> None:
        _worker.queue = self
        while True:
            entry = self._ready.get()
            if entry is None:
                return
            if not self._step(*entry):
                with self._lock:
                    if len(self._threads) - self._parked > self._size and self._ready.empty():
                        self._threads.remove(threading.current_thread())
                        return
                    self._idle += 1

    def _step(self, state: _ChannelState, session: _Session) -> bool:
        """Run one item of ``session``; True if it went back on the queue."""
        with state.lock:
            if not session.queue:
                # The channel's teardown emptied the FIFO while it waited.
                session.scheduled = False
                return False
            item = session.queue.popleft()
        try:
            self._run(state, session, item)
        except Exception:  # noqa: BLE001 - a worker must outlive any one item
            traceback.print_exc()
        with state.lock:
            more = bool(session.queue) and not session.closed
            if not more:
                session.scheduled = False
        return more and self.put(state, session, requeue=True)

    def close(self) -> None:
        """Take no more work. Each worker exits after the entries already
        queued: in-flight statements finish."""
        with self._lock:
            self.closed = True
            for _ in self._threads:
                self._ready.put(None)

    def worker_threads(self) -> int:
        with self._lock:
            return sum(1 for thread in self._threads if thread.is_alive())


def _correlated(
    reply: Dict[str, Any], session_id: Optional[str], request_id: Optional[int]
) -> Dict[str, Any]:
    """Stamp a trunk reply with the correlation of the frame it answers;
    a dedicated channel's replies (no ``session_id``) stay bare."""
    if session_id is not None:
        reply["session_id"] = session_id
        reply["request_id"] = request_id
    return reply


class Controller:
    """One Sequoia-like controller."""

    def __init__(
        self,
        config: ControllerConfig,
        network: Network,
        address: Address,
        backends: Optional[List[Backend]] = None,
        clock: Clock = wall_clock,
    ) -> None:
        self.config = config
        self.network = network
        self.address = address
        self.clock = clock
        # A group-commit coordinator exists iff there is something to
        # wait for after an append: a durable fsynced log, or HA peers —
        # whose majority-ack replication round runs in wait_durable's
        # flush (one round per fsync group, not per entry) even over a
        # volatile store, where the flush itself is a no-op.
        group_commit_active = bool(
            (config.log_dir is not None and config.log_fsync) or config.ha_peers
        )
        # The store never fsyncs per append (its default): the fsync
        # rides the group coordinator's flush — durability is preserved
        # (no reply before wait_durable returns) at a fraction of the
        # fsync count.
        self.recovery_log = RecoveryLog(
            store=FileLogStore(config.log_dir) if config.log_dir is not None else MemoryLogStore(),
            auto_compact_every=config.auto_compact_every,
        )
        #: Every controller is an HA node over its log (docs/ha.md);
        #: ``ha_peers`` only sizes its group, and none makes it the group of one.
        self.ha_store = ReplicatedLogStore(
            self.recovery_log,
            network,
            node_id=config.controller_id,
            self_address=address,
            peer_addresses=list(config.ha_peers),
        )
        self.group_commit = GroupCommit(self.ha_store) if group_commit_active else None
        self.scheduler = RequestScheduler(
            backends or [],
            self.recovery_log,
            read_policy=create_policy(config.read_policy),
            query_cache=QueryCache() if config.query_cache_enabled else None,
            broadcaster=WriteBroadcaster(),
            placement=create_placement(config.placement),
            group_commit=self.group_commit,
        )
        # A follower's read skips a dead replica; the primary fails it.
        self.scheduler.owns_replicas = lambda: self.ha_store.is_primary
        self.failure_detector = FailureDetector(self.scheduler, clock=clock, dumper_factory=DatabaseDumper)
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._heartbeat_stop = threading.Event()
        #: Background detection rounds that raised (kept alive regardless).
        self.heartbeat_errors = 0
        self.last_heartbeat_error: Optional[str] = None
        self._sessions: Dict[str, _Session] = {}
        group_peer = Sender("group peer", lambda ch: ch.remote_address in self.peers(), ERROR_NOT_A_PEER)
        ha_peer = Sender(
            "HA peer", lambda ch: ch.remote_address in self.ha_store.peer_addresses(), ERROR_NOT_A_PEER
        )
        #: Who may send what on this listener (docs/wire.md "Who may send
        #: what"); an embedded Drivolution server adds its rows.
        self.routes: Dict[str, Route] = {
            ClusterMessageType.CONNECT: Route(
                self._serve_client,
                {"virtual_database": str, "protocol_version": int},
                {"multiplex": bool, "trace": bool},
                code="bad_handshake",
            ),
            ClusterMessageType.GROUP: Route(
                self._apply_group_operation,
                {"operation": str, "payload": dict},
                sender=group_peer,
                code="bad_group_operation",
            ),
            ClusterMessageType.REPLICATE: Route(
                lambda channel, frame: self.ha_store.answer(frame, channel.remote_address),
                {"epoch": int, "entries": list, "truncated_through": int},
                {"checkpoints": list},
                ha_peer,
                "bad_replicate",
            ),
            ClusterMessageType.HA_STATUS: Route(
                lambda channel, frame: make_ha_status_ok(**self.ha_store.status()), sender=ha_peer
            ),
        }
        #: What a CONNECTed channel takes; a trunk also opens and closes sessions.
        self._session_routes: Dict[str, Route] = {
            ClusterMessageType.EXECUTE: Route(
                self._on_execute, {"sql": str}, {"params": dict, "trace_id": str, "begin": bool}
            ),
            ClusterMessageType.CLOSE: Route(lambda state, frame: STOP),
            ClusterMessageType.PING: Route(lambda state, frame: {"type": ClusterMessageType.PONG}),
        }
        self._trunk_routes: Dict[str, Route] = {
            **self._session_routes,
            ClusterMessageType.SESSION_OPEN: Route(self._on_session_open),
            ClusterMessageType.SESSION_CLOSE: Route(self._on_session_close),
        }
        # Front end: one run queue of ready sessions shared by every
        # trunk, and the live client channel states (each owns one
        # reader thread — the ChannelServer handler).
        self._run_queue = _RunQueue(self._run_item, config.worker_pool_size, config.controller_id)
        self.scheduler.lock_manager.on_wait = lambda waiting: self._run_queue.park(waiting)
        self._channels: set = set()
        self._channel_server: Optional[ChannelServer] = None
        self._peers: List[Address] = []
        self._lock = threading.Lock()
        self.drivolution: Optional[DrivolutionServer] = None
        #: Statements served to clients (observability for experiments).
        self.statements_served = 0
        self.failed_statements = 0
        # Admission control (guarded by _lock): statements admitted and
        # not yet finished — queued in a session FIFO or executing on a
        # worker — against config.max_in_flight_statements.
        self._in_flight_statements = 0
        self._in_flight_peak = 0
        #: EXECUTEs refused with a ``server_busy`` ERROR (either bound).
        self.server_busy_rejections = 0
        # Observability: one registry unifies first-class instruments
        # with every subsystem's existing stats() dict (registered as
        # collectors, so their shapes stay untouched). The slow-query
        # log and the latency histogram are only fed when tracing is on.
        self.metrics = MetricsRegistry()
        self.slow_queries = SlowQueryLog()
        self._statement_latency = self.metrics.histogram(
            "statement_latency_seconds", "End-to-end latency of traced statements"
        )
        self._traced_statements = self.metrics.counter(
            "traced_statements", "Statements executed with a trace attached"
        )
        self.metrics.register_collector("controller", self._controller_stats)
        self.metrics.register_collector("front_end", self._front_end_stats)
        self.metrics.register_collector("scheduler", self.scheduler.stats)
        self.metrics.register_collector("recovery", self._recovery_stats)
        self.metrics.register_collector("slow_queries", self.slow_queries.stats)
        self.metrics.register_collector("ha", self.ha_store.ha_stats)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Controller":
        if self._channel_server is not None:
            return self
        if self._run_queue.closed:
            # A restart: the stopped queue's workers finish what it holds.
            self._run_queue = _RunQueue(
                self._run_item, self.config.worker_pool_size, self.config.controller_id
            )
        listener = self.network.listen(self.address)
        self._channel_server = ChannelServer(
            listener, partial(serve, routes=self.routes, refuse=_refuse), name=self.config.controller_id
        )
        self._channel_server.start()
        if self.config.heartbeat_interval is not None and self.config.heartbeat_interval > 0:
            self._heartbeat_stop.clear()
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"{self.config.controller_id}-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()
        return self

    def stop(self, flush: bool = True) -> None:
        """Stop serving. ``flush=False`` simulates a crash: the final
        log flush — and with it the final HA replication round — is
        skipped, exactly the window where a primary dies between
        appending an entry and shipping it (tests/chaos.py uses this)."""
        if self._heartbeat_thread is not None:
            self._heartbeat_stop.set()
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
        if self._channel_server is not None:
            self._channel_server.stop()
            self._channel_server = None
        self._run_queue.close()
        self.scheduler.close()
        # Make the durable log safe against the process dying right after
        # (a controller restarted on the same log_dir resumes at this
        # index) and release the segment file handle — a later start()
        # reopens it lazily on the next append.
        if flush:
            try:
                self.ha_store.flush()
            except DriverError:
                # A dying HA primary may fail its final replication
                # round (peers gone, quorum lost); shutdown proceeds.
                pass
        self.ha_store.close()
        self.recovery_log.close()

    def _heartbeat_loop(self) -> None:
        while not self._heartbeat_stop.wait(self.config.heartbeat_interval):
            try:
                self.heartbeat()
            except Exception as exc:  # noqa: BLE001 - detection must outlive any round
                # A detection round must never kill the thread — not even
                # on non-ReproError surprises (disk-full during checkpoint
                # persistence, a buggy pluggable store). Dead backends
                # would otherwise go undetected for the controller's
                # remaining lifetime with no visible signal.
                self.heartbeat_errors += 1
                self.last_heartbeat_error = str(exc)
                continue

    def heartbeat(self) -> Dict[str, Any]:
        """Run one failure-detection round (ping every backend,
        auto-disable dead ones, auto-resync recovered ones)."""
        return self.failure_detector.check()

    @property
    def running(self) -> bool:
        return self._channel_server is not None

    # -- observability ---------------------------------------------------------

    def _admit_statement(self) -> bool:
        """Claim one controller-wide in-flight slot, or refuse.

        Fast path: with no configured limit nothing is counted and no
        lock is taken — the pre-admission hot path is untouched."""
        limit = self.config.max_in_flight_statements
        if limit is None:
            return True
        with self._lock:
            if self._in_flight_statements >= limit:
                return False
            self._in_flight_statements += 1
            if self._in_flight_statements > self._in_flight_peak:
                self._in_flight_peak = self._in_flight_statements
            return True

    def _release_statement(self, count: int = 1) -> None:
        if self.config.max_in_flight_statements is None or count <= 0:
            return
        with self._lock:
            self._in_flight_statements = max(0, self._in_flight_statements - count)

    def _busy_reply(self, detail: str) -> Dict[str, Any]:
        """A retryable ``server_busy`` ERROR frame: the statement never
        reached a backend, so the driver may retry it with backoff."""
        with self._lock:
            self.server_busy_rejections += 1
        return make_error(
            ERROR_SERVER_BUSY,
            f"controller {self.config.controller_id} is saturated ({detail}); "
            "retry with backoff",
        )

    def _controller_stats(self) -> Dict[str, Any]:
        with self._lock:
            active_sessions = len(self._sessions)
        return {
            "statements_served": self.statements_served,
            "failed_statements": self.failed_statements,
            "active_sessions": active_sessions,
        }

    def _front_end_stats(self) -> Dict[str, Any]:
        with self._lock:
            mux_channels = sum(1 for state in self._channels if state.implicit is None)
            in_flight = self._in_flight_statements
            in_flight_peak = self._in_flight_peak
            busy_rejections = self.server_busy_rejections
        return {
            "worker_pool_size": self.config.worker_pool_size,
            "worker_threads": self._run_queue.worker_threads(),
            "mux_channels": mux_channels,
            "reader_threads": (
                self._channel_server.handler_thread_count()
                if self._channel_server is not None
                else 0
            ),
            "group_commit": self.group_commit.stats() if self.group_commit else None,
            "max_session_queue_depth": self.config.max_session_queue_depth,
            "max_in_flight_statements": self.config.max_in_flight_statements,
            "in_flight_statements": in_flight,
            "in_flight_peak": in_flight_peak,
            "server_busy_rejections": busy_rejections,
        }

    def _recovery_stats(self) -> Dict[str, Any]:
        return {
            "log": self.recovery_log.stats(),
            "failure_detector": self.failure_detector.stats(),
            "cold_starts": self.scheduler.cold_starts,
            "durable": self.config.log_dir is not None,
            "heartbeat_errors": self.heartbeat_errors,
            "last_heartbeat_error": self.last_heartbeat_error,
        }

    def _obs_stats(self) -> Dict[str, Any]:
        return {
            "tracing": self.config.tracing,
            "traced_statements": self._traced_statements.value,
            "statement_latency": self._statement_latency.snapshot(),
            "slow_queries": self.slow_queries.stats(),
        }

    def stats(self) -> Dict[str, Any]:
        """Controller-level counters plus the scheduling subsystem's stats.

        The sub-dicts are produced by the same callables the metrics
        registry runs as collectors, so this view and
        :meth:`metrics_snapshot` can never drift apart."""
        scheduler_stats = self.scheduler.stats()
        stats = {
            "controller_id": self.config.controller_id,
            "front_end": self._front_end_stats(),
            # Same object as scheduler["placement"] — surfaced top-level
            # for operators, computed once.
            "placement": scheduler_stats["placement"],
            "scheduler": scheduler_stats,
            "recovery": self._recovery_stats(),
            "obs": self._obs_stats(),
            "ha": self.ha_store.ha_stats(),
        }
        stats.update(self._controller_stats())
        return stats

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The unified registry snapshot: instruments plus every
        registered subsystem's stats tree."""
        return self.metrics.snapshot()

    def metrics_text(self) -> str:
        """The registry flattened to Prometheus text exposition format."""
        return render_prometheus(self.metrics.flattened())

    def metrics_json(self) -> str:
        """The registry snapshot as stable-key-order JSON."""
        return render_json(self.metrics_snapshot())

    # -- tracing ---------------------------------------------------------------

    def _start_trace(self, message: Dict[str, Any]) -> Any:
        """A Trace for one EXECUTE, or ``NULL_TRACE`` when tracing is off.

        Honours the client's ``trace_id`` when the EXECUTE carried one
        (so driver- and server-side records correlate) and marks the
        trace ``wire_requested`` so the reply carries the spans back;
        otherwise the trace feeds only the histogram/slow log and leaves
        the reply frame untouched."""
        if not self.config.tracing:
            return NULL_TRACE
        trace_id = message.get("trace_id") or None
        return Trace(trace_id=trace_id, wire_requested=trace_id is not None)

    def _finish_trace(self, trace: Any, sql: str, reply: Dict[str, Any]) -> Dict[str, Any]:
        """Seal a statement's trace: histogram + slow-query log, and the
        span list onto the reply frame iff the client asked for it. The
        one place that tests for ``NULL_TRACE``: there is nothing to seal
        or export when tracing is off."""
        if trace is NULL_TRACE:
            return reply
        total = trace.finish()
        self._traced_statements.inc()
        self._statement_latency.observe(total)
        # stage_seconds is passed as a callable: the slow log only
        # evaluates it for statements that actually make the table.
        self.slow_queries.record(
            sql,
            total,
            stages=trace.stage_seconds,
            trace_id=trace.trace_id,
            **trace.attrs,
        )
        if trace.wire_requested:
            # Pre-serialised: one flat string through the frame codec
            # instead of a per-span tree walk (see Trace.to_wire_json).
            attach_trace(reply, trace.to_wire_json())
        return reply

    # -- backends ----------------------------------------------------------------

    def backends(self) -> List[Backend]:
        return self.scheduler.backends()

    def backend(self, name: str) -> Backend:
        for candidate in self.scheduler.backends():
            if candidate.name == name:
                return candidate
        raise DriverError(f"unknown backend {name!r}")

    def disable_backend(self, name: str) -> int:
        """Disable a backend around a consistent checkpoint; returns the
        checkpoint index it will resync from.

        An explicit disable is operator intent (recorded on the backend
        as ``disabled_by="admin"``, over any earlier detector disable):
        the failure detector will not resync the backend behind the
        operator's back when it answers pings."""
        return self.scheduler.checkpoint_and_disable(self.backend(name))

    def enable_backend(self, name: str) -> int:
        """Re-enable a backend, replaying missed writes; returns how many
        log entries were replayed.

        Refused while a transaction is open, and atomic with respect to
        concurrent writes (see RequestScheduler.resync_and_enable). When
        log compaction already truncated the backend's replay range, the
        resync falls back to a dump-based cold start from a healthy
        sibling. The query cache is flushed so no entry cached while the
        backend was out of rotation can be served stale."""
        return self.scheduler.resync_and_enable(self.backend(name), dumper=DatabaseDumper())

    # -- placement (RAIDb level) ------------------------------------------------

    def set_placement(self, placement: Any) -> Dict[str, Any]:
        """Swap the table-placement map (spec string like ``hash:2``, a
        policy, or a prebuilt :class:`PlacementMap`); returns the new
        placement stats. Placement moves no data — set it before the
        governed tables exist, or cold-start the affected replicas."""
        return self.scheduler.set_placement(placement).stats()

    @property
    def placement(self) -> PlacementMap:
        return self.scheduler.placement

    # -- dumps and cold start ---------------------------------------------------

    def dump_database(
        self,
        checkpoint_name: Optional[str] = None,
        tables: Optional[List[str]] = None,
    ) -> DatabaseDump:
        """Snapshot one healthy backend, consistent with the log head.

        The snapshot's position is pinned under a named checkpoint
        (``dump-<index>`` by default) so compaction keeps the tail a
        consumer will replay; release it with :meth:`release_checkpoint`
        once every consumer has cold-started. ``tables`` restricts the
        snapshot to a subset (spelled any way the classifier normalises —
        ``Users``, ``public.users``...), which is how an operator ships a
        partial replica just the tables it will host."""
        table_filter = None
        if tables is not None:
            wanted = {normalize_table_name(table) for table in tables}
            table_filter = lambda qualified: normalize_table_name(qualified) in wanted  # noqa: E731
        return self.scheduler.create_dump(
            checkpoint_name=checkpoint_name, table_filter=table_filter
        )

    def add_backend_from_dump(
        self, backend: Backend, dump: DatabaseDump, release_checkpoint: bool = True
    ) -> int:
        """Bring a brand-new backend online from ``dump`` + tail replay.

        The dump's rows are restored outside the write path (the backend
        is not in the rotation yet, so writes keep flowing), then the log
        tail after the dump's checkpoint is replayed and the backend
        registered and enabled atomically with the write path. Returns
        the number of tail entries replayed. A refused join (e.g. a
        transaction is open) leaves the backend unregistered and the
        dump's checkpoint pinned: call again to retry.
        ``release_checkpoint=False`` keeps the dump's pinned position for
        further backends started off the same snapshot."""
        backend.initialize_from_dump(dump)
        replayed = self.scheduler.resync_and_enable(backend, dumper=DatabaseDumper())
        if release_checkpoint and dump.checkpoint_name:
            self.recovery_log.release_checkpoint(dump.checkpoint_name)
        return replayed

    def provision_backend(self, backend: Backend) -> int:
        """One-call cold start: dump the healthy siblings into ``backend``
        and add it to the rotation, all atomically with the write path.
        Returns the number of restore statements executed."""
        return self.scheduler.resync_and_enable(backend, dumper=DatabaseDumper(), cold=True)

    def compact_recovery_log(self) -> int:
        """Truncate log entries no live checkpoint still pins; returns
        how many entries were dropped."""
        return self.recovery_log.compact()

    def release_checkpoint(self, name: str) -> bool:
        return self.recovery_log.release_checkpoint(name)

    def disable_backend_cluster_wide(self, name: str) -> int:
        """Disable ``name`` on this controller and every peer.

        Each controller records its own checkpoint against its own recovery
        log; on re-enable each controller replays the writes *it* routed
        while the backend was disabled.
        """
        checkpoint = self.disable_backend(name)
        self._broadcast_group("disable_backend", {"backend": name})
        return checkpoint

    def enable_backend_cluster_wide(self, name: str) -> int:
        """Re-enable ``name`` everywhere; returns the local replay count.

        Raises if a reachable peer *refused* the enable (e.g. its
        open-transaction gate), so the backend is not silently left
        disabled there; unreachable peers keep the best-effort group
        semantics."""
        replayed = self.enable_backend(name)
        _, refusals = self._broadcast_group("enable_backend", {"backend": name})
        if refusals:
            raise DriverError(
                f"backend {name!r} re-enabled locally but refused by peers: "
                + "; ".join(refusals)
            )
        return replayed

    # -- embedded Drivolution server -------------------------------------------------

    def embed_drivolution(self, server: DrivolutionServer) -> None:
        """Embed a Drivolution server: its rows join this listener's
        table, so its protocol is served on this controller's address
        (Figure 6)."""
        self.drivolution = server
        server.attach_to_database_server(self)

    # -- group communication --------------------------------------------------------------

    def set_peers(self, peers: List[Address]) -> None:
        """Addresses of the other controllers in the group."""
        with self._lock:
            self._peers = [peer for peer in peers if peer != self.address]

    def peers(self) -> List[Address]:
        with self._lock:
            return list(self._peers)

    def install_driver_cluster_wide(
        self,
        package: DriverPackage,
        database: Optional[str] = None,
        lease_time_ms: int = DEFAULT_LEASE_TIME_MS,
        renew_policy: RenewPolicy = RenewPolicy.UPGRADE,
        expiration_policy: ExpirationPolicy = ExpirationPolicy.AFTER_COMMIT,
        replicate: bool = True,
    ) -> DriverPackage:
        """Install a driver in this controller's embedded Drivolution server
        and replicate the installation to every peer controller.

        Returns the installed package. Peers apply the same installation to
        their own embedded servers, so clients upgrade regardless of which
        controller they are connected to.
        """
        package = self._drivolution_admin().install_driver(
            package,
            database=database,
            lease_time_ms=lease_time_ms,
            renew_policy=renew_policy,
            expiration_policy=expiration_policy,
        )
        if replicate:
            payload = {
                "package": package.to_wire(),
                "database": database,
                "lease_time_ms": lease_time_ms,
                "renew_policy": int(renew_policy),
                "expiration_policy": int(expiration_policy),
            }
            self._broadcast_group("install_driver", payload)
        return package

    def _drivolution_admin(self) -> DrivolutionAdmin:
        if self.drivolution is None:
            raise DriverError(f"controller {self.config.controller_id} has no embedded Drivolution server")
        return DrivolutionAdmin([self.drivolution])

    def _broadcast_group(self, operation: str, payload: Dict[str, Any]) -> "Tuple[int, List[str]]":
        """Send a group operation to every peer in one exchange.

        Returns ``(acknowledged, refusals)``: unreachable peers (or ones
        past the ack timeout) are skipped (best effort), but a reachable
        peer that answered with an error is reported so callers can
        surface it."""
        frame = make_group(operation, payload)
        replies = exchange(
            [(PeerLink(peer, self.network, self.address), frame) for peer in self.peers()],
            close=True,
        )
        acknowledged = 0
        refusals: List[str] = []
        for peer, reply in replies.items():
            if isinstance(reply, TransportError):
                continue
            if reply.get("type") == "seq_group_ack":
                acknowledged += 1
            elif reply.get("type") == ClusterMessageType.ERROR:
                refusals.append(f"{peer}: {reply.get('message', 'unknown error')}")
        return acknowledged, refusals

    def _apply_group_operation(self, channel: Channel, message: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a group peer's operation here; returns the reply frame.
        A payload that does not decode is refused (``bad_group_operation``)
        like any other the peer may retry differently — raising here
        would kill the channel's thread and read as "unreachable"."""
        operation, payload = message["operation"], message["payload"]
        try:
            if operation == "install_driver":
                try:
                    package = DriverPackage.from_wire(payload.get("package", {}))
                    install = dict(
                        database=payload.get("database"),
                        lease_time_ms=int(payload.get("lease_time_ms", DEFAULT_LEASE_TIME_MS)),
                        renew_policy=RenewPolicy(int(payload.get("renew_policy", RenewPolicy.UPGRADE))),
                        expiration_policy=ExpirationPolicy(
                            int(payload.get("expiration_policy", ExpirationPolicy.AFTER_COMMIT))
                        ),
                    )
                except (AttributeError, TypeError, ValueError) as exc:
                    return make_error("bad_group_operation", f"malformed install_driver: {exc}")
                self._drivolution_admin().install_driver(package, **install)
            elif operation in ("disable_backend", "enable_backend"):
                backend = payload.get("backend")
                if not isinstance(backend, str):
                    return make_error("bad_group_operation", f"{operation} names no backend")
                if operation == "disable_backend":
                    self.disable_backend(backend)
                else:
                    self.enable_backend(backend)
            else:
                return make_error("bad_group_operation", f"unknown operation {operation!r}")
        except ReproError as exc:
            return make_error("group_operation_failed", str(exc))
        return {"type": "seq_group_ack", "controller_id": self.config.controller_id}

    # -- controller HA (docs/ha.md) ---------------------------------------------------------

    def promote(self, floor_epoch: int = 0) -> int:
        """Promote this controller to HA primary at a fresh epoch
        (bumped past ``floor_epoch``, the highest epoch observed in
        election probes); returns the new epoch.

        Besides the role flip, promotion seeds replay dedup: every
        retained log entry was broadcast to the shared replica databases
        by the old primary *before* it was replicated here, so this
        node's Backend views mark those per-table sequences applied —
        a post-promotion resync replays the tail idempotently instead of
        double-applying writes the databases already hold."""
        epoch = self.ha_store.promote(floor_epoch)
        entries = self.recovery_log.entries_after(self.recovery_log.first_index - 1)
        for backend in self.scheduler.backends():
            if backend.enabled:
                for entry in entries:
                    if entry.table_seqs:
                        backend.advance_checkpoint(entry.index, (entry.table_seqs,))
        # Push the new epoch out so surviving peers adopt it (and the
        # deposed primary, if reachable, demotes itself immediately).
        self.ha_store.announce()
        return epoch

    def _ha_gate_write(self) -> Optional[Dict[str, Any]]:
        """Refuse a write on an HA follower with a retryable
        ``not_primary`` ERROR carrying the primary's address; runs the
        election first so a cluster whose primary just died heals on the
        very write that discovered it."""
        store = self.ha_store
        if store.is_primary or store.ensure_primary(self.promote):
            return None
        reply = make_error(
            ERROR_NOT_PRIMARY,
            f"controller {self.config.controller_id} is an HA follower "
            f"(epoch {store.epoch}); retry on the primary",
        )
        hint = store.primary_hint
        if hint:
            reply["primary_host"] = hint
        return reply

    # -- client connections -----------------------------------------------------------------

    def _serve_client(self, channel: Channel, connect: Dict[str, Any]) -> Any:
        """Answer a CONNECT: the CONNECT_OK and then the session table
        until the channel closes, or a refusal that ends the channel."""
        client_version = connect["protocol_version"]
        if client_version < MIN_CLIENT_PROTOCOL_VERSION:
            channel.send(
                make_error(
                    "protocol_mismatch",
                    f"driver protocol version {client_version!r} too old for controller "
                    f"{self.config.controller_id} (minimum {MIN_CLIENT_PROTOCOL_VERSION})",
                )
            )
            return STOP
        if client_version > self.config.protocol_version:
            # Drivers are backward compatible: a newer driver downgrades to
            # the controller's version, so this still succeeds.
            client_version = self.config.protocol_version
        virtual_database = connect["virtual_database"]
        if virtual_database != self.config.virtual_database:
            channel.send(
                make_error("unknown_database", f"virtual database {virtual_database!r} not hosted here")
            )
            return STOP
        grant_multiplexing = bool(
            connect.get("multiplex") and client_version >= MULTIPLEX_MIN_VERSION
        )
        grant_tracing = bool(
            connect.get("trace")
            and self.config.tracing
            and client_version >= TRACE_MIN_VERSION
        )
        # On a trunk the handshake's session_id only names the channel
        # (logical sessions arrive via SESSION_OPEN); on a dedicated
        # channel it is the one implicit session, open from here on.
        session_id = uuid.uuid4().hex
        state = _ChannelState(channel)
        try:
            if not grant_multiplexing:
                state.implicit = self._open_session(state, session_id)
            with self._lock:
                self._channels.add(state)
            channel.send(
                make_connect_ok(
                    self.config.controller_id,
                    client_version,
                    session_id,
                    multiplexing=grant_multiplexing,
                    tracing=grant_tracing,
                )
            )
            # The only thread receiving from the channel. On a trunk it
            # queues statements for the run queue and never blocks on the
            # scheduler, so one slow statement cannot stall sibling
            # sessions; on a dedicated channel it runs them (_on_execute).
            routes = self._trunk_routes if grant_multiplexing else self._session_routes
            serve(channel, routes, self._refuse_in_session, context=state, greeted=True)
        finally:
            with self._lock:
                self._channels.discard(state)
            # The channel died (or closed): every session on it ends.
            with state.lock:
                leftovers = list(state.sessions.values())
            for session in leftovers:
                self._finish_session(state, session)
        return STOP

    def _execute_for_session(
        self,
        session: _Session,
        sql: str,
        params: Dict[str, Any],
        trace: Any = NULL_TRACE,
    ) -> Dict[str, Any]:
        """Run one statement for a session and build the reply frame.

        The front end guarantees one session's statements never run
        concurrently (a trunk drains a per-session FIFO, a dedicated
        channel's reader runs them in sequence), so the session's
        counters need no lock. The controller-wide counters are shared
        across workers and bump under ``_lock``."""
        with trace.span("classify"):
            statement = classify(sql)
        trace.annotate(command=statement.command, session=session.session_id)
        # Reads outside the session's transaction are served by any
        # node from one replica; everything else takes the write path.
        writes = not statement.is_read or self.scheduler.in_transaction(session.session_id)
        if writes:
            # HA: only the primary accepts writes. The retryable
            # not_primary bounce carries the primary's address, so the
            # driver's failover lands on the right sibling first try.
            refusal = self._ha_gate_write()
            if refusal is not None:
                return refusal
        if writes and self.scheduler.resync_in_progress and self.peers():
            # A resync replay holds the write path, possibly for a long
            # log tail. Instead of queueing the write behind it, tell
            # the driver — it retries transparently against a sibling
            # controller (reads keep being served locally). Without
            # peers there is nowhere to send the client: writes simply
            # queue on the write lock until the replay finishes.
            return make_error(
                "controller_recovering",
                f"controller {self.config.controller_id} is replaying its "
                "recovery log; retry on another controller",
            )
        try:
            columns, rows, rowcount = self.scheduler.execute(
                sql, params, session_id=session.session_id, trace=trace
            )
        except (SchedulerError, DriverError) as exc:
            session.failed += 1
            with self._lock:
                self.failed_statements += 1
            return make_error("execution_failed", str(exc))
        session.statements += 1
        with self._lock:
            self.statements_served += 1
        return make_result(columns, rows, rowcount)

    # -- the session front end (docs/wire.md) -----------------------------------

    def _refuse_in_session(
        self, state: _ChannelState, message: Dict[str, Any], code: str, detail: str
    ) -> None:
        """Refuse a frame on a CONNECTed channel as a reply to the session
        it names (:meth:`_reply`); bare when it names none."""
        session, session_id, request_id = state.implicit, None, None
        if session is None:
            try:
                session_id, request_id = correlate(message)
            except ClusterWireError:
                pass  # nothing to correlate with
            else:
                with state.lock:
                    session = state.sessions.get(session_id)
        self._reply(state, session, make_error(code, detail), session_id, request_id)

    def _send(self, state: _ChannelState, message: Dict[str, Any]) -> bool:
        with state.send_lock:
            try:
                state.channel.send(message)
                return True
            except TransportError:
                # Reply undeliverable: the reader loop observes the dead
                # channel on its next recv and tears the sessions down.
                return False

    def _open_session(self, state: _ChannelState, session_id: str) -> Optional[_Session]:
        """Register a new session on the channel; None if the id is taken."""
        session = _Session(session_id)
        with state.lock:
            if session_id in state.sessions:
                return None
            state.sessions[session_id] = session
        with self._lock:
            self._sessions[session_id] = session
        return session

    def _on_session_open(self, state: _ChannelState, message: Dict[str, Any]) -> None:
        try:
            session_id, request_id = correlate(message)
        except ClusterWireError as exc:
            self._send(state, make_error("bad_correlation", str(exc)))
            return
        if self._open_session(state, session_id) is None:
            reply = make_error("session_exists", f"session {session_id!r} already open")
            self._send(state, _correlated(reply, session_id, request_id))
            return
        self._send(state, make_session_open_ok(session_id, request_id))

    def _on_session_close(self, state: _ChannelState, message: Dict[str, Any]) -> None:
        try:
            session_id, _ = correlate(message, require_request_id=False)
        except ClusterWireError as exc:
            self._send(state, make_error("bad_correlation", str(exc)))
            return
        with state.lock:
            session = state.sessions.get(session_id)
        if session is None:
            return  # idempotent: already closed (or never opened)
        # Through the session FIFO, so the close orders after every
        # pipelined statement the client already fired.
        self._enqueue(state, session, _CLOSE_SESSION)

    def _on_execute(self, state: _ChannelState, message: Dict[str, Any]) -> None:
        """Admit one EXECUTE frame (its fields already typed by the
        session table) on the channel's reader thread: correlate →
        queue-depth bound → in-flight bound → trace, then queue it for
        the run queue (a ``begin`` it carries goes with it, v4) — or, on
        a dedicated channel, run it right here:
        EXECUTE/RESULT alternate strictly there, so the reader *is* the
        session's worker and a hop to a worker would buy nothing. Every
        refusal is answered promptly from this thread (an unanswered or
        unmatchable frame would hang the client's request forever) and
        never reaches a worker."""
        session = state.implicit
        session_id = request_id = None

        def refuse(reply: Dict[str, Any]) -> None:
            self._reply(state, session, reply, session_id, request_id)

        if session is None:
            try:
                session_id, request_id = correlate(message)
            except ClusterWireError as exc:
                self._send(state, make_error("bad_correlation", str(exc)))
                return
            with state.lock:
                session = state.sessions.get(session_id)
            if session is None or session.closed:
                refuse(make_error("unknown_session", f"no open session {session_id!r} on this channel"))
                return
        sql = message["sql"]
        params = message.get("params") or {}
        # The depth check-then-enqueue is race-free: this reader thread
        # is the session queue's only producer, and workers only ever
        # shrink it. (A dedicated session's queue is always empty.)
        depth_limit = self.config.max_session_queue_depth
        if depth_limit is not None:
            with state.lock:
                depth = len(session.queue)
            if depth >= depth_limit:
                refuse(
                    self._busy_reply(f"session queue depth at max_session_queue_depth={depth_limit}")
                )
                return
        # An open transaction bypasses the in-flight bound: its work was
        # admitted at BEGIN, it may hold lock scopes other admitted
        # statements are blocked on, and refusing its COMMIT while those
        # blocked statements fill every slot would deadlock the
        # controller against itself. (The depth bound above still
        # applies — it caps per-session memory, not concurrency.)
        holds_slot = not self.scheduler.in_transaction(session.session_id)
        if holds_slot and not self._admit_statement():
            refuse(
                self._busy_reply(f"max_in_flight_statements={self.config.max_in_flight_statements}")
            )
            return
        # Rejected statements never ran, so they are not traced;
        # everything that reaches the scheduler is.
        trace = self._start_trace(message)
        item = (sql, params, trace, holds_slot, session_id, request_id, message.get("begin", False))
        if state.implicit is not None:
            self._run_statement(state, session, item)
            return
        # The queue-wait span opens on this reader thread and closes on
        # the worker that dequeues the item — exactly the time the
        # statement sat in the session FIFO behind its predecessors.
        # No session attr: _execute_for_session annotates the trace with
        # the session id, so the wire span stays a bare record.
        trace.begin("queue")
        if not self._enqueue(state, session, item) and holds_slot:
            # The session closed between the lookup and the enqueue (its
            # close rode the FIFO); the admitted slot must not leak.
            self._release_statement()

    def _run_statement(self, state: _ChannelState, session: _Session, item: Any) -> None:
        """Execute one admitted statement and send its reply. A BEGIN it
        carries runs first, gated as a BEGIN sent alone is, and a refused
        one leaves the statement unrun: the scheduler sees the same
        BEGIN-then-statement sequence either way."""
        sql, params, trace, holds_slot, session_id, request_id, begin = item
        try:
            reply = self._execute_for_session(session, "BEGIN", {}, trace) if begin else None
            if reply is None or reply["type"] == ClusterMessageType.RESULT:
                reply = self._execute_for_session(session, sql, params, trace)
        except Exception as exc:  # noqa: BLE001 - a serving thread must never die silently
            reply = make_error("internal_error", str(exc))
        finally:
            # The statement's admission slot frees whether it
            # succeeded, failed, or raised.
            if holds_slot:
                self._release_statement()
        self._reply(state, session, self._finish_trace(trace, sql, reply), session_id, request_id)

    def _reply(
        self,
        state: _ChannelState,
        session: Optional[_Session],
        reply: Dict[str, Any],
        session_id: Optional[str],
        request_id: Optional[int],
    ) -> None:
        """The one place a session's RESULT/ERROR leaves the controller
        — a statement's outcome and an admission refusal alike — so it
        is where the reply says whether the session's transaction is
        open *now* (``in_transaction``, omitted when false like every
        optional field): the driver's flag is whatever this said last,
        and this says what the scheduler's record of the session says.
        ``session`` is None only for an EXECUTE naming no open session."""
        if session is not None and self.scheduler.in_transaction(session.session_id):
            reply["in_transaction"] = True
        self._send(state, _correlated(reply, session_id, request_id))

    def _enqueue(self, state: _ChannelState, session: _Session, item: Any) -> bool:
        with state.lock:
            if session.closed:
                return False
            session.queue.append(item)
            if session.scheduled:
                return True
            session.scheduled = True
        self._run_queue.put(state, session)
        return True

    def _run_item(self, state: _ChannelState, session: _Session, item: Any) -> None:
        """One trunk session's queued item, on a run-queue worker."""
        if item is _CLOSE_SESSION:
            self._finish_session(state, session)
        else:
            item[2].end("queue")
            self._run_statement(state, session, item)

    def _finish_session(self, state: _ChannelState, session: _Session) -> None:
        with state.lock:
            if session.closed:
                return
            session.closed = True
            state.sessions.pop(session.session_id, None)
            # Statements still queued behind the close (or behind a dead
            # channel) will never run; their admission slots must free.
            # (In-transaction statements never held one — see
            # ``holds_slot`` in :meth:`_on_execute`.)
            abandoned = sum(
                1 for item in session.queue if item is not _CLOSE_SESSION and item[3]
            )
            session.queue.clear()
        self._release_statement(abandoned)
        with self._lock:
            self._sessions.pop(session.session_id, None)
        if self.scheduler.in_transaction(session.session_id):
            # The client vanished mid-transaction. Roll it back so its
            # replica connections, its locks and the scheduler's record
            # of it are not pinned forever.
            try:
                self.scheduler.abort(session.session_id)
            except (SchedulerError, DriverError):
                pass


class ControllerGroup:
    """Convenience wrapper wiring several controllers into one group."""

    def __init__(self, controllers: List[Controller]) -> None:
        if not controllers:
            raise DriverError("a controller group needs at least one controller")
        self.controllers = list(controllers)
        addresses = [controller.address for controller in controllers]
        for controller in controllers:
            controller.set_peers(addresses)

    def start(self) -> "ControllerGroup":
        for controller in self.controllers:
            controller.start()
        return self

    def stop(self) -> None:
        for controller in self.controllers:
            controller.stop()

    def addresses(self) -> List[Address]:
        return [controller.address for controller in self.controllers]

    def client_url(self, network_name: str = "default") -> str:
        """A multi-controller Sequoia URL, e.g.
        ``sequoia://controller1,controller2/vdb``."""
        hosts = ",".join(self.addresses())
        database = self.controllers[0].config.virtual_database
        return f"sequoia://{hosts}/{database}?network={network_name}"
