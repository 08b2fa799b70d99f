"""The traced run: per-layer cost, measured from outside.

Two instruments (README.md has the module -> layer -> metric map):

* the **onion** replays one seeded, single-session statement stream at
  successive public entry points — L0 ``ClusterCursor.execute``, L1
  ``RequestScheduler.execute``, L2 ``Backend.execute``, L3 a ``legacy_driver``
  cursor straight to one replica, L4 ``sqlengine`` ``Session.execute``, L5
  ``parse`` — recording one span per call;
* **micro-benchmarks** call one layer's public function with its neighbours
  stubbed out.

Nothing here feeds an end-to-end metric, and nothing under ``src/`` is edited:
every timer is in this file.
"""

from __future__ import annotations

import os
import queue
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import (
    Backend,
    ClusterDriverRuntime,
    Controller,
    ControllerConfig,
    FileLogStore,
    GroupCommit,
    LockManager,
    LogEntry,
    QueryCache,
    RecoveryLog,
    RoundRobinPolicy,
    WriteBroadcaster,
    classify,
)
from repro.cluster.locks import LockScope
from repro.cluster.wire import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterMessageType,
    make_connect_ok,
    make_execute,
    make_result,
    make_session_open_ok,
)
from repro.core import BootloaderConfig
from repro.dbapi import legacy_driver
from repro.dbapi.driver_factory import build_pydb_driver
from repro.dbserver import DatabaseServer, ServerConfig
from repro.errors import TransportError
from repro.experiments.environments import build_cluster, build_single_database
from repro.netsim import InMemoryNetwork
from repro.netsim.framing import decode_message, encode_message
from repro.netsim.transport import ChannelServer
from repro.obs import Trace
from repro.sqlengine import Engine
from repro.sqlengine.parser import parse

from perfbench.measure import median, quantile
from perfbench.spans import SpanRecorder
from perfbench.workloads import (
    READ_SQL,
    WRITE_SQL,
    BenchCluster,
    Op,
    SpeedMeter,
    WorkloadSpec,
    account_table_sql,
    build_and_warm,
    generate_ops,
    out_dir,
    read_op,
    result_ok,
    session_ops,
    stop_all,
    write_op,
)

Metric = Tuple[float, str]

#: name -> (unit, module the layer lives in). The single list of per-layer
#: metrics: BENCHMARK.json's ``per_layer`` and the README map are checked
#: against it by the smoke test.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "onion.l0_us": ("us", "cluster/driver.py ClusterCursor.execute (single session, traced run)"),
    "frontend.self_us": ("us", "cluster/driver.py + cluster/wire.py + netsim + cluster/controller.py front end"),
    "frontend.dedicated_self_us": ("us", "same, multiplexing=False (controller._serve_session)"),
    "scheduler.self_us": ("us", "cluster/scheduler.py over zero-cost stub backends, workload's own ops"),
    "replicas.path_us": ("us", "cluster/backend.py + dbapi + dbserver + sqlengine as the scheduler fans out"),
    "unattributed_us": ("us", "L0 minus the three self-times above"),
    "harness.span_overhead_us": ("us", "perfbench/spans.py (L0 with spans minus L0 without)"),
    "driver.self_us": ("us", "cluster/driver.py against a canned-reply controller"),
    "framing.encode_us": ("us", "netsim/framing.py encode_message"),
    "framing.decode_us": ("us", "netsim/framing.py decode_message"),
    "framing.bytes_per_op": ("bytes", "netsim/framing.py (client<->controller frames)"),
    "inmem.hop_us": ("us", "netsim/inmem.py InMemoryChannel send->recv"),
    "scheduler.stub_read_us": ("us", "cluster/scheduler.py RequestScheduler.execute, point SELECT"),
    "scheduler.stub_write_us": ("us", "cluster/scheduler.py RequestScheduler.execute, point UPDATE"),
    "classifier.cold_us": ("us", "cluster/classifier.py classify, never-seen text"),
    "classifier.warm_us": ("us", "cluster/classifier.py classify, repeated text"),
    "locks.scope_us": ("us", "cluster/locks.py acquire_scope + release_scope"),
    "locks.wait_share": ("fraction", "cluster/locks.py stats() over a 2-session burst"),
    "querycache.get_hit_us": ("us", "cluster/querycache.py QueryCache.get"),
    "querycache.put_us": ("us", "cluster/querycache.py QueryCache.put"),
    "querycache.invalidate_us": ("us", "cluster/querycache.py QueryCache.invalidate_tables"),
    "querycache.hit_ratio": ("ratio", "cluster/querycache.py stats() over a 2-session burst"),
    "loadbalancer.choose_us": ("us", "cluster/loadbalancer.py ReadPolicy.choose"),
    "broadcaster.fanout1_us": ("us", "cluster/broadcaster.py broadcast to 1 no-op backend"),
    "broadcaster.fanout3_us": ("us", "cluster/broadcaster.py broadcast to 3 no-op backends"),
    "broadcaster.parallel_efficiency": ("ratio", "cluster/broadcaster.py on real replicas"),
    "batcher.stmts_per_round": ("count", "cluster/scheduler.py WriteBatcher stats()"),
    "log.append_us": ("us", "cluster/recovery/log.py RecoveryLog.append on MemoryLogStore"),
    "logstore.append_fsync_us": ("us", "cluster/recovery/logstore.py FileLogStore.append + fsync"),
    "groupcommit.wait_us": ("us", "cluster/recovery/log.py GroupCommit.wait_durable"),
    "groupcommit.stmts_per_fsync": ("count", "cluster/recovery/log.py GroupCommit stats()"),
    "replication.round_us": ("us", "cluster/recovery/replication.py ReplicatedLogStore.replicate"),
    "replication.msgs_per_write": ("count", "cluster/recovery/replication.py frames per entry"),
    "backend.execute_read_us": ("us", "cluster/backend.py Backend.execute, point SELECT (L2)"),
    "backend.execute_write_us": ("us", "cluster/backend.py Backend.execute, point UPDATE (L2)"),
    "dbwire.self_us": ("us", "dbapi + dbserver + codec + transport (L3 - L4)"),
    "sqlengine.read_us": ("us", "sqlengine Session.execute, point SELECT (L4)"),
    "sqlengine.write_us": ("us", "sqlengine Session.execute, point UPDATE (L4)"),
    "sqlengine.parse_us": ("us", "sqlengine/parser.py parse (L5)"),
    "sqlengine.read_us_per_krow": ("us/krow", "sqlengine scan slope, 64 -> 1024 rows"),
    "tax.read_x": ("ratio", "L0 / L3, point SELECT"),
    "tax.write_x": ("ratio", "L0 / L3, point UPDATE"),
    "trace.overhead_pct": ("%", "obs/trace.py: tracing=True + trace=true vs off"),
    "span.coverage_pct": ("%", "obs/trace.py: top-level server spans / driver latency"),
    "bootloader.first_connect_ms": ("ms", "core/bootloader.py first Bootloader.connect"),
    "bootloader.stmt_overhead_us": ("us", "core/bootloader.py per statement vs legacy_driver"),
    "ops.read_p50_us": ("us", "2-session burst, reads"),
    "ops.write_p50_us": ("us", "2-session burst, writes / transactions"),
    "ops.p99_ms": ("ms", "2-session burst, all operations"),
    "calib.thread_handoff_us": ("us", "environment canary: queue.Queue hand-off between two threads"),
    "calib.spin_mops": ("Mops/s", "environment canary: counting loop, wall clock"),
    "calib.speed_x": ("ratio", "machine speed the run's times were converted with (1 = reference)"),
}

_clock = time.perf_counter
#: Units of the figures a traced run converts to reference time.
_TIME_UNITS = ("us", "ms", "us/krow")


class WrongResult(RuntimeError):
    """A replayed statement returned a wrong-shaped result."""


def _check(expectation: str, rows: Sequence[Any], rowcount: int, sql: str) -> None:
    if not result_ok(expectation, rows, rowcount):
        raise WrongResult(f"wrong-shaped result for {sql!r}: rows={rows!r} rowcount={rowcount}")


# -- timing helpers ---------------------------------------------------------------------


@dataclass
class Lane:
    """One entry point that a statement stream is replayed through."""

    name: str
    run_op: Callable[[Op], None]
    after: Optional[Callable[[Op], None]] = None
    #: False = keep only the duration list (no span per operation).
    spans: bool = True
    durations: List[float] = field(default_factory=list)

    @property
    def p50_us(self) -> float:
        return p50_us(self.durations)


def p50_us(seconds: Sequence[float]) -> float:
    return quantile(seconds, 0.5) * 1e6


def replay(
    recorder: SpanRecorder, meter: SpeedMeter, lanes: Sequence[Lane], ops: Sequence[Op],
    budget_s: float, chunk: int = 8, min_ops: int = 16,
) -> None:
    """Replay ``ops`` through every lane, ``chunk`` operations at a time, lane
    after lane, until the budget is spent and each lane ran ``min_ops``.

    The lanes take turns because their figures are subtracted from each other:
    the sandbox's speed drifts by +-20 % over seconds, and two levels measured
    one after the other would differ by that drift, not by a layer's cost.
    Each lane gets fresh operations; the list wraps around if it runs out.
    ``meter`` spins once per operation (reference time, see SpeedMeter)."""
    deadline = _clock() + budget_s
    position = 0
    while True:
        for lane in lanes:
            for index in range(position, position + chunk):
                op = ops[index % len(ops)]
                recorder.current_op = index
                begun = _clock()
                lane.run_op(op)
                ended = _clock()
                lane.durations.append(ended - begun)
                if lane.spans:
                    recorder.add(lane.name, begun, ended)
                if lane.after is not None:
                    lane.after(op)
                meter.spin()
            position += chunk
        if _clock() >= deadline and len(lanes[0].durations) >= min_ops:
            return


def bench(fn: Callable[[], Any], budget_s: float, inner: int = 1, min_samples: int = 7,
          meter: Optional[SpeedMeter] = None) -> float:
    """Median wall-clock microseconds per call of ``fn`` (``inner`` calls per
    sample, so the timer's own cost is spread over them); ``meter`` spins
    once per sample."""
    samples: List[float] = []
    deadline = _clock() + budget_s
    while True:
        begun = _clock()
        for _ in range(inner):
            fn()
        ended = _clock()
        samples.append((ended - begun) / inner)
        if meter is not None:
            meter.spin()
        if ended >= deadline and len(samples) >= min_samples:
            return median(samples) * 1e6


# -- stand-ins -------------------------------------------------------------------------

_CATALOG_ROWS = [
    ("accounts", None, "id", 1, "INTEGER", True),
    ("accounts", None, "balance", 2, "INTEGER", False),
]
_BALANCE_DESCRIPTION = [("balance", None, None, None, None, None, None)]


class _StubCursor:
    description: Optional[List[Tuple]] = None
    rowcount = -1
    _rows: List[Tuple] = []

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> None:
        if sql.startswith("SELECT table_name"):
            # The scheduler's primary-key probe (information_schema.columns).
            self.description, self._rows, self.rowcount = None, _CATALOG_ROWS, 2
        elif sql.startswith("SELECT"):
            self.description, self._rows, self.rowcount = _BALANCE_DESCRIPTION, [(100,)], 1
        else:
            self.description, self._rows, self.rowcount = None, [], 1

    def fetchall(self) -> List[Tuple]:
        return self._rows

    def close(self) -> None:
        pass


class _StubConnection:
    """A zero-cost replica: canned results, no wire, no engine."""

    threadsafety = 1
    closed = False
    driver_info = {"name": "perfbench-stub"}

    def cursor(self) -> _StubCursor:
        return _StubCursor()

    def close(self) -> None:
        self.closed = True


def stub_backends(count: int) -> List[Backend]:
    return [Backend(f"db{index + 1}", _StubConnection) for index in range(count)]


class _TimedBackend:
    """Stands where a Backend stands in a broadcast and times each call into
    the real one, as a child span of the broadcast that caused it."""

    def __init__(self, backend: Backend, recorder: SpanRecorder, parent: str) -> None:
        self._backend = backend
        self._recorder = recorder
        self._parent = parent
        self.name = backend.name

    def begin_request(self) -> None:
        self._backend.begin_request()

    def finish_request(self) -> None:
        self._backend.finish_request()

    def _timed(self, call: Callable[..., Any], *args: Any) -> Any:
        begun = _clock()
        try:
            return call(*args)
        finally:
            self._recorder.add(f"replica:{self.name}", begun, _clock(), parent=self._parent)

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None, track: bool = True) -> Any:
        return self._timed(self._backend.execute, sql, params, track)

    def execute_batch(self, statements: Any, track: bool = True) -> Any:
        return self._timed(self._backend.execute_batch, statements, track)


class ScratchReplicas:
    """Replicas of the workload's table outside any cluster, so the lower
    onion levels can write without diverging the cluster under test."""

    def __init__(self, count: int, rows: int) -> None:
        self.network = InMemoryNetwork()
        self.engines: List[Engine] = []
        self.servers: List[DatabaseServer] = []
        self.backends: List[Backend] = []
        self.urls: List[str] = []
        for index in range(count):
            engine = standalone_engine(f"scratch-db{index + 1}", rows)
            address = f"{engine.name}:5432"
            self.engines.append(engine)
            self.servers.append(
                DatabaseServer(engine, self.network, address, ServerConfig(name=engine.name)).start()
            )
            self.urls.append(f"pydb://{address}/appdb")
            self.backends.append(
                Backend(
                    f"db{index + 1}",
                    lambda url=self.urls[-1]: legacy_driver.connect(url, network=self.network),
                )
            )

    def close(self) -> None:
        for backend in self.backends:
            backend.close_connection()
        stop_all([server.stop for server in self.servers])


def standalone_engine(name: str, rows: int) -> Engine:
    engine = Engine(name=name)
    engine.create_database("appdb")
    session = engine.open_session("appdb")
    for sql in account_table_sql(rows):
        session.execute(sql)
    session.close()
    return engine


class _CannedController:
    """Speaks the controller's side of the cluster wire protocol with replies
    built by the ``cluster.wire`` builders and nothing behind them."""

    address = "canned-controller:25322"

    def __init__(self, network: InMemoryNetwork) -> None:
        self._server = ChannelServer(
            network.listen(self.address), self._serve, name="perfbench-canned"
        ).start()

    def _serve(self, channel: Any) -> None:
        connect = channel.recv(timeout=30.0)
        channel.send(
            make_connect_ok(
                "canned", CLUSTER_PROTOCOL_VERSION, "canned-channel",
                multiplexing=bool(connect.get("multiplex")),
            )
        )
        while True:
            try:
                message = channel.recv(timeout=None)
            except TransportError:
                return
            kind = message.get("type")
            if kind == ClusterMessageType.CLOSE:
                return
            if kind == ClusterMessageType.SESSION_OPEN:
                channel.send(make_session_open_ok(message["session_id"], message["request_id"]))
            elif kind == ClusterMessageType.EXECUTE:
                reply = make_result(["balance"], [[100]], 1)
                if "session_id" in message:
                    reply["session_id"] = message["session_id"]
                    reply["request_id"] = message["request_id"]
                channel.send(reply)

    def stop(self) -> None:
        self._server.stop()


# -- onion runners ------------------------------------------------------------------------


def cursor_runner(cursor: Any) -> Callable[[Op], None]:
    """L0 and L3: a DB-API cursor (the cluster driver's, or legacy_driver's)."""

    def run(op: Op) -> None:
        for sql, params, expectation in op[1]:
            cursor.execute(sql, params)
            _check(expectation, cursor.fetchall(), cursor.rowcount, sql)

    return run


def scheduler_runner(scheduler: Any) -> Callable[[Op], None]:
    """L1: ``RequestScheduler.execute`` with the transaction flag the
    controller's session loop would pass."""
    in_transaction = False

    def run(op: Op) -> None:
        nonlocal in_transaction
        for sql, params, expectation in op[1]:
            _columns, rows, rowcount = scheduler.execute(
                sql, params, in_transaction=in_transaction, session_id="perfbench-l1"
            )
            _check(expectation, rows, rowcount, sql)
            if expectation == "c":
                in_transaction = sql == "BEGIN"

    return run


def replica_path_runner(
    backends: Sequence[Any], broadcaster: WriteBroadcaster, batching: bool,
    recorder: Optional[SpanRecorder] = None, span: str = "",
) -> Callable[[Op], None]:
    """The calls the scheduler makes into the backend layer for one
    operation: an autocommit read goes to one replica, an autocommit write
    rides a batch round of one (when write batching is on), everything else
    is a scalar broadcast."""
    targets = list(backends)
    in_transaction = False

    def run(op: Op) -> None:
        nonlocal in_transaction
        for sql, params, expectation in op[1]:
            begun = _clock()
            if expectation == "r" and not in_transaction:
                result = targets[0].execute(sql, params)
            elif expectation == "w" and not in_transaction and batching:
                result = broadcaster.broadcast_batch(targets, [(sql, params)]).per_statement(0).result
            else:
                result = broadcaster.broadcast(targets, sql, params).result
            if recorder is not None:
                recorder.add(span, begun, _clock())
            if result is None:
                raise WrongResult(f"{sql!r} failed on every replica")
            _check(expectation, result[1], result[2], sql)
            if expectation == "c":
                in_transaction = sql == "BEGIN"

    return run


def backend_runner(backend: Backend) -> Callable[[Op], None]:
    """L2: ``Backend.execute`` on one replica."""

    def run(op: Op) -> None:
        for sql, params, expectation in op[1]:
            _columns, rows, rowcount = backend.execute(sql, params)
            _check(expectation, rows, rowcount, sql)

    return run


def engine_runner(session: Any) -> Callable[[Op], None]:
    """L4: ``sqlengine`` ``Session.execute``."""

    def run(op: Op) -> None:
        for sql, params, expectation in op[1]:
            result = session.execute(sql, params=params)
            _check(expectation, result.rows, result.rowcount, sql)

    return run


def parse_runner(op: Op) -> None:
    """L5: ``parse``."""
    for sql, _params, _expectation in op[1]:
        parse(sql)


# -- the traced run -------------------------------------------------------------------------


class TracedRun:
    """One workload's traced run: builds what it needs, measures, tears down.

    ``seconds`` is the measuring budget; each instrument gets a fixed share of
    it, so ``--quick`` shrinks every sample count together."""

    def __init__(self, spec: WorkloadSpec, seed: int, seconds: float, warmup_ops: int,
                 recorder: SpanRecorder) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.warmup_ops = warmup_ops
        self.recorder = recorder
        self.metrics: Dict[str, Metric] = {}
        #: One meter for the whole traced run: every lane, every micro-benchmark
        #: sample and the burst spin it, and every time is scaled by its speed.
        self.meter = SpeedMeter()
        self.attempted = 0
        self.problems: List[str] = []
        #: Run in reverse order when the run ends, then every server stop at once.
        self._cleanups: List[Callable[[], Any]] = []
        self._stops: List[Callable[[], Any]] = []
        self._tmp = tempfile.mkdtemp(prefix=f"traced-{spec.name}-", dir=out_dir())
        self._cleanups.append(lambda: shutil.rmtree(self._tmp, ignore_errors=True))

    def share(self, fraction: float) -> float:
        return self.seconds * fraction

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = (float(value), PER_LAYER[name][0])

    def run(self) -> Dict[str, Metric]:
        try:
            self._measure()
        finally:
            for cleanup in reversed(self._cleanups):
                cleanup()
            stop_all(self._stops)
        speed = self.meter.speed()
        self.put("calib.speed_x", speed)
        for name, (value, unit) in self.metrics.items():
            if unit in _TIME_UNITS:
                self.metrics[name] = (value * speed, unit)
        missing = sorted(set(PER_LAYER) - set(self.metrics))
        if missing:
            raise RuntimeError(f"traced run produced no value for {missing}")
        return self.metrics

    def bench(self, fn: Callable[[], Any], budget_s: float, inner: int = 1,
              min_samples: int = 7) -> float:
        return bench(fn, budget_s, inner, min_samples, self.meter)

    # -- orchestration ---------------------------------------------------------------

    def _measure(self) -> None:
        spec = self.spec
        cluster, _setup_s, warm = build_and_warm(spec, self.seed, self.warmup_ops)
        self._stops.append(lambda: self.problems.extend(cluster.close()))
        self.attempted += warm.attempted
        if warm.failed:
            raise WrongResult(f"{spec.name}: warm-up failed: {warm.errors[:3]}")
        scratch = ScratchReplicas(spec.replicas, spec.rows)
        self._stops.append(scratch.close)

        count = max(64, int(spec.generated_ops_per_second * self.seconds))
        own = generate_ops(spec, self.seed, "traced", 0, 1, count)
        rng = random.Random(f"{self.seed}/{spec.name}/typed")
        reads = [read_op(rng.randrange(spec.rows)) for _ in range(count)]
        writes = [
            write_op(rng.randrange(spec.rows), rng.randrange(1, 1_000_000)) for _ in range(count)
        ]
        stub = self._stub_controller()

        self._onion_budget(cluster, scratch, stub, own)
        self._typed_levels(cluster, scratch, stub, reads, writes)
        self._tracing_cost(cluster, own)
        self._burst(cluster)
        self._micro(own)
        self.problems.extend(cluster.verify())

    # -- the budget: L0 = frontend + scheduler + replica path + unattributed ------------------

    def _acker(self, cluster: BenchCluster) -> Callable[[Op], None]:
        def after(op: Op) -> None:
            self.attempted += 1
            cluster.note_acked(0, op[1])

        return after

    def _count(self, _op: Op) -> None:
        self.attempted += 1

    def _onion_budget(self, cluster: BenchCluster, scratch: ScratchReplicas,
                      stub: Controller, own: List[Op]) -> None:
        spec = self.spec
        acked = self._acker(cluster)
        # A connection of the other kind, on a runtime of its own so it
        # shares no trunk with the workload's sessions.
        other = ClusterDriverRuntime(name="perfbench-other").connect(
            cluster.env.client_url(), network=cluster.env.network,
            multiplexing=not spec.multiplexed,
        )
        self._cleanups.append(other.close)
        workload_run = cursor_runner(cluster.connections[0].cursor())
        other_run = cursor_runner(other.cursor())
        batching = cluster.controller.config.write_batching
        broadcaster = WriteBroadcaster()
        self._cleanups.append(broadcaster.close)

        l0 = Lane("L0:ClusterCursor.execute", workload_run, acked)
        # The same call without a span per operation: the difference is what
        # the span recorder itself costs.
        l0_bare = Lane("L0:no-spans", workload_run, acked, spans=False)
        l0_other = Lane("L0:dedicated" if spec.multiplexed else "L0:multiplexed", other_run, acked)
        l1 = Lane("L1:RequestScheduler.execute",
                  scheduler_runner(cluster.controller.scheduler), acked)
        # The scheduler layer alone: the product's own Controller wiring for
        # this workload's config, over replicas that cost nothing.
        l1_stub = Lane("L1:stub-backends", scheduler_runner(stub.scheduler), self._count)
        # The replica path: what the scheduler calls into the backend layer,
        # on real replicas, minus the same calls on no-op replicas (that pool
        # hop is already inside the stub scheduler's figure).
        real = Lane("replicas:real",
                    replica_path_runner(scratch.backends, broadcaster, batching), self._count)
        noop = Lane("replicas:no-op",
                    replica_path_runner(stub_backends(spec.replicas), broadcaster, batching),
                    self._count)
        replay(self.recorder, self.meter, [l0, l0_bare, l0_other, l1, l1_stub, real, noop], own, self.share(0.36))

        l0_mux, l0_dedicated = (l0, l0_other) if spec.multiplexed else (l0_other, l0)
        frontend = l0.p50_us - l1.p50_us
        replica_path = real.p50_us - noop.p50_us
        self.put("onion.l0_us", l0.p50_us)
        self.put("harness.span_overhead_us", l0.p50_us - l0_bare.p50_us)
        self.put("frontend.self_us", l0_mux.p50_us - l1.p50_us)
        self.put("frontend.dedicated_self_us", l0_dedicated.p50_us - l1.p50_us)
        self.put("scheduler.self_us", l1_stub.p50_us)
        self.put("replicas.path_us", replica_path)
        self.put("unattributed_us", l0.p50_us - frontend - l1_stub.p50_us - replica_path)

    def _stub_controller(self) -> Controller:
        """The workload's ControllerConfig over stub backends, never started:
        only its scheduler (and the log, cache, locks and pools wired into it)
        is used."""
        options = dict(self.spec.controller_options)
        if self.spec.durable_log:
            options.update(log_dir=os.path.join(self._tmp, "stub-log"), log_fsync=True)
        controller = Controller(
            ControllerConfig(controller_id="perfbench-stub", **options),
            InMemoryNetwork(), "perfbench-stub:25322",
            backends=stub_backends(self.spec.replicas),
        )
        self._cleanups.append(controller.stop)
        return controller

    # -- per statement type: L0, stub L1, L2..L5, tax, parallel efficiency ------------------------

    def _typed_levels(self, cluster: BenchCluster, scratch: ScratchReplicas,
                      stub: Controller, reads: List[Op], writes: List[Op]) -> None:
        recorder = self.recorder
        acked = self._acker(cluster)
        l0_run = cursor_runner(cluster.connections[0].cursor())
        stub_run = scheduler_runner(stub.scheduler)
        l2_run = backend_runner(scratch.backends[0])
        direct = legacy_driver.connect(scratch.urls[0], network=scratch.network)
        self._cleanups.append(direct.close)
        l3_run = cursor_runner(direct.cursor())
        session = scratch.engines[0].open_session("appdb")
        self._cleanups.append(session.close)
        l4_run = engine_runner(session)
        # Scan slope: the same point SELECT on 64 and on 1024 rows.
        small, large = (
            engine_runner(standalone_engine(f"slope-{rows}", rows).open_session("appdb"))
            for rows in (64, 1024)
        )

        def on_64_rows(op: Op) -> None:
            small(read_op(op[1][0][1]["i"] % 64))

        def on_1024_rows(op: Op) -> None:
            large(read_op(op[1][0][1]["i"] % 64))

        # Parallel efficiency: per-replica time inside a broadcast / its wall time.
        broadcaster = WriteBroadcaster()
        self._cleanups.append(broadcaster.close)
        timed = [_TimedBackend(backend, recorder, "broadcast") for backend in scratch.backends]
        broadcast_run = replica_path_runner(
            timed, broadcaster, cluster.controller.config.write_batching, recorder, "broadcast"
        )

        count = self._count
        read = {
            "l0": Lane("L0:read", l0_run, acked),
            "stub": Lane("L1:stub-backends:read", stub_run, count),
            "l2": Lane("L2:Backend.execute:read", l2_run, count),
            "l3": Lane("L3:legacy_driver:read", l3_run, count),
            "l4": Lane("L4:Session.execute:read", l4_run, count),
            "l5": Lane("L5:parse", parse_runner, count),
            "64": Lane("L4:64-rows", on_64_rows, count, spans=False),
            "1024": Lane("L4:1024-rows", on_1024_rows, count, spans=False),
        }
        write = {
            "l0": Lane("L0:write", l0_run, acked),
            "stub": Lane("L1:stub-backends:write", stub_run, count),
            "l2": Lane("L2:Backend.execute:write", l2_run, count),
            "l3": Lane("L3:legacy_driver:write", l3_run, count),
            "l4": Lane("L4:Session.execute:write", l4_run, count),
            "broadcast": Lane("broadcast:write", broadcast_run, count),
        }
        replay(recorder, self.meter, list(read.values()), reads, self.share(0.12))
        first_span = len(recorder.spans)
        replay(recorder, self.meter, list(write.values()), writes, self.share(0.10))

        self.put("scheduler.stub_read_us", read["stub"].p50_us)
        self.put("scheduler.stub_write_us", write["stub"].p50_us)
        self.put("backend.execute_read_us", read["l2"].p50_us)
        self.put("backend.execute_write_us", write["l2"].p50_us)
        self.put("tax.read_x", read["l0"].p50_us / read["l3"].p50_us)
        self.put("tax.write_x", write["l0"].p50_us / write["l3"].p50_us)
        self.put("dbwire.self_us", read["l3"].p50_us - read["l4"].p50_us)
        self.put("sqlengine.read_us", read["l4"].p50_us)
        self.put("sqlengine.write_us", write["l4"].p50_us)
        self.put("sqlengine.parse_us", read["l5"].p50_us)
        self.put("sqlengine.read_us_per_krow", (read["1024"].p50_us - read["64"].p50_us) / 0.96)
        spans = recorder.spans[first_span:]
        wall = sum(end - start for name, start, end, _, _ in spans if name == "broadcast")
        inside = sum(end - start for _n, start, end, parent, _ in spans if parent == "broadcast")
        self.put("broadcaster.parallel_efficiency", inside / wall if wall > 0 else 0.0)

    # -- in-program tracing: overhead and coverage -------------------------------------------------

    def _tracing_cost(self, cluster: BenchCluster, own: List[Op]) -> None:
        """The workload's own stream on an identical cluster with
        ``ControllerConfig(tracing=True)`` + ``trace="true"``, in chunks
        alternating with the untraced cluster."""
        traced_cluster, _s, warm = build_and_warm(
            self.spec, self.seed, min(self.warmup_ops, 200), phase="tracing-warmup",
            extra_options={"tracing": True}, connect_options={"trace": "true"},
        )
        self._stops.append(lambda: self.problems.extend(traced_cluster.close()))
        self.attempted += warm.attempted
        connection = traced_cluster.connections[0]
        on_run = cursor_runner(connection.cursor())
        off_run = cursor_runner(cluster.connections[0].cursor())
        on_ack, off_ack = self._acker(traced_cluster), self._acker(cluster)
        coverage: List[float] = []

        def on_after(op: Op) -> None:
            on_ack(op)
            last = connection.last_trace
            if last and last["latency_s"] > 0:
                top = [span for span in Trace.spans_from_wire(last["spans"]) if span.parent is None]
                coverage.append(sum(span.duration for span in top) / last["latency_s"])

        on = Lane("L0:tracing-on", on_run, on_after, spans=False)
        off = Lane("L0:tracing-off", off_run, off_ack, spans=False)
        replay(self.recorder, self.meter, [on, off], own, self.share(0.10))
        self.put("trace.overhead_pct", 100.0 * (on.p50_us - off.p50_us) / off.p50_us)
        self.put("span.coverage_pct", 100.0 * median(coverage))
        self.problems.extend(traced_cluster.verify())

    # -- a short untraced burst with the workload's own sessions: stats()-derived ratios -------------

    def _burst(self, cluster: BenchCluster) -> None:
        spec = self.spec
        seconds = self.share(0.08)
        before = cluster.controller.stats()
        count = max(1, int(spec.generated_ops_per_second * seconds))
        load = cluster.run_load(
            session_ops(spec, self.seed, "burst", cluster.sessions, count), seconds
        )
        after = cluster.controller.stats()
        self.attempted += load.attempted
        self.meter.absorb(load.meter)
        if load.failed:
            raise WrongResult(f"{spec.name}: burst failed: {load.errors[:3]}")

        def delta(section: str, *counters: str) -> float:
            """Growth over the burst of the scheduler's ``section`` counters
            (a section the workload's config leaves out is None: no growth)."""
            new, old = after["scheduler"][section], before["scheduler"][section]
            if new is None:
                return 0.0
            return float(sum(new[counter] - old[counter] for counter in counters))

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        self.put("locks.wait_share", ratio(
            delta("locks", "key_waits", "table_waits", "exclusive_waits"),
            delta("locks", "key_acquisitions", "table_acquisitions", "exclusive_acquisitions"),
        ))
        self.put("querycache.hit_ratio", ratio(
            delta("query_cache", "hits"), delta("query_cache", "hits", "misses")))
        self.put("batcher.stmts_per_round", ratio(
            delta("write_batching", "batched_statements"), delta("write_batching", "rounds")))
        self.put("groupcommit.stmts_per_fsync", ratio(
            delta("group_commit", "synced_appends"), delta("group_commit", "groups")))
        reads = load.latencies.get("read", [])
        writes = load.latencies.get("write", []) + load.latencies.get("tx", [])
        self.put("ops.read_p50_us", p50_us(reads))
        self.put("ops.write_p50_us", p50_us(writes))
        self.put("ops.p99_ms", quantile(load.all_latencies(), 0.99) * 1e3)

    # -- isolated micro-benchmarks --------------------------------------------------------------------

    def _micro(self, own: List[Op]) -> None:
        slot = self.share(0.009)
        spec = self.spec

        # netsim/framing.py on this workload's EXECUTE and RESULT frames.
        frames: List[Dict[str, Any]] = []
        sizes: List[int] = []
        for request_id, op in enumerate(own[:50], start=1):
            size = 0
            for sql, params, expectation in op[1]:
                execute = make_execute(sql, params, session_id="0" * 32, request_id=request_id)
                rows = [[100]] if expectation == "r" else []
                result = make_result(["balance"] if rows else [], rows, 1 if expectation != "c" else 0)
                result.update(session_id="0" * 32, request_id=request_id)
                frames += [execute, result]
                size += len(encode_message(execute)) + len(encode_message(result))
            sizes.append(size)
        encoded = [encode_message(frame) for frame in frames]
        self.put("framing.encode_us",
                 self.bench(lambda: [encode_message(frame) for frame in frames], slot) / len(frames))
        self.put("framing.decode_us",
                 self.bench(lambda: [decode_message(data) for data in encoded], slot) / len(frames))
        self.put("framing.bytes_per_op", median(sizes))

        # netsim/inmem.py: one hop = half an echo round trip across two threads.
        network = InMemoryNetwork()
        echo = ChannelServer(network.listen("echo:1"), _echo, name="perfbench-echo").start()
        self._stops.append(echo.stop)
        channel = network.connect("echo:1")
        self._cleanups.append(channel.close)
        frame = frames[0]

        def round_trip() -> None:
            channel.send(frame)
            channel.recv(timeout=10.0)

        hop = self.bench(round_trip, slot * 2, inner=10) / 2
        self.put("inmem.hop_us", hop)

        # cluster/driver.py alone: a canned controller answers; the two hops
        # of the exchange are subtracted.
        canned = _CannedController(network)
        self._stops.append(canned.stop)
        connection = ClusterDriverRuntime(name="perfbench-canned").connect(
            f"sequoia://{canned.address}/vdb", network=network, multiplexing=spec.multiplexed
        )
        self._cleanups.append(connection.close)
        cursor = connection.cursor()
        read_params = {"i": 7}

        def driver_call() -> None:
            cursor.execute(READ_SQL, read_params)
            cursor.fetchall()

        self.put("driver.self_us", self.bench(driver_call, slot * 2, inner=10) - 2 * hop)

        # cluster/classifier.py: repeated text hits its memo, fresh text does not.
        self.put("classifier.warm_us", self.bench(lambda: classify(READ_SQL), slot, inner=200))
        fresh = iter(range(10**9))
        stamp = f"{os.getpid()}_{time.time_ns()}"
        self.put("classifier.cold_us", self.bench(
            lambda: classify(f"SELECT balance FROM accounts WHERE id = $i AND {next(fresh)} < $p{stamp}"),
            slot, inner=5))

        # cluster/locks.py: an uncontended key scope.
        locks = LockManager()
        scope = LockScope(keys=frozenset({("accounts", 7)}))
        self.put("locks.scope_us",
                 self.bench(lambda: locks.release_scope(locks.acquire_scope(scope)), slot, inner=100))

        # cluster/querycache.py
        cache = QueryCache(max_entries=256)
        cached = (["balance"], [(100,)], 1)
        cache.put(READ_SQL, {"i": 7}, ("accounts",), cached)
        self.put("querycache.get_hit_us", self.bench(lambda: cache.get(READ_SQL, {"i": 7}), slot, inner=100))
        self.put("querycache.put_us",
                 self.bench(lambda: cache.put(READ_SQL, {"i": 7}, ("accounts",), cached), slot, inner=100))

        def put_then_invalidate() -> None:
            cache.put(READ_SQL, {"i": 7}, ("accounts",), cached)
            cache.invalidate_tables(("accounts",))

        self.put("querycache.invalidate_us",
                 self.bench(put_then_invalidate, slot, inner=100) - self.metrics["querycache.put_us"][0])

        # cluster/loadbalancer.py over two enabled backends.
        policy = RoundRobinPolicy()
        pair = stub_backends(2)
        self.put("loadbalancer.choose_us", self.bench(lambda: policy.choose(pair), slot, inner=100))

        # cluster/broadcaster.py: the fan-out machinery alone (no-op replicas,
        # minus the same calls made directly).
        broadcaster = WriteBroadcaster()
        self._cleanups.append(broadcaster.close)
        trio = stub_backends(3)
        write_params = {"b": 1, "i": 7}
        direct = self.bench(lambda: trio[0].execute(WRITE_SQL, write_params), slot, inner=50)
        self.put("broadcaster.fanout1_us",
                 self.bench(lambda: broadcaster.broadcast(trio[:1], WRITE_SQL, write_params), slot, inner=50)
                 - direct)
        self.put("broadcaster.fanout3_us",
                 self.bench(lambda: broadcaster.broadcast(trio, WRITE_SQL, write_params), slot, inner=10)
                 - 3 * direct)

        # cluster/recovery: memory append, file append + fsync, group-commit wait.
        memory_log = RecoveryLog()
        self.put("log.append_us", self.bench(
            lambda: memory_log.append(WRITE_SQL, write_params, write_tables=("accounts",)),
            slot, inner=50))
        store = FileLogStore(os.path.join(self._tmp, "fsync-log"), fsync_on_append=True)
        self._cleanups.append(store.close)
        indexes = iter(range(1, 10**9))

        def append_fsync() -> None:
            index = next(indexes)
            store.append(LogEntry(index=index, sql=WRITE_SQL, params=write_params,
                                  write_tables=("accounts",), table_seqs={"accounts": index}))

        self.put("logstore.append_fsync_us", self.bench(append_fsync, slot * 2))
        grouped_log = RecoveryLog(store=FileLogStore(os.path.join(self._tmp, "group-log")))
        self._cleanups.append(grouped_log.close)
        group_commit = GroupCommit(grouped_log)
        waits: List[float] = []
        deadline = _clock() + slot * 2
        while len(waits) < 7 or _clock() < deadline:
            entry = grouped_log.append(WRITE_SQL, write_params, write_tables=("accounts",))
            begun = _clock()
            group_commit.wait_durable(entry.index)
            waits.append(_clock() - begun)
            self.meter.spin()
        self.put("groupcommit.wait_us", p50_us(waits))

        self._replication(slot * 3, write_params)
        self._bootloader(slot * 2)
        self.put("calib.thread_handoff_us", thread_handoff_us(slot * 2, self.meter))
        self.put("calib.spin_mops", spin_mops(slot * 2))

    def _replication(self, budget_s: float, params: Dict[str, Any]) -> None:
        """cluster/recovery/replication.py: one entry per majority-ack round
        on a 3-controller in-memory HA group."""
        env = build_cluster(replicas=1, controllers=3, ha=True)
        self._stops.append(env.close)
        primary = env.controllers[0]
        store = primary.ha_store
        shipped_before = store.ha_stats()["entries_shipped"]
        rounds: List[float] = []
        deadline = _clock() + budget_s
        while len(rounds) < 7 or _clock() < deadline:
            primary.recovery_log.append(WRITE_SQL, params, write_tables=("accounts",))
            begun = _clock()
            store.replicate()
            rounds.append(_clock() - begun)
            self.meter.spin()
        self.put("replication.round_us", p50_us(rounds))
        shipped = store.ha_stats()["entries_shipped"] - shipped_before
        # Each shipped entry is one REPLICATE frame and one REPLICATE_OK back.
        self.put("replication.msgs_per_write", 2.0 * shipped / len(rounds))

    def _bootloader(self, budget_s: float) -> None:
        """core/bootloader.py, E12's method: first connect against later
        ones, and a statement through the delivered driver against the
        conventional one."""
        env = build_single_database(lease_time_ms=600_000)
        self._stops.append(env.close)
        env.admin.install_driver(
            build_pydb_driver("pydb-perfbench", driver_version=(1, 0, 0)), database=env.database_name
        )
        session = env.open_sql_session()
        for sql in account_table_sql(64):
            session.execute(sql)
        bootloader = env.new_bootloader(BootloaderConfig())
        begun = _clock()
        delivered = bootloader.connect(env.url)
        self.put("bootloader.first_connect_ms", (_clock() - begun) * 1e3)
        self._cleanups.append(delivered.close)
        conventional = legacy_driver.connect(env.url, network=env.network)
        self._cleanups.append(conventional.close)
        read_params = {"i": 7}

        def statement(cursor: Any) -> Callable[[], None]:
            def call() -> None:
                cursor.execute(READ_SQL, read_params)
                cursor.fetchall()

            return call

        via_bootloader, via_conventional = statement(delivered.cursor()), statement(conventional.cursor())
        # Alternate short samples so a noisy moment hits both sides.
        pairs = [
            (self.bench(via_bootloader, budget_s / 8, inner=5, min_samples=3),
             self.bench(via_conventional, budget_s / 8, inner=5, min_samples=3))
            for _ in range(4)
        ]
        self.put("bootloader.stmt_overhead_us", median([a - b for a, b in pairs]))


def _echo(channel: Any) -> None:
    while True:
        try:
            channel.send(channel.recv(timeout=None))
        except TransportError:
            return


def thread_handoff_us(budget_s: float, meter: Optional[SpeedMeter] = None) -> float:
    """Environment canary: one ``queue.Queue`` hand-off between two threads
    (half a ping-pong round trip), wall clock. No code of the program is
    involved."""
    ping: "queue.Queue[Optional[int]]" = queue.Queue()
    pong: "queue.Queue[int]" = queue.Queue()

    def echo() -> None:
        while True:
            item = ping.get()
            if item is None:
                return
            pong.put(item)

    thread = threading.Thread(target=echo, name="perfbench-pingpong")
    thread.start()
    try:
        def round_trip() -> None:
            ping.put(1)
            pong.get()

        return bench(round_trip, budget_s, inner=50, meter=meter) / 2
    finally:
        ping.put(None)
        thread.join()


def spin_mops(budget_s: float) -> float:
    """Environment canary: millions of counting-loop iterations per second
    on one thread."""
    def spin() -> None:
        count = 0
        for _ in range(20_000):
            count += 1

    return 20_000 / bench(spin, budget_s)
