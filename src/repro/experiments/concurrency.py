"""E15 — conflict-aware parallel write scheduling (docs/scheduling.md).

The paper's middleware earns its throughput by overlapping
non-conflicting requests across replicas; behind one global write lock
a hash-partitioned RAIDb-0/2 cluster gains capacity on paper and
serialises in practice.

``run_experiment`` measures exactly that: N writer threads, each
hammering its *own* table, on a partitioned cluster of latency-injected
backends (one table per backend, so disjoint writers touch disjoint
replicas). Under the single global lock the writers serialise and
aggregate throughput is one writer's; under conflict-aware table locks
they overlap and throughput scales with the partition count. A third
mode runs the conflict-aware manager on a *conflicting* workload (every
writer on one table) to show conflicting statements still serialise —
its throughput matches the global-lock baseline, not the disjoint one.

``run_divergence_experiment`` is the safety half: disjoint writer
threads race a real replicated cluster (hash-2 placement) while a
backend is disabled and resynced mid-workload, then every table's rows
are checksummed across its hosting replicas and the recovery log's
per-table sequence numbers are verified monotone. Parallelism must not
cost a single lost update or a diverged replica.

``run_key_experiment`` / ``run_key_divergence_experiment`` repeat the
pair one granularity step down (E16): writers on disjoint *rows of one
shared table*, where table locks serialise but ``(table, key)`` locks
overlap — throughput on synthetic latency backends, convergence on a
real cluster racing resyncs.

``run_session_scaling_experiment`` (E17) measures the massive-concurrency
front end (docs/wire.md): thousands of logical sessions multiplexed over
a handful of physical channels, with controller thread count bounded by
the run queue's fixed worker ceiling instead of growing one thread per
connection.
``run_group_commit_experiment`` is its durability half: concurrent
auto-commit writers on a real fsyncing ``FileLogStore``, per-statement
fsync vs one fsync per commit group.

``run_write_batching_experiment`` (E18) measures cross-session write
batching (docs/scheduling.md): concurrent disjoint auto-commit writers
on round-trip-charged backends, one broadcast round trip per statement
vs one per coalesced batch. ``run_batched_divergence_experiment`` is its
safety half (batched writes racing disable/resync cycles must still
converge), and ``run_admission_experiment`` drives a few statement workers
past their configured in-flight bound to show saturation degrades into
retryable ``server_busy`` rejections with bounded client latency — not
collapse — and zero lost writes.
"""

from __future__ import annotations

import contextlib
import functools
import tempfile
import threading
import time
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cluster.backend import Backend
from repro.cluster.broadcaster import WriteBroadcaster
from repro.cluster.classifier import ClassifiedStatement
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.locks import LockManager, LockScope
from repro.cluster.placement import create_placement
from repro.cluster.recovery import FileLogStore, GroupCommit, RecoveryLog
from repro.cluster.scheduler import RequestScheduler
from repro.experiments.environments import build_cluster
from repro.experiments.harness import ExperimentResult
from repro.experiments.partial_replication import cluster_checksums


class SimConnection:
    """Synthetic backend connection charging one fixed latency per
    *request* — per statement through ``cursor.execute`` /
    ``send_execute``, per batch through the native ``execute_batch`` /
    ``send_batch`` — so N coalesced statements cost one network round
    trip, exactly the economics write batching exploits.

    The split forms (``send_execute``, ``send_batch``) note when the
    request's reply is due and return its collect, which sleeps until
    then: a caller that sends to several of these before collecting any
    pays the latency once, as it would over a real network. The due time
    lives in the returned collect, never on the connection.

    ``threadsafety`` is the DB-API level it keeps. 2 (threads may share
    the connection) models a real DBMS replica, which processes
    disjoint-row statements concurrently, so the round trips the
    scheduler's lock scopes parallelise overlap. 1 holds the connection
    exclusively from a request's send until its collect returns, as the
    pydb connection's exchange lock does, so concurrent round trips
    serialise as they would on a real single connection.
    ``counters``, when given, is shared with the experiment so round
    trips survive reconnects."""

    def __init__(
        self, latency_s: float, counters: Optional[Dict[str, int]] = None, threadsafety: int = 2
    ) -> None:
        self._latency_s = latency_s
        self._counters = counters if counters is not None else {}
        self._exclusive = threading.Lock() if threadsafety < 2 else None
        self.closed = False
        self.driver_info = {"name": "latency-sim"}

    def _send(self, statements: int, reply: Any) -> Any:
        """Count one round trip carrying ``statements`` and return its
        collect, which returns ``reply`` once it is due."""
        if self._exclusive is not None:
            self._exclusive.acquire()
        self._counters["round_trips"] = self._counters.get("round_trips", 0) + 1
        self._counters["statements"] = self._counters.get("statements", 0) + statements
        return functools.partial(
            _reply_when_due, time.monotonic() + self._latency_s, reply, self._exclusive
        )

    def cursor(self) -> "_SimCursor":
        return _SimCursor(self)

    def send_execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Any:
        return self._send(1, (["ok"], [(1,)], 1))

    def send_batch(self, pairs: List[Tuple[str, Dict[str, Any]]]) -> Any:
        return self._send(len(pairs), [(["ok"], [[1]], 1) for _ in pairs])

    def execute_batch(
        self, pairs: List[Tuple[str, Dict[str, Any]]]
    ) -> List[Tuple[List[str], List[Any], int]]:
        return self.send_batch(pairs)()

    def close(self) -> None:
        self.closed = True


def _reply_when_due(due: float, reply: Any, held: Optional[threading.Lock]) -> Any:
    try:
        remaining = due - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        return reply
    finally:
        if held is not None:
            held.release()


class _SimCursor:
    description = [("ok", None, None, None, None, None, None)]
    rowcount = 1

    def __init__(self, connection: SimConnection) -> None:
        self._connection = connection

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None) -> None:
        self._connection.send_execute(sql, params)()

    def fetchall(self) -> List[Tuple[Any, ...]]:
        return [(1,)]

    def close(self) -> None:
        pass


def _run_threads(count: int, iterations: int, operation: Any, name: str = "writer") -> float:
    """``count`` threads released together, thread *i* calling
    ``operation(i, n)`` for n in ``range(iterations)``; returns the wall
    seconds from the release to the last join, or raises the first
    error a thread hit."""
    errors: List[Exception] = []
    barrier = threading.Barrier(count + 1)

    def body(index: int) -> None:
        barrier.wait()
        try:
            for iteration in range(iterations):
                operation(index, iteration)
        except Exception as exc:  # noqa: BLE001 - re-raised on the caller's thread
            errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(index,), name=f"{name}-{index}")
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall


def _run_writers(
    scheduler: RequestScheduler, targets: List[Tuple[str, int]], writes_per_writer: int
) -> float:
    """One writer per ``(table, row id)`` target, each updating its row
    ``writes_per_writer`` times; returns wall seconds."""

    def write(writer_index: int, write_index: int) -> None:
        table, row_id = targets[writer_index]
        scheduler.execute(
            f"UPDATE {table} SET v = $v WHERE id = $i", {"v": write_index, "i": row_id}
        )

    return _run_threads(len(targets), writes_per_writer, write)


def _lock_cells(scheduler: RequestScheduler, first: str, second: str) -> Dict[str, Any]:
    """Acquisition counts of two lock granularities plus their summed waits."""
    stats = scheduler.lock_manager.stats()
    return {
        f"{first}_acquisitions": stats[f"{first}_acquisitions"],
        f"{second}_acquisitions": stats[f"{second}_acquisitions"],
        "lock_waits": stats[f"{first}_waits"] + stats[f"{second}_waits"],
    }


def _compare_modes(
    experiment_id: str,
    title: str,
    writers: int,
    writes_per_writer: int,
    cost: Dict[str, float],
    modes: List[str],
    setup: Any,
) -> Tuple[ExperimentResult, float]:
    """The throughput-experiment skeleton: for each mode, build a stub
    scheduler, time the writers against it and add one row; then record
    ``speedup_x`` = wall of ``modes[0]`` (the baseline) over wall of
    ``modes[1]``. Returns the result and that speedup.

    ``cost`` is the injected-latency parameter the experiment charges.
    ``setup(mode, stack)`` returns ``(scheduler, targets, cells)`` —
    one ``(table, row id)`` per writer — and may register teardown on
    ``stack`` (run after the scheduler closes); ``cells(timing, wall)``
    builds the mode's row around the ``writes``/``wall_s``/
    ``writes_per_s`` cells in ``timing``."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={"writers": writers, "writes_per_writer": writes_per_writer, **cost},
    )
    writes = writers * writes_per_writer
    timings: Dict[str, float] = {}
    for mode in modes:
        with contextlib.ExitStack() as stack:
            scheduler, targets, cells = setup(mode, stack)
            stack.callback(scheduler.close)
            wall = _run_writers(scheduler, targets, writes_per_writer)
            timing = {
                "writes": writes,
                "wall_s": round(wall, 4),
                "writes_per_s": round(writes / wall, 1) if wall > 0 else "n/a",
            }
            result.add_row(mode=mode, **cells(timing, wall))
            timings[mode] = wall
    speedup = timings[modes[0]] / timings[modes[1]] if timings.get(modes[1]) else 0.0
    result.parameters["speedup_x"] = round(speedup, 2)
    return result, speedup


def _lock_granularity_cells(
    scheduler: RequestScheduler, writers: int, first: str, second: str
) -> Any:
    """The E15/E16 row: per-write cost plus the two lock granularities
    the experiment contrasts."""

    def cells(timing: Dict[str, Any], wall: float) -> Dict[str, Any]:
        return {
            "writers": writers,
            **timing,
            "per_write_ms": round(wall / timing["writes"] * 1000, 3),
            **_lock_cells(scheduler, first, second),
            "log_entries": scheduler.stats()["recovery_log_entries"],
        }

    return cells


class _GlobalLock(LockManager):
    """E15's baseline: one global write lock, whatever the footprint."""

    def scope(self, scope: LockScope) -> Any:
        return self.exclusive()


class UnbatchedScheduler(RequestScheduler):
    """The per-statement baseline: every write runs a round of one on its
    own thread, never queueing with siblings in the WriteBatcher. The
    lock, broadcast and latency experiments (E13b, E15–E17b) measure
    with it so that batching does not blur what they compare, and E18
    compares batching against it."""

    def _batch_eligible(self, statement: ClassifiedStatement) -> bool:
        return False


def run_experiment(
    writers: int = 4,
    writes_per_writer: int = 25,
    latency_ms: float = 3.0,
) -> ExperimentResult:
    """Disjoint-writer throughput: global lock vs conflict-aware locks.

    One latency-injected backend per writer, tables placed explicitly
    one-per-backend (pure partitioning), so the only serialisation point
    is the scheduler's own write ordering.
    """
    latency_s = latency_ms / 1000.0
    placement_spec = "explicit:" + ",".join(
        f"w{index}=sim{index + 1}" for index in range(writers)
    )
    # mode -> (lock manager, disjoint tables)
    modes = {
        "global-lock": (_GlobalLock, True),
        "conflict-aware": (LockManager, True),
        "conflict-aware/conflicting": (LockManager, False),
    }

    def setup(mode: str, stack: contextlib.ExitStack) -> Tuple[Any, ...]:
        lock_manager, disjoint = modes[mode]
        scheduler = UnbatchedScheduler(
            [
                Backend(f"sim{index + 1}", lambda: SimConnection(latency_s))
                for index in range(writers)
            ],
            RecoveryLog(),
            broadcaster=WriteBroadcaster(),
            placement=create_placement(placement_spec),
            lock_manager=lock_manager(),
        )
        targets = [(f"w{index}" if disjoint else "w0", index) for index in range(writers)]
        return scheduler, targets, _lock_granularity_cells(scheduler, writers, "table", "exclusive")

    result, speedup = _compare_modes(
        "E15",
        "Conflict-aware parallel write scheduling vs the global write lock",
        writers,
        writes_per_writer,
        {"latency_ms": latency_ms},
        list(modes),
        setup,
    )
    result.add_note(
        f"{writers} disjoint-table writers are {speedup:.1f}x faster under "
        f"conflict-aware table locks than under the single global write lock "
        f"({latency_ms}ms per-statement backend latency)"
    )
    result.add_note(
        "the conflicting workload (all writers on one table) stays serialised: "
        "table locks only parallelise what cannot conflict"
    )
    return result


def run_key_experiment(
    writers: int = 4,
    writes_per_writer: int = 25,
    latency_ms: float = 3.0,
) -> ExperimentResult:
    """Same-table disjoint-key throughput: table locks vs key locks.

    Every writer hammers its *own row* of one shared table, so table
    granularity serialises the whole workload while key granularity
    overlaps it — the one-step-down analogue of :func:`run_experiment`.
    A third mode puts every writer on the *same* row to show conflicting
    keys still serialise at the table-lock baseline's pace.

    The latency-injected backends expose no catalog to probe, so the
    key-level schedulers get the table's primary key via the
    ``primary_keys`` seed — and the baseline, given none, resolves no
    key and takes the table lock for every write.
    """
    latency_s = latency_ms / 1000.0
    # mode -> (primary_keys seed, disjoint rows)
    hot_key = {"hot": ("id", "INTEGER")}
    modes = {
        "table-locks": (None, True),
        "key-level": (hot_key, True),
        "key-level/conflicting": (hot_key, False),
    }

    def setup(mode: str, stack: contextlib.ExitStack) -> Tuple[Any, ...]:
        primary_keys, disjoint = modes[mode]
        scheduler = UnbatchedScheduler(
            [Backend("sim1", lambda: SimConnection(latency_s))],
            RecoveryLog(),
            broadcaster=WriteBroadcaster(),
            primary_keys=primary_keys,
        )
        targets = [("hot", index if disjoint else 0) for index in range(writers)]
        return scheduler, targets, _lock_granularity_cells(scheduler, writers, "key", "table")

    result, speedup = _compare_modes(
        "E16",
        "Key-level locking: same-table disjoint-key writers vs table locks",
        writers,
        writes_per_writer,
        {"latency_ms": latency_ms},
        list(modes),
        setup,
    )
    result.add_note(
        f"{writers} writers on disjoint rows of ONE table are {speedup:.1f}x "
        f"faster under (table, key) locks than under whole-table locks "
        f"({latency_ms}ms per-statement backend latency)"
    )
    result.add_note(
        "writers on the same row stay serialised: key locks only "
        "parallelise provably disjoint rows"
    )
    return result


def _create_table(scheduler: RequestScheduler, table: str, rows: int, initial_v: int) -> None:
    """``table (id PRIMARY KEY, v)`` holding rows ``0..rows-1``, all at ``initial_v``."""
    scheduler.execute(f"CREATE TABLE {table} (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)")
    for row in range(rows):
        scheduler.execute(
            f"INSERT INTO {table} (id, v) VALUES ($i, $v)", {"i": row, "v": initial_v}
        )


def _replicas_converged(checksums: Dict[str, Dict[str, Any]]) -> bool:
    """Every hosting replica of every table holds identical rows."""
    return all(len(set(copies.values())) == 1 for copies in checksums.values())


def _final_rows_ok(env: Any, table: str, rows: int, final_v: int) -> bool:
    """No lost updates: each of ``table``'s rows is written by exactly one
    writer, in order, so its last write must have won on every replica."""
    expected = [(row, final_v) for row in range(rows)]
    return all(
        sorted(engine.open_session(env.database_name).execute(f"SELECT id, v FROM {table}").rows)
        == expected
        for engine in env.replica_engines
    )


@contextlib.contextmanager
def _resync_race(
    experiment_id: str,
    title: str,
    backends: int,
    controller_options: Optional[Dict[str, Any]],
    tables: List[str],
    rows_per_table: int,
    initial_v: int,
    writers: int,
    writes_per_writer: int,
) -> Iterator[SimpleNamespace]:
    """The divergence-experiment skeleton: on a real cluster, create
    ``tables`` (``rows_per_table`` rows each), then run the writers —
    writer *i* on row *i* of ``tables[i % len(tables)]`` — while a
    second thread cycles ``db1`` through disable/resync: the resync
    takes the exclusive lock, draining and blocking the scoped writers
    (and any batch round they ride), then hands the write path back;
    racing it is the point. Yields the experiment's result plus what
    every such experiment checks — the entries logged during the race,
    whether each table's log sequences are strictly increasing, the
    replica checksums — with the cluster still up for further probes."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        parameters={
            "backends": backends,
            "writers": writers,
            "writes_per_writer": writes_per_writer,
        },
    )
    cluster = build_cluster(replicas=backends, controllers=1, controller_options=controller_options)
    with contextlib.closing(cluster) as env:
        controller = env.controllers[0]
        scheduler = controller.scheduler
        for table in tables:
            _create_table(scheduler, table, rows_per_table, initial_v)
        base_index = controller.recovery_log.last_index

        resync_errors: List[Exception] = []
        stop = threading.Event()

        def resync_cycler() -> None:
            try:
                while not stop.is_set():
                    controller.disable_backend("db1")
                    time.sleep(0.002)
                    controller.enable_backend("db1")
                    time.sleep(0.002)
            except Exception as exc:  # noqa: BLE001
                resync_errors.append(exc)

        cycler = threading.Thread(target=resync_cycler, name="resync-cycler")
        cycler.start()
        try:
            wall = _run_writers(
                scheduler,
                [(tables[index % len(tables)], index) for index in range(writers)],
                writes_per_writer,
            )
        finally:
            stop.set()
            cycler.join(timeout=30.0)
        if resync_errors:
            raise resync_errors[0]

        entries = controller.recovery_log.entries_after(base_index)
        per_table_seqs: Dict[str, List[int]] = {}
        for entry in entries:
            for table, seq in entry.table_seqs.items():
                per_table_seqs.setdefault(table, []).append(seq)
        checksums = cluster_checksums(env)
        yield SimpleNamespace(
            result=result,
            env=env,
            controller=controller,
            scheduler=scheduler,
            # The cells every divergence row starts from.
            writes=writers * writes_per_writer,
            logged=len(entries),
            wall_s=round(wall, 4),
            replicas_converged=_replicas_converged(checksums),
            per_table_order_ok=all(
                seqs == sorted(seqs) and len(seqs) == len(set(seqs))
                for seqs in per_table_seqs.values()
            ),
            checksums=checksums,
        )


def run_key_divergence_experiment(
    backends: int = 2,
    writers: int = 4,
    writes_per_writer: int = 30,
) -> ExperimentResult:
    """Disjoint-key writers on one shared table race a resync on a real
    replicated cluster; verify no lost updates, converged replicas, and
    per-table log order. The safety half of :func:`run_key_experiment` —
    key-parallel broadcasts may *execute* in different orders on
    different replicas, which is only sound because disjoint single-row
    statements commute; this measures that end to end."""
    with _resync_race(
        "E16b",
        "Replica convergence under same-table disjoint-key writers racing a resync",
        backends,
        None,
        ["hot"],
        writers,
        -1,
        writers,
        writes_per_writer,
    ) as race:
        lock_stats = race.scheduler.lock_manager.stats()
        race.result.add_row(
            writes=race.writes,
            logged=race.logged,
            wall_s=race.wall_s,
            replicas_converged=race.replicas_converged,
            final_rows_ok=_final_rows_ok(race.env, "hot", writers, writes_per_writer - 1),
            per_table_order_ok=race.per_table_order_ok,
            key_acquisitions=lock_stats["key_acquisitions"],
            exclusive_acquisitions=lock_stats["exclusive_acquisitions"],
        )
    race.result.add_note(
        "every replica holds identical final rows after disjoint-key "
        "writers on one table raced repeated disable/resync cycles; "
        "the recovery log's per-table sequences stay strictly increasing"
    )
    return race.result


def run_divergence_experiment(
    backends: int = 4,
    writers: int = 4,
    writes_per_writer: int = 30,
    rows_per_table: int = 5,
) -> ExperimentResult:
    """Disjoint writers race a resync on a real hash-2 cluster; verify
    no lost updates, converged replicas, and per-table log order."""
    with _resync_race(
        "E15b",
        "Replica convergence under concurrent disjoint writers racing a resync",
        backends,
        {"placement": "hash:2"},
        [f"conc_w{index}" for index in range(writers)],
        rows_per_table,
        0,
        writers,
        writes_per_writer,
    ) as race:
        placement = race.controller.placement
        race.result.add_row(
            writes=race.writes,
            logged=race.logged,
            wall_s=race.wall_s,
            replicas_converged=race.replicas_converged,
            per_table_order_ok=race.per_table_order_ok,
            hosts_match_placement=all(
                set(copies) == set(placement.hosts(table))
                for table, copies in race.checksums.items()
            ),
            **_lock_cells(race.scheduler, "table", "exclusive"),
        )
    race.result.add_note(
        "every hosting replica of every table holds identical rows after "
        "disjoint writers raced repeated disable/resync cycles, and the "
        "recovery log's per-table sequences are strictly increasing"
    )
    return race.result


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[position]


def run_session_scaling_experiment(
    sessions: int = 5000,
    channels: int = 8,
    baseline_sessions: int = 64,
    probe_sessions: int = 16,
    statements_per_probe: int = 5,
    worker_pool_size: int = 16,
    openers: int = 16,
) -> ExperimentResult:
    """E17 — logical sessions vs threads: multiplexed front end.

    Opens ``sessions`` logical sessions multiplexed over ``channels``
    physical channels per controller and measures how many *threads* the
    process grew by — the multiplexed front end stays at
    O(channels + worker_pool_size) while the thread-per-connection
    baseline grows one server handler (plus one client channel) per
    session, so the baseline is run at a modest ``baseline_sessions`` and
    its per-session thread cost extrapolated. A probe pool then issues
    reads across a sample of the open sessions to show the fixed worker
    pool still serves them with interactive latency (p50/p99 reported).
    """
    result = ExperimentResult(
        experiment_id="E17",
        title="Massive-concurrency front end: multiplexed sessions vs thread-per-connection",
        parameters={
            "sessions": sessions,
            "channels": channels,
            "baseline_sessions": baseline_sessions,
            "worker_pool_size": worker_pool_size,
            "probe_sessions": probe_sessions,
        },
    )

    @contextlib.contextmanager
    def open_sessions(
        name: str, count: int, controller_options: Optional[Dict[str, Any]], **options: Any
    ) -> Iterator[SimpleNamespace]:
        """A fresh 2-replica cluster with ``count`` driver connections
        opened from ``openers`` threads, and the thread growth they cost."""
        cluster = build_cluster(replicas=2, controllers=1, controller_options=controller_options)
        with contextlib.closing(cluster) as env:
            controller = env.controllers[0]
            _create_table(controller.scheduler, "scale_t", 2, 1)  # the probes read row 1
            driver = ClusterDriverRuntime(name=name)
            connections: List[Any] = [None] * count

            def open_one(opener: int, step: int) -> None:
                index = step * openers + opener
                if index < count:
                    connections[index] = driver.connect(
                        env.client_url(), network=env.network, **options
                    )

            threads_before = threading.active_count()
            open_wall = _run_threads(openers, -(-count // openers), open_one, name="opener")
            yield SimpleNamespace(
                controller=controller,
                driver=driver,
                connections=connections,
                open_wall=open_wall,
                thread_delta=threading.active_count() - threads_before,
            )
            for connection in connections:
                connection.close()

    with open_sessions(
        "mux-scale",
        sessions,
        {"worker_pool_size": worker_pool_size},
        mux_channels_per_host=channels,
    ) as mux:
        connections = mux.connections
        assert all(connection.multiplexed for connection in connections)

        # Latency probe across a sample of the open sessions
        # (list.append is atomic, so the probes share one list).
        latencies: List[float] = []
        sample_stride = max(1, sessions // (probe_sessions * statements_per_probe))

        def probe(probe_index: int, step: int) -> None:
            connection = connections[
                ((probe_index * statements_per_probe + step) * sample_stride) % sessions
            ]
            cursor = connection.cursor()
            started = time.perf_counter()
            cursor.execute("SELECT v FROM scale_t WHERE id = 1")
            cursor.fetchall()
            latencies.append((time.perf_counter() - started) * 1000.0)

        _run_threads(probe_sessions, statements_per_probe, probe, name="probe")

        # Pipelining: one session fires a burst without per-statement
        # round-trip waits; all replies come back in order.
        pipeline_replies = connections[0].execute_pipeline(
            ["SELECT v FROM scale_t WHERE id = 1"] * 20
        )
        pipeline_ok = len(pipeline_replies) == 20 and all(
            reply["rows"] == [[1]] for reply in pipeline_replies
        )

        # Sampled after the probe load so the lazily started run-queue
        # workers are visible — they stay bounded by worker_pool_size.
        front_end = mux.controller.stats()["front_end"]
        result.add_row(
            mode="multiplexed",
            sessions=sessions,
            physical_channels=mux.driver.mux_channel_count(),
            thread_delta=mux.thread_delta,
            threads_per_session=round(mux.thread_delta / sessions, 4),
            open_wall_s=round(mux.open_wall, 3),
            controller_worker_threads=front_end["worker_threads"],
            controller_reader_threads=front_end["reader_threads"],
            active_sessions=mux.controller.stats()["active_sessions"],
            probe_p50_ms=round(_percentile(latencies, 0.50), 3),
            probe_p99_ms=round(_percentile(latencies, 0.99), 3),
            pipeline_ok=pipeline_ok,
        )

    # The thread-per-connection baseline: the same driver, opting out of
    # multiplexing per connection.
    with open_sessions("dedicated-scale", baseline_sessions, None, multiplexing=False) as dedicated:
        assert not any(connection.multiplexed for connection in dedicated.connections)
        threads_per_session = dedicated.thread_delta / baseline_sessions
        result.add_row(
            mode="thread-per-connection",
            sessions=baseline_sessions,
            physical_channels=baseline_sessions,
            thread_delta=dedicated.thread_delta,
            threads_per_session=round(threads_per_session, 4),
            projected_threads_at_target=int(threads_per_session * sessions),
            active_sessions=dedicated.controller.stats()["active_sessions"],
        )

    result.add_note(
        f"{sessions} logical sessions ride {channels} multiplexed channels with a "
        f"bounded thread footprint; thread-per-connection needs "
        f"~{threads_per_session:.1f} threads per session "
        f"(~{int(threads_per_session * sessions)} at {sessions} sessions)"
    )
    return result


def run_write_batching_experiment(
    writers: int = 8,
    writes_per_writer: int = 20,
    round_trip_ms: float = 2.0,
) -> ExperimentResult:
    """E18 — cross-session write batching: coalesced broadcast round trips.

    Concurrent disjoint-table auto-commit writers against one backend
    whose connection charges a fixed latency per round trip (see
    :class:`SimConnection`). Per-statement dispatch pays one round
    trip per write, serialised on the connection; with write batching the
    WriteBatcher coalesces whatever queued while the previous round was
    in flight into one ``execute_batch`` round trip — batching emerges
    from the round-trip latency itself, exactly as group-commit batching
    emerges from fsync latency."""
    latency_s = round_trip_ms / 1000.0

    def setup(mode: str, stack: contextlib.ExitStack) -> Tuple[Any, ...]:
        counters: Dict[str, int] = {}
        batched = mode == "batched"
        scheduler = (RequestScheduler if batched else UnbatchedScheduler)(
            [Backend("sim1", lambda: SimConnection(latency_s, counters, threadsafety=1))],
            RecoveryLog(),
            broadcaster=WriteBroadcaster(),
        )

        def cells(timing: Dict[str, Any], wall: float) -> Dict[str, Any]:
            # The PK probe per table costs one round trip too; count only
            # the write statements when reporting coalescing.
            round_trips = counters.get("round_trips", 0)
            row = {
                **timing,
                "round_trips": round_trips,
                "writes_per_round_trip": round(timing["writes"] / round_trips, 2)
                if round_trips
                else "n/a",
                "log_entries": scheduler.stats()["recovery_log_entries"],
            }
            if batched:
                batch_stats = scheduler.stats()["write_batching"]
                row["batch_rounds"] = batch_stats["rounds"]
                row["avg_batch_size"] = batch_stats["avg_batch_size"]
                row["max_batch_size"] = batch_stats["max_batch_size"]
            return row

        return scheduler, [(f"wb_w{index}", index) for index in range(writers)], cells

    result, speedup = _compare_modes(
        "E18",
        "Cross-session write batching: one round trip per batch, not per statement",
        writers,
        writes_per_writer,
        {"round_trip_ms": round_trip_ms},
        ["per-statement", "batched"],
        setup,
    )
    result.add_note(
        f"{writers} disjoint auto-commit writers are {speedup:.1f}x faster when "
        f"concurrent writes coalesce into batched round trips "
        f"({round_trip_ms}ms per round trip), with every reply still held until "
        "its write is applied and logged"
    )
    return result


def run_batched_divergence_experiment(
    backends: int = 4,
    writers: int = 4,
    writes_per_writer: int = 30,
    rows_per_table: int = 5,
) -> ExperimentResult:
    """E18b — the safety half of :func:`run_write_batching_experiment`:
    batched disjoint writers race disable/resync cycles on a real hash-2
    cluster (the E15b harness: a controller always batches); every
    write must survive into the log, every replica must converge, and
    per-table log order must stay strictly increasing."""
    with _resync_race(
        "E18b",
        "Replica convergence under batched writers racing a resync",
        backends,
        {"placement": "hash:2"},
        [f"batched_w{index}" for index in range(writers)],
        rows_per_table,
        0,
        writers,
        writes_per_writer,
    ) as race:
        batch_stats = race.scheduler.stats()["write_batching"]
        race.result.add_row(
            writes=race.writes,
            logged=race.logged,
            all_writes_logged=race.logged == race.writes,
            wall_s=race.wall_s,
            replicas_converged=race.replicas_converged,
            per_table_order_ok=race.per_table_order_ok,
            batch_rounds=batch_stats["rounds"],
            batched_statements=batch_stats["batched_statements"],
        )
    race.result.add_note(
        "every hosting replica holds identical rows after batched disjoint "
        "writers raced repeated disable/resync cycles; no write was lost to "
        "a batch round and per-table log sequences stay strictly increasing"
    )
    return race.result


def run_admission_experiment(
    clients: int = 24,
    writes_per_client: int = 15,
    worker_pool_size: int = 4,
    max_in_flight: int = 8,
) -> ExperimentResult:
    """E18c — admission control under saturation: a client herd several
    times the controller's in-flight bound hammers one table through the
    multiplexed front end. Excess EXECUTEs are refused with retryable
    ``server_busy`` (never queued unboundedly), drivers back off and
    retry, and the run must show bounded client-observed latency and zero
    lost writes — saturation degrades, it does not collapse."""
    result = ExperimentResult(
        experiment_id="E18c",
        title="Admission control: bounded latency and no lost writes at saturation",
        parameters={
            "clients": clients,
            "writes_per_client": writes_per_client,
            "worker_pool_size": worker_pool_size,
            "max_in_flight_statements": max_in_flight,
        },
    )
    cluster = build_cluster(
        replicas=2,
        controllers=1,
        controller_options={
            "worker_pool_size": worker_pool_size,
            "max_in_flight_statements": max_in_flight,
            "max_session_queue_depth": 4,
        },
    )
    with contextlib.closing(cluster) as env:
        controller = env.controllers[0]
        _create_table(controller.scheduler, "adm", clients, -1)
        base_index = controller.recovery_log.last_index
        driver = ClusterDriverRuntime(name="admission-herd")
        connections = [
            driver.connect(
                env.client_url(),
                network=env.network,
                busy_retries=10_000,
                busy_backoff_ms=1.0,
                busy_backoff_cap_ms=20.0,
            )
            for _ in range(clients)
        ]
        cursors = [connection.cursor() for connection in connections]
        latencies: List[float] = []  # shared: list.append is atomic

        def client_write(client_index: int, write_index: int) -> None:
            started = time.perf_counter()
            cursors[client_index].execute(
                "UPDATE adm SET v = $v WHERE id = $i", {"v": write_index, "i": client_index}
            )
            latencies.append((time.perf_counter() - started) * 1000.0)

        wall = _run_threads(clients, writes_per_client, client_write, name="client")

        writes = clients * writes_per_client
        logged = len(controller.recovery_log.entries_after(base_index))
        converged = _replicas_converged(cluster_checksums(env))
        rows_ok = _final_rows_ok(env, "adm", clients, writes_per_client - 1)
        front_end = controller.stats()["front_end"]
        retries = sum(connection.stats()["server_busy_retries"] for connection in connections)
        backoff_s = sum(
            connection.stats()["busy_backoff_seconds"] for connection in connections
        )
        for connection in connections:
            connection.close()
        result.add_row(
            writes=writes,
            logged=logged,
            all_writes_logged=logged == writes,
            wall_s=round(wall, 4),
            p50_ms=round(_percentile(latencies, 0.50), 3),
            p99_ms=round(_percentile(latencies, 0.99), 3),
            server_busy_rejections=front_end["server_busy_rejections"],
            server_busy_retries=retries,
            busy_backoff_s=round(backoff_s, 4),
            in_flight_peak=front_end["in_flight_peak"],
            replicas_converged=converged,
            final_rows_ok=rows_ok,
        )
        result.add_note(
            f"{clients} clients against max_in_flight_statements={max_in_flight}: "
            "excess statements are refused with retryable server_busy, the "
            "in-flight peak respects the bound, and every write survives — "
            "bounded degradation instead of collapse"
        )
    return result


class _RotationalFsyncStore(FileLogStore):
    """A :class:`FileLogStore` whose fsync charges a realistic latency.

    The container's filesystem acknowledges fsync in ~0.1ms — orders of
    magnitude faster than the commodity rotational disks of the paper's
    era (5–10ms) or a networked volume. Like the latency-injected
    backends above, this store re-introduces the cost the experiment is
    about, identically in both modes: a real ``os.fsync`` plus a fixed
    sleep per fsync *call* (not per entry), so batching N appends into
    one fsync saves N-1 latencies exactly as it would on real hardware.
    """

    def __init__(self, directory: str, fsync_on_append: bool, fsync_latency_s: float) -> None:
        super().__init__(directory, fsync_on_append=fsync_on_append)
        self._fsync_latency_s = fsync_latency_s

    def _fsync_handle(self) -> None:
        super()._fsync_handle()
        if self._fsync_latency_s > 0:
            time.sleep(self._fsync_latency_s)


def run_group_commit_experiment(
    writers: int = 8,
    writes_per_writer: int = 25,
    fsync_latency_ms: float = 2.0,
) -> ExperimentResult:
    """E17b — group commit: one fsync per group vs one per statement.

    Concurrent auto-commit writers on disjoint tables, recovery log on a
    fsyncing :class:`FileLogStore` with a rotational-disk fsync cost
    (see :class:`_RotationalFsyncStore`). The baseline fsyncs inside
    every append (while the scheduler's accounting lock is held, so the
    fsyncs serialise everything behind them); group commit appends
    without fsync and batches durability *outside* the lock — the first
    waiter fsyncs for everyone appended so far. Same durability
    guarantee (no reply before its entry is synced), a fraction of the
    fsyncs.
    """
    def setup(mode: str, stack: contextlib.ExitStack) -> Tuple[Any, ...]:
        grouped = mode == "group-commit"
        store = _RotationalFsyncStore(
            stack.enter_context(tempfile.TemporaryDirectory(prefix="e17b-log-")),
            fsync_on_append=not grouped,
            fsync_latency_s=fsync_latency_ms / 1000.0,
        )
        log = RecoveryLog(store)
        stack.callback(log.close)
        group_commit = GroupCommit(log) if grouped else None
        scheduler = UnbatchedScheduler(
            [Backend("sim1", lambda: SimConnection(0.0))],
            log,
            broadcaster=WriteBroadcaster(),
            group_commit=group_commit,
        )

        def cells(timing: Dict[str, Any], wall: float) -> Dict[str, Any]:
            store_stats = store.stats()
            fsyncs = store_stats["fsyncs"]
            row = {
                **timing,
                "fsyncs": fsyncs,
                "writes_per_fsync": round(timing["writes"] / fsyncs, 2) if fsyncs else "n/a",
                "log_entries": store_stats["last_index"],
            }
            if group_commit is not None:
                row["fsync_groups"] = group_commit.stats()["groups"]
            return row

        return scheduler, [(f"gc_w{index}", index) for index in range(writers)], cells

    result, speedup = _compare_modes(
        "E17b",
        "Group commit: batched recovery-log fsyncs under concurrent writers",
        writers,
        writes_per_writer,
        {"fsync_latency_ms": fsync_latency_ms},
        ["fsync-per-statement", "group-commit"],
        setup,
    )
    result.add_note(
        f"{writers} concurrent auto-commit writers are {speedup:.1f}x faster when "
        "durability is batched into group fsyncs, with every reply still held "
        "until its log entry is on disk"
    )
    return result
