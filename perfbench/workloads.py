"""The four workloads: cluster shape, seeded statement streams, the closed-loop
load generator and the output check.

Load model (README.md has the reasons): closed loop, one generator process,
one thread per session, sessions <= nproc; every statement is generated from
the seed *before* timing; session ``t`` writes only keys with
``key % sessions == t`` so the final value of every row is known.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterDriverRuntime, FileLogStore
from repro.experiments.environments import ClusterEnvironment, build_cluster

#: Everything the benchmark writes (temp log dirs, span dumps, result files)
#: lives here; perfbench/.gitignore ignores it.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def out_dir() -> str:
    """OUT_DIR, created on first use."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR

READ_SQL = "SELECT balance FROM accounts WHERE id = $i"
WRITE_SQL = "UPDATE accounts SET balance = $b WHERE id = $i"
INITIAL_BALANCE = 100

#: The calibration spin (README.md, "Reference time"): this many iterations of
#: a counting loop after every timed operation, and the rate at which the
#: reference machine — a quiet sandbox vCPU — runs them.
SPIN_ITERATIONS = 300
REFERENCE_SPIN_RATE = 50e6
_SPIN = range(SPIN_ITERATIONS)


class SpeedMeter:
    """Measures how fast the machine is *while* the benchmark runs.

    The sandbox's speed drifts by +-20 % over seconds and minutes (other
    tenants of the host); identical runs read 13-33 % apart in wall-clock
    time. Every loop of the benchmark therefore interleaves ``spin()`` —
    a fixed piece of pure-Python work, ~6 us — with the operations it times,
    and reports its times in *reference time*: wall-clock time multiplied by
    ``speed()``, i.e. what the clock would have read on a machine that runs
    the spin at exactly REFERENCE_SPIN_RATE."""

    __slots__ = ("spin_seconds", "spins")

    def __init__(self) -> None:
        self.spin_seconds = 0.0
        self.spins = 0

    def spin(self) -> None:
        begun = time.perf_counter()
        count = 0
        for _ in _SPIN:
            count += 1
        self.spin_seconds += time.perf_counter() - begun
        self.spins += 1

    def absorb(self, other: "SpeedMeter") -> None:
        self.spin_seconds += other.spin_seconds
        self.spins += other.spins

    def speed(self) -> float:
        """Machine speed relative to the reference (1.0 = reference, below 1
        = slower) over the time this meter's spins ran."""
        if self.spin_seconds <= 0:
            return 1.0
        return self.spins * SPIN_ITERATIONS / self.spin_seconds / REFERENCE_SPIN_RATE


#: One statement: (sql, params, expectation) — "r" must return exactly one
#: integer row, "w" must report rowcount 1, "c" (tx control) is unchecked.
Statement = Tuple[str, Dict[str, Any], str]
#: One operation: (kind, statements); kind is "read", "write" or "tx".
Op = Tuple[str, Tuple[Statement, ...]]


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    replicas: int
    rows: int
    sessions: int
    multiplexed: bool
    write_share: float
    transactional: bool
    durable_log: bool
    controller_options: Dict[str, Any]
    #: Fixed-count warm-up, sized to >= 3 s on the sandbox (README.md,
    #: "fast start"); counted in setup_s.
    warmup_ops: int
    #: Operations pre-generated per session per timed second (about 3x
    #: what the sandbox completes; a faster machine wraps around).
    generated_ops_per_second: int


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="point_read",
        why="middleware-bound point SELECTs on 64 rows: driver, codec, hops, mux queue, "
        "classifier and load balancer dominate; locks, broadcaster and log are bypassed",
        replicas=2, rows=64, sessions=2, multiplexed=True, write_share=0.0,
        transactional=False, durable_log=False, controller_options={},
        warmup_ops=4000, generated_ops_per_second=3000,
    ),
    WorkloadSpec(
        name="write_durable",
        why="the commit path: key-scope lock, broadcast to 3 replicas, batcher, "
        "file log append and fsync/group commit; nothing here is read traffic",
        replicas=3, rows=64, sessions=2, multiplexed=True, write_share=1.0,
        transactional=False, durable_log=True, controller_options={},
        warmup_ops=1200, generated_ops_per_second=1000,
    ),
    WorkloadSpec(
        name="scan_mix",
        why="engine-bound 80/20 point SELECT/UPDATE on 1024 rows: sqlengine scans every "
        "row per predicate, so engine work shows here and middleware work barely does",
        replicas=2, rows=1024, sessions=2, multiplexed=True, write_share=0.2,
        transactional=False, durable_log=False, controller_options={},
        warmup_ops=800, generated_ops_per_second=800,
    ),
    WorkloadSpec(
        name="tx_dedicated",
        why="one dedicated (non-multiplexed) session running BEGIN/SELECT/UPDATE/COMMIT "
        "with the query cache on: the session loop, exclusive lock and tx-control paths",
        replicas=2, rows=64, sessions=1, multiplexed=False, write_share=1.0,
        transactional=True, durable_log=False,
        controller_options={"query_cache_enabled": True},
        warmup_ops=600, generated_ops_per_second=800,
    ),
)

WORKLOADS_BY_NAME = {spec.name: spec for spec in WORKLOADS}


def account_table_sql(rows: int) -> List[str]:
    """The statements that create and fill ``accounts`` with ``rows`` rows."""
    statements = [
        "CREATE TABLE accounts (id INTEGER NOT NULL PRIMARY KEY, balance INTEGER NOT NULL)"
    ]
    for start in range(0, rows, 64):
        values = ", ".join(
            f"({key}, {INITIAL_BALANCE})" for key in range(start, min(start + 64, rows))
        )
        statements.append(f"INSERT INTO accounts (id, balance) VALUES {values}")
    return statements


def stop_all(stops: Sequence[Callable[[], Any]]) -> None:
    """Run every stop callable at once and wait for all of them: each
    ``ChannelServer.stop`` sits out its 0.1 s accept timeout, and a run tears
    down a dozen servers."""
    threads = [threading.Thread(target=stop, name="perfbench-stop") for stop in stops]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def session_count(spec: WorkloadSpec) -> int:
    """Sessions (= generator threads) for ``spec``: never more than nproc."""
    return max(1, min(spec.sessions, os.cpu_count() or 1))


def read_op(key: int) -> Op:
    return ("read", ((READ_SQL, {"i": key}, "r"),))


def write_op(key: int, balance: int) -> Op:
    return ("write", ((WRITE_SQL, {"b": balance, "i": key}, "w"),))


def generate_ops(
    spec: WorkloadSpec, seed: int, phase: str, session: int, sessions: int, count: int
) -> List[Op]:
    """``count`` operations for one session of one phase ("warmup",
    "round3", "traced", ...). The same arguments give the same list."""
    rng = random.Random(f"{seed}/{spec.name}/{phase}/{session}")
    own_keys = range(session, spec.rows, sessions)
    ops: List[Op] = []
    for _ in range(count):
        own = own_keys[rng.randrange(len(own_keys))]
        balance = rng.randrange(1, 1_000_000)
        if spec.transactional:
            ops.append(
                (
                    "tx",
                    (
                        ("BEGIN", {}, "c"),
                        (READ_SQL, {"i": own}, "r"),
                        (WRITE_SQL, {"b": balance, "i": own}, "w"),
                        ("COMMIT", {}, "c"),
                    ),
                )
            )
        elif rng.random() < spec.write_share:
            ops.append(write_op(own, balance))
        else:
            ops.append(read_op(rng.randrange(spec.rows)))
    return ops


def session_ops(
    spec: WorkloadSpec, seed: int, phase: str, sessions: int, count: int
) -> List[List[Op]]:
    """``count`` operations for each of ``sessions`` sessions of one phase."""
    return [generate_ops(spec, seed, phase, session, sessions, count) for session in range(sessions)]


def result_ok(expectation: str, rows: Sequence[Any], rowcount: int) -> bool:
    """The per-statement output check shared by every entry point."""
    if expectation == "r":
        return len(rows) == 1 and len(rows[0]) == 1 and type(rows[0][0]) is int
    if expectation == "w":
        return rowcount == 1
    return True


@dataclass
class LoadResult:
    """What one closed-loop run observed."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Per-operation latency in seconds, by operation kind.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: The machine's speed over exactly this load (one spin per operation).
    meter: SpeedMeter = field(default_factory=SpeedMeter)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def all_latencies(self) -> List[float]:
        return [value for values in self.latencies.values() for value in values]


class BenchCluster:
    """One workload's in-process cluster plus the state its check needs."""

    def __init__(self, spec: WorkloadSpec, extra_options: Optional[Dict[str, Any]] = None,
                 connect_options: Optional[Dict[str, Any]] = None) -> None:
        self.spec = spec
        self.sessions = session_count(spec)
        self.log_dir: Optional[str] = None
        options = dict(spec.controller_options)
        options.update(extra_options or {})
        if spec.durable_log:
            self.log_dir = tempfile.mkdtemp(prefix=f"log-{spec.name}-", dir=out_dir())
            options.update(log_dir=self.log_dir, log_fsync=True)
        self.env: ClusterEnvironment = build_cluster(
            replicas=spec.replicas, controllers=1, controller_options=options
        )
        self.controller = self.env.controllers[0]
        self._runtime = ClusterDriverRuntime()
        self._connect_options = dict(connect_options or {})
        self._connect_options.setdefault("multiplexing", spec.multiplexed)
        self.connections: List[Any] = []
        #: key -> last balance whose write the owning session saw acknowledged.
        self.expected: Dict[int, int] = {}
        self.acked_writes = [0] * self.sessions
        self.setup_log_entries = 0
        self._closed = False

    # -- set-up ------------------------------------------------------------------

    def load(self) -> None:
        """Schema + table load *through the controller*, then the session
        connects."""
        for _ in range(self.sessions):
            self.connections.append(
                self._runtime.connect(
                    self.env.client_url(), network=self.env.network, **self._connect_options
                )
            )
        cursor = self.connections[0].cursor()
        for sql in account_table_sql(self.spec.rows):
            cursor.execute(sql)
        self.expected = {key: INITIAL_BALANCE for key in range(self.spec.rows)}
        self.setup_log_entries = self.controller.recovery_log.last_index

    def note_acked(self, session: int, statements: Sequence[Statement]) -> None:
        """Record the writes of an operation that was acknowledged."""
        for _sql, params, expectation in statements:
            if expectation == "w":
                self.expected[params["i"]] = params["b"]
                self.acked_writes[session] += 1

    # -- closed-loop load ------------------------------------------------------------

    def run_load(
        self, ops_by_session: Sequence[Sequence[Op]], seconds: Optional[float]
    ) -> LoadResult:
        """Drive every session in a closed loop: for ``seconds`` (wrapping
        around its list), or once through its list when ``seconds`` is None.
        Returns the merged observations."""
        sessions = len(ops_by_session)
        barrier = threading.Barrier(sessions)
        partials: List[Optional[Tuple[float, float, LoadResult]]] = [None] * sessions

        def loop(index: int) -> None:
            partials[index] = self._session_loop(index, ops_by_session[index], seconds, barrier)

        gc.collect()
        threads = [
            threading.Thread(target=loop, args=(index,), name=f"perfbench-session{index}")
            for index in range(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = LoadResult()
        done = [partial for partial in partials if partial is not None]
        if len(done) != sessions:
            raise RuntimeError("a load-generator session thread died")
        merged.wall_s = max(end for _, end, _ in done) - min(start for start, _, _ in done)
        for _, _, part in done:
            merged.attempted += part.attempted
            merged.failed += part.failed
            merged.errors.extend(part.errors)
            merged.meter.absorb(part.meter)
            for kind, values in part.latencies.items():
                merged.latencies.setdefault(kind, []).extend(values)
        return merged

    def _session_loop(
        self, session: int, ops: Sequence[Op], seconds: Optional[float],
        barrier: threading.Barrier,
    ) -> Tuple[float, float, LoadResult]:
        connection = self.connections[session]
        cursor = connection.cursor()
        result = LoadResult()
        latencies = result.latencies
        spin = result.meter.spin
        clock = time.perf_counter
        count = len(ops)
        index = 0
        barrier.wait()
        started = clock()
        deadline = started + seconds if seconds is not None else float("inf")
        while True:
            if seconds is None and index >= count:
                break
            kind, statements = ops[index % count]
            index += 1
            ok = True
            begun = clock()
            if begun >= deadline:
                break
            try:
                for sql, params, expectation in statements:
                    cursor.execute(sql, params)
                    rows = cursor.fetchall()
                    if not result_ok(expectation, rows, cursor.rowcount):
                        ok = False
                        if len(result.errors) < 5:
                            result.errors.append(f"wrong-shaped result for {sql!r}: {rows!r}")
            except Exception as exc:  # noqa: BLE001 - the load loop counts failures, it must not die
                ok = False
                if len(result.errors) < 5:
                    result.errors.append(f"{type(exc).__name__}: {exc}")
                if kind == "tx":
                    try:
                        connection.rollback()
                    except Exception:  # noqa: BLE001 - already counted as failed
                        pass
            ended = clock()
            spin()
            result.attempted += 1
            if ok:
                latencies.setdefault(kind, []).append(ended - begun)
                self.note_acked(session, statements)
            else:
                result.failed += 1
        return started, clock(), result

    # -- output check ------------------------------------------------------------------

    def replica_rows(self) -> List[Dict[int, int]]:
        """``id -> balance`` as each replica's engine holds it."""
        tables = []
        for engine in self.env.replica_engines:
            session = engine.open_session(self.env.database_name)
            tables.append(dict(session.execute("SELECT id, balance FROM accounts").rows))
            session.close()
        return tables

    def verify(self) -> List[str]:
        """The output check, run with the cluster still open. Returns the
        problems found (empty = correct)."""
        problems: List[str] = []
        tables = self.replica_rows()
        for index, table in enumerate(tables):
            if table != self.expected:
                wrong = [
                    key for key in self.expected if table.get(key) != self.expected[key]
                ] + [key for key in table if key not in self.expected]
                problems.append(
                    f"{self.spec.name}: replica db{index + 1} differs from the acknowledged "
                    f"state on {len(wrong)} row(s), e.g. id {wrong[0]}: "
                    f"holds {table.get(wrong[0])!r}, expected {self.expected.get(wrong[0])!r}"
                )
        if any(table != tables[0] for table in tables[1:]):
            problems.append(f"{self.spec.name}: replicas hold different row sets")
        log = self.controller.recovery_log
        problems.extend(
            self._check_log("recovery log", log.last_index, log.entries_after(self.setup_log_entries))
        )
        return problems

    def _check_log(self, label: str, last_index: int, entries: Sequence[Any]) -> List[str]:
        acked = sum(self.acked_writes)
        if last_index != self.setup_log_entries + acked:
            return [
                f"{self.spec.name}: {label} holds {last_index} entries, expected "
                f"{self.setup_log_entries} set-up + {acked} acknowledged writes"
            ]
        final: Dict[int, int] = {}
        for entry in entries:
            final[entry.params["i"]] = entry.params["b"]
        stale = [key for key, balance in final.items() if self.expected[key] != balance]
        if stale:
            return [f"{self.spec.name}: {label} replays to a different balance for id {stale[0]}"]
        return []

    def close(self) -> List[str]:
        """Stop the cluster; for a durable log, reopen it from disk and check
        it too, then remove the temp dir. Returns the problems found."""
        if self._closed:
            return []
        self._closed = True
        problems: List[str] = []
        for connection in self.connections:
            try:
                connection.close()
            except Exception as exc:  # noqa: BLE001 - reported, teardown continues
                problems.append(f"{self.spec.name}: closing a session failed: {exc}")
        # What env.close() does, all servers at once.
        stop_all([self.env.group.stop] + [server.stop for server in self.env.replica_servers])
        if self.log_dir is not None:
            try:
                store = FileLogStore(self.log_dir)
                problems.extend(
                    self._check_log(
                        "reopened file log", store.last_index,
                        store.entries_after(self.setup_log_entries),
                    )
                )
                store.close()
            finally:
                shutil.rmtree(self.log_dir, ignore_errors=True)
        return problems


def build_and_warm(
    spec: WorkloadSpec, seed: int, warmup_ops: int, phase: str = "warmup",
    extra_options: Optional[Dict[str, Any]] = None,
    connect_options: Optional[Dict[str, Any]] = None,
) -> Tuple[BenchCluster, float, LoadResult]:
    """One full set-up — cluster build, schema, load through the controller,
    session connects, the fixed-count warm-up — and how long it took."""
    started = time.perf_counter()
    cluster = BenchCluster(spec, extra_options, connect_options)
    try:
        cluster.load()
        per_session = -(-warmup_ops // cluster.sessions)
        warm = cluster.run_load(session_ops(spec, seed, phase, cluster.sessions, per_session), None)
    except BaseException:
        cluster.close()
        raise
    return cluster, time.perf_counter() - started, warm
