"""E12 — bootloader overhead: connect and per-statement latency, plus
dispatch-layer micro-checks (wire-frame shaping, batched dispatch) and
the tracing-overhead gate from docs/observability.md."""

import time

from benchmarks.conftest import run_and_report
from repro.cluster.backend import Backend
from repro.cluster.broadcaster import WriteBroadcaster
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.wire import make_result
from repro.experiments import overhead


def test_bench_e12_overhead(benchmark):
    result = run_and_report(
        benchmark, overhead.run_experiment, statement_count=200, connect_count=20
    )
    connect_row = result.find_row(metric="connect latency (ms)")
    assert connect_row["bootloader_first"] >= connect_row["bootloader_subsequent"]

    # Wire-frame overhead: make_result must not copy an already
    # list-of-lists row set — the controller's hot reply path builds one
    # frame per statement, and the row copy was pure overhead whenever
    # the scheduler already produced the wire shape.
    shaped = [[1, "a"], [2, "b"]]
    assert make_result(["id", "name"], shaped, 2)["rows"] is shaped
    mixed = [(1, "a"), (2, "b")]
    reshaped = make_result(["id", "name"], mixed, 2)["rows"]
    assert reshaped is not mixed and reshaped == [[1, "a"], [2, "b"]]


class _CountingConnection:
    """Fake DB-API connection counting how it is driven: ``calls`` is
    per-statement executes, ``batch_calls`` native batch round trips."""

    threadsafety = 1

    def __init__(self):
        self.calls = 0
        self.batch_calls = 0
        self.closed = False
        self.driver_info = {"name": "counting"}

    def cursor(self):
        connection = self

        class _Cursor:
            description = [("ok", None, None, None, None, None, None)]
            rowcount = 1

            def execute(self, sql, params=None):
                connection.calls += 1

            def fetchall(self):
                return [[1]]

            def close(self):
                pass

        return _Cursor()

    def execute_batch(self, pairs):
        self.batch_calls += 1
        return [(["ok"], [[1]], 1) for _ in pairs]

    def close(self):
        self.closed = True


def test_bench_batch_dispatch(benchmark):
    """Batched dispatch micro-bench: broadcasting N statements as one
    batch costs exactly one native round trip on the connection, where
    statement-at-a-time dispatch pays N (each a batch of one) — counted,
    not timed, so a loaded CI runner cannot flake it."""
    BATCH = 16
    connection = _CountingConnection()
    backend = Backend("b1", lambda: connection)
    broadcaster = WriteBroadcaster(parallel=False)
    statements = [(f"UPDATE t SET v = {i} WHERE id = {i}", None) for i in range(BATCH)]

    def dispatch_batch():
        return broadcaster.broadcast_batch([backend], statements)

    batched = benchmark.pedantic(dispatch_batch, rounds=1, iterations=1)
    assert connection.batch_calls == 1
    assert connection.calls == 0
    assert batched.statement_count == BATCH
    assert all(
        outcome.ok for per_backend in batched.outcomes for outcome in per_backend
    )
    # Statement-major re-slicing matches the scalar outcome shape.
    assert batched.per_statement(0).result == (["ok"], [[1]], 1)

    for sql, params in statements:
        assert broadcaster.broadcast([backend], sql, params).result == (["ok"], [[1]], 1)
    # One backend round trip per scalar statement, on top of the batch's one.
    assert connection.calls + connection.batch_calls == 1 + BATCH
    stats = broadcaster.stats()
    # Each broadcast (batched or not) counts as one fan-out round.
    assert stats["broadcasts"] == 1 + BATCH
    assert stats["batched_statements"] == 2 * BATCH
    broadcaster.close()


def _traced_bench_cluster(tracing: bool):
    """A real two-replica cluster (in-memory network, real SQL engine
    backends) + driver connection for the tracing-overhead gate; returns
    ``(env, controller, connection)``."""
    from repro.experiments.environments import build_cluster

    env = build_cluster(
        replicas=2,
        controllers=1,
        controller_options={"tracing": True} if tracing else None,
    )
    runtime = ClusterDriverRuntime(name=f"bench-trace-{'on' if tracing else 'off'}")
    options = {"trace": "true"} if tracing else {}
    connection = runtime.connect(env.client_url(), network=env.network, **options)
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE bench_events (id INT PRIMARY KEY, v TEXT)")
    # Pre-seeded rows so the measured workload is UPDATE/SELECT only:
    # steady-state statements whose cost does not grow with the rounds
    # (INSERTs would grow the table and skew later rounds slower).
    for row in range(50):
        cursor.execute(f"INSERT INTO bench_events VALUES ({row}, 'seed')")
    return env, env.controllers[0], connection


def test_bench_tracing_overhead(benchmark):
    """Tracing-overhead gate (docs/observability.md), on the real
    cluster stack — in-memory network, real SQL engine backends: the
    system as shipped, not a zero-cost fake that would measure pure
    dispatch.

    Two modes are gated separately:

    * ``ControllerConfig(tracing=True)`` alone — server spans on every
      stage, slow-log capture, histogram observation — must stay within
      **10%** of the untraced path. This is the knob an operator leaves
      on in production.
    * A connection that additionally asks for the spans back on every
      reply (``trace=true``) pays serialisation plus bigger frames on
      top; that per-statement debug mode is gated at **15%**.

    Methodology: short statement chunks alternate between the
    configurations, so a loaded CI runner's transient stalls hit all
    sides equally; each side is then scored by the sum of its fastest
    half of chunks (per-chunk minima are too noisy, full sums let one
    GC pause or scheduler stall on either side decide the verdict)."""
    CHUNK = 10
    CHUNKS = 50
    EPSILON = 0.002  # absolute seconds of slack on the summed halves

    def run_chunk(connection, base: int) -> float:
        cursor = connection.cursor()
        started = time.perf_counter()
        for offset in range(CHUNK):
            index = base + offset
            if index % 3 == 2:
                cursor.execute("SELECT * FROM bench_events WHERE id = 5")
            else:
                cursor.execute(
                    f"UPDATE bench_events SET v = 'x' WHERE id = {index % 50}"
                )
        return time.perf_counter() - started

    plain_env, plain_controller, plain = _traced_bench_cluster(tracing=False)
    traced_env, traced_controller, traced = _traced_bench_cluster(tracing=True)
    # Same traced controller, but the connection does not ask for spans
    # on its replies: the cost of the tracing *knob* by itself.
    server_runtime = ClusterDriverRuntime(name="bench-trace-server-only")
    server_only = server_runtime.connect(traced_env.client_url(), network=traced_env.network)
    try:
        assert plain.tracing is False and traced.tracing is True
        assert server_only.tracing is False  # spans stay server-side
        for base in range(0, 10 * CHUNK, CHUNK):  # warm pools and PK cache
            run_chunk(plain, base)
            run_chunk(server_only, base)
            run_chunk(traced, base)
        plain_times, server_times, wire_times = [], [], []
        for base in range(0, CHUNKS * CHUNK, CHUNK):
            plain_times.append(run_chunk(plain, base))
            server_times.append(run_chunk(server_only, base))
            wire_times.append(run_chunk(traced, base))
        benchmark.pedantic(run_chunk, args=(traced, 0), rounds=1, iterations=1)
        # The traced sides really traced: spans came back on the wire
        # for the requesting connection, and the controller counted
        # every statement of both traced connections.
        assert traced.last_trace is not None and traced.last_trace["spans"]
        assert traced_controller.stats()["obs"]["traced_statements"] > 0
        assert plain_controller.stats()["obs"]["traced_statements"] == 0
        half = CHUNKS // 2
        plain_sum = sum(sorted(plain_times)[:half])
        server_sum = sum(sorted(server_times)[:half])
        wire_sum = sum(sorted(wire_times)[:half])
        per_round = f"per {half}x{CHUNK}-statement best-half"
        assert server_sum <= plain_sum * 1.10 + EPSILON, (
            f"tracing knob overhead gate: traced {server_sum * 1000:.2f} ms vs "
            f"untraced {plain_sum * 1000:.2f} ms {per_round}"
        )
        assert wire_sum <= plain_sum * 1.15 + EPSILON, (
            f"wire span-return overhead gate: traced {wire_sum * 1000:.2f} ms vs "
            f"untraced {plain_sum * 1000:.2f} ms {per_round}"
        )
    finally:
        plain.close()
        server_only.close()
        traced.close()
        plain_env.close()
        traced_env.close()
