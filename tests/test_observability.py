"""Observability subsystem (docs/observability.md): per-statement
tracing, the unified metrics registry, slow-query capture and the
exporters.

The promises under test: a traced statement over a multiplexed v3
channel yields a span tree covering queue/classify/lock/execute/
log_append/fsync_wait whose summed stage times bracket the
driver-observed latency; with ``tracing=False`` the statement path
allocates no trace objects and every frame stays byte-identical to the
pre-tracing encoding; the registry's snapshot never tears under
concurrent writers (counters monotone, histogram merge loss-free); and
the Prometheus text the controller exports round-trips through the
strict parser.
"""

import threading
import time

import pytest

from repro.cluster import Controller, ControllerConfig
from repro.cluster.backend import Backend
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.wire import (
    CLUSTER_PROTOCOL_VERSION,
    ClusterMessageType,
    attach_trace,
    make_connect,
    make_connect_ok,
    make_error,
    make_execute,
    make_result,
)
from repro.dbserver import wire as db_wire
from repro.netsim import InMemoryNetwork
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import RequestScheduler, SchedulerError
from repro.dbapi import OperationalError, ProgrammingError
from repro.obs import (
    NULL_TRACE,
    MetricsRegistry,
    SlowQueryLog,
    Span,
    StreamingHistogram,
    Trace,
    parse_prometheus_text,
    redact_sql,
    render_json,
    render_prometheus,
    sanitize_metric_name,
)


# ---------------------------------------------------------------------------
# Trace / Span
# ---------------------------------------------------------------------------


class TestTrace:
    def test_span_context_manager_records_duration_and_attrs(self):
        trace = Trace()
        with trace.span("lock", kind="table") as span:
            span.set(extra=1)
        recorded = trace.find("lock")
        assert recorded is not None
        assert recorded.attrs == {"kind": "table", "extra": 1}
        assert recorded.duration >= 0.0

    def test_span_context_manager_marks_errors(self):
        trace = Trace()
        with pytest.raises(ValueError):
            with trace.span("execute"):
                raise ValueError("boom")
        assert trace.find("execute").attrs["error"] == "ValueError"

    def test_begin_end_across_threads(self):
        trace = Trace()
        trace.begin("queue", session="s1")
        done = threading.Event()

        def worker():
            trace.end("queue", drained=True)
            done.set()

        threading.Thread(target=worker).start()
        assert done.wait(5.0)
        span = trace.find("queue")
        assert span.attrs == {"session": "s1", "drained": True}

    def test_end_without_begin_is_a_noop(self):
        trace = Trace()
        trace.end("never-started")
        assert trace.spans() == []

    def test_record_uses_raw_monotonic_readings(self):
        trace = Trace()
        now = time.monotonic()
        trace.record("replica:db1", now, now + 0.25, parent="execute", backend="db1")
        span = trace.find("replica:db1")
        assert span.parent == "execute"
        assert span.duration == pytest.approx(0.25, abs=1e-6)

    def test_finish_seals_open_spans_as_unfinished(self):
        trace = Trace()
        trace.begin("lock")
        trace.finish()
        span = trace.find("lock")
        assert span.attrs.get("unfinished") is True
        # Idempotent: a second finish neither re-seals nor extends.
        total = trace.finish()
        assert trace.finish() == total

    def test_stage_seconds_sums_top_level_spans_only(self):
        trace = Trace()
        now = time.monotonic()
        trace.record("lock", now, now + 0.1)
        trace.record("lock", now + 0.2, now + 0.3)  # a retry: summed
        trace.record("replica:db1", now, now + 0.5, parent="execute")
        stages = trace.stage_seconds()
        assert stages["lock"] == pytest.approx(0.2, abs=1e-6)
        assert "replica:db1" not in stages

    def test_tree_nests_children_under_parents(self):
        trace = Trace()
        now = time.monotonic()
        trace.record("execute", now, now + 0.5)
        trace.record("replica:db1", now, now + 0.4, parent="execute")
        trace.record("replica:db2", now, now + 0.5, parent="execute")
        roots = trace.tree()
        execute = next(node for node in roots if node["name"] == "execute")
        assert {child["name"] for child in execute["children"]} == {
            "replica:db1",
            "replica:db2",
        }

    def test_wire_round_trip(self):
        trace = Trace()
        now = time.monotonic()
        trace.record("execute", now, now + 0.123, backend="db1")
        wire = trace.to_wire()
        spans = Trace.spans_from_wire(wire)
        assert len(spans) == 1
        assert isinstance(spans[0], Span)
        assert spans[0].name == "execute"
        assert spans[0].duration == pytest.approx(0.123, abs=1e-3)
        assert spans[0].attrs == {"backend": "db1"}

    def test_trace_id_honoured_and_generated(self):
        assert Trace(trace_id="abc").trace_id == "abc"
        assert Trace().trace_id != Trace().trace_id

    def test_null_trace_accepts_every_producer_call_and_hides_no_exception(self):
        NULL_TRACE.begin("queue")
        NULL_TRACE.end("queue", kind="table")
        NULL_TRACE.record("replica:db1", 1.0, 2.0, parent="execute", error=True)
        NULL_TRACE.annotate(command="INSERT")
        with NULL_TRACE.span("cache", hit=False) as span:
            span.set(hit=True)
        with pytest.raises(ValueError):
            with NULL_TRACE.span("execute"):
                raise ValueError("boom")


# ---------------------------------------------------------------------------
# StreamingHistogram / MetricsRegistry
# ---------------------------------------------------------------------------


class TestStreamingHistogram:
    def test_quantiles_track_known_distribution(self):
        histogram = StreamingHistogram()
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms .. 1s uniform
        for value in values:
            histogram.observe(value)
        assert histogram.count == 1000
        assert histogram.sum == pytest.approx(sum(values), rel=1e-9)
        # Bucket width is 15%, so allow that relative error.
        assert histogram.quantile(0.50) == pytest.approx(0.5, rel=0.2)
        assert histogram.quantile(0.99) == pytest.approx(0.99, rel=0.2)

    def test_quantiles_clamped_to_observed_extremes(self):
        histogram = StreamingHistogram()
        histogram.observe(0.031)
        snap = histogram.snapshot()
        assert snap["p50"] == snap["p99"] == pytest.approx(0.031)
        assert snap["min"] == snap["max"] == pytest.approx(0.031)

    def test_merge_equals_union(self):
        left, right, union = (
            StreamingHistogram(),
            StreamingHistogram(),
            StreamingHistogram(),
        )
        first = [0.001 * i for i in range(1, 200)]
        second = [0.01 * i for i in range(1, 100)]
        for value in first:
            left.observe(value)
            union.observe(value)
        for value in second:
            right.observe(value)
            union.observe(value)
        left.merge(right)
        assert left.count == union.count
        assert left.sum == pytest.approx(union.sum, rel=1e-9)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert left.quantile(q) == pytest.approx(union.quantile(q), rel=1e-9)

    def test_negative_observations_clamp_to_zero(self):
        histogram = StreamingHistogram()
        histogram.observe(-1.0)
        assert histogram.count == 1
        assert histogram.sum == 0.0

    def test_empty_histogram_snapshot(self):
        snap = StreamingHistogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["p99"] == 0.0


class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_counter_is_monotone(self):
        counter = MetricsRegistry().counter("a")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_failing_collector_does_not_kill_snapshot(self):
        registry = MetricsRegistry()

        def bad():
            raise RuntimeError("subsystem down")

        registry.register_collector("bad", bad)
        registry.register_collector("good", lambda: {"x": 1})
        snap = registry.snapshot()
        assert snap["subsystems"]["bad"] == {"error": "RuntimeError"}
        assert snap["subsystems"]["good"] == {"x": 1}

    def test_unregister_collector(self):
        registry = MetricsRegistry()
        registry.register_collector("s", lambda: {"x": 1})
        registry.unregister_collector("s")
        assert registry.snapshot()["subsystems"] == {}

    def test_flattened_shapes(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram("lat").observe(0.1)
        registry.register_collector(
            "sub", lambda: {"a": 1, "flag": True, "name": "skipped", "nested": {"b": 2}}
        )
        samples = dict(registry.flattened())
        assert samples["hits_total"] == 3.0
        assert samples["depth"] == 2.5
        assert samples["lat_count"] == 1.0
        assert samples["sub_a"] == 1.0
        assert samples["sub_flag"] == 1.0
        assert samples["sub_nested_b"] == 2.0
        assert "sub_name" not in samples  # strings are not samples

    def test_no_torn_reads_under_concurrent_writers(self):
        """Snapshots taken while writers hammer the instruments must be
        internally consistent: counters monotone across successive
        snapshots, histogram count/sum nondecreasing, and quantiles
        always inside [min, max]."""
        registry = MetricsRegistry()
        counter = registry.counter("ops")
        histogram = registry.histogram("lat")
        stop = threading.Event()
        per_writer = 3000
        writers = 4

        def writer(seed: int):
            for i in range(per_writer):
                counter.inc()
                histogram.observe(0.001 * ((seed + i) % 50 + 1))

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(writers)]
        snapshots = []

        def reader():
            while not stop.is_set():
                snapshots.append(registry.snapshot())

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        reader_thread.join(timeout=10.0)
        snapshots.append(registry.snapshot())

        previous_count = previous_hist = -1
        previous_sum = -1.0
        for snap in snapshots:
            count = snap["counters"]["ops"]
            assert count >= previous_count, "counter went backwards"
            previous_count = count
            hist = snap["histograms"]["lat"]
            assert hist["count"] >= previous_hist
            previous_hist = hist["count"]
            assert hist["sum"] >= previous_sum - 1e-9
            previous_sum = hist["sum"]
            if hist["count"]:
                assert hist["min"] <= hist["p50"] <= hist["max"]
                assert hist["min"] <= hist["p99"] <= hist["max"]
        assert snapshots[-1]["counters"]["ops"] == writers * per_writer
        assert snapshots[-1]["histograms"]["lat"]["count"] == writers * per_writer


# ---------------------------------------------------------------------------
# Slow-query log
# ---------------------------------------------------------------------------


class TestSlowQueryLog:
    def test_redaction_replaces_literals(self):
        assert (
            redact_sql("INSERT INTO users VALUES (42, 'alice', 3.14)")
            == "INSERT INTO users VALUES (?, ?, ?)"
        )
        # Escaped quotes stay inside one placeholder.
        assert redact_sql("SELECT 'it''s 42'") == "SELECT ?"
        assert redact_sql("SELECT col1 FROM t2") == "SELECT col1 FROM t2"

    def test_keeps_the_slowest_within_capacity(self):
        log = SlowQueryLog(capacity=3)
        for index, duration in enumerate([0.01, 0.05, 0.02, 0.08, 0.001]):
            log.record(f"SELECT {index}", duration)
        entries = log.entries()
        assert [entry["duration_ms"] for entry in entries] == [80.0, 50.0, 20.0]
        assert log.stats()["recorded"] == 5
        assert log.stats()["captured"] == 3

    def test_threshold_filters_fast_statements(self):
        log = SlowQueryLog(capacity=8, threshold_ms=10.0)
        assert not log.record("SELECT 1", 0.005)
        assert log.record("SELECT 2", 0.015)
        assert log.stats()["recorded"] == 1

    def test_entry_shape(self):
        log = SlowQueryLog()
        log.record(
            "SELECT 9", 0.2, stages={"execute": 0.15}, trace_id="t1", command="SELECT"
        )
        (entry,) = log.entries()
        assert entry["sql"] == "SELECT ?"
        assert entry["duration_ms"] == 200.0
        assert entry["stages_ms"] == {"execute": 150.0}
        assert entry["trace_id"] == "t1"
        assert entry["attrs"] == {"command": "SELECT"}

    def test_clear(self):
        log = SlowQueryLog()
        log.record("SELECT 1", 0.1)
        log.clear()
        assert log.entries() == []


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("served").inc(7)
        registry.histogram("lat").observe(0.25)
        registry.register_collector("sub", lambda: {"queue depth": 3})
        text = render_prometheus(registry.flattened())
        parsed = parse_prometheus_text(text)
        assert parsed["repro_served_total"] == 7.0
        assert parsed["repro_lat_count"] == 1.0
        assert parsed["repro_sub_queue_depth"] == 3.0

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("a.b-c d") == "a_b_c_d"
        assert sanitize_metric_name("9lives").startswith("_")

    def test_counter_suffix_gets_counter_type(self):
        text = render_prometheus([("x_total", 1.0), ("y", 2.0)])
        assert "# TYPE repro_x_total counter" in text
        assert "# TYPE repro_y gauge" in text

    @pytest.mark.parametrize(
        "bad",
        [
            "metric 1 2 3",
            "1badname 4",
            "ok 4\nok 5",  # duplicate sample
            "# TYPE short",
            "name notanumber",
        ],
    )
    def test_parser_rejects_malformed_text(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_render_json_is_stable_and_parseable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a").inc()
        text = render_json(registry.snapshot())
        assert json.loads(text)["counters"]["a"] == 1


# ---------------------------------------------------------------------------
# Wire negotiation and frame byte-identity
# ---------------------------------------------------------------------------


class TestWireTracingFields:
    def test_untraced_frames_keep_exact_shape(self):
        assert set(make_execute("SELECT 1", {})) == {"type", "sql", "params"}
        assert set(make_connect("vdb", 3)) == {"type", "virtual_database", "protocol_version"}
        assert "tracing" not in make_connect_ok("c1", 3, "s1")
        assert "tracing" not in make_connect_ok("c1", 3, "s1", multiplexing=True)

    def test_pydb_frames_omit_unset_optional_fields(self):
        # The same rule on the database wire: an unset field is not sent.
        assert set(db_wire.make_execute("SELECT 1")) == {"type", "sql", "params"}
        assert set(db_wire.make_connect("appdb", 4)) == {"type", "database", "protocol_version", "auth_method"}
        assert set(db_wire.make_connect("appdb", 4, "alice", "secret")) == {
            "type", "database", "protocol_version", "auth_method", "user", "password"
        }

    def test_traced_frames_add_only_the_optional_fields(self):
        assert make_connect("vdb", 3, trace=True)["trace"] is True
        assert make_execute("SELECT 1", {}, trace_id="t1")["trace_id"] == "t1"
        assert make_connect_ok("c1", 3, "s1", tracing=True)["tracing"] is True

    def test_attach_trace_with_no_spans_is_identity(self):
        reply = make_result(["v"], [[1]], 1)
        before = dict(reply)
        assert attach_trace(reply, []) is reply
        assert reply == before
        attach_trace(reply, None)
        assert reply == before

    def test_attach_trace_carries_span_dicts(self):
        reply = make_error("execution_failed", "boom")
        spans = [["execute", 0.0, 1.0]]
        assert attach_trace(reply, spans)["trace"] == spans


# ---------------------------------------------------------------------------
# End to end: controller + driver
# ---------------------------------------------------------------------------


def _slow_connection_factory(delay_s: float, update_error=None):
    """A fake DB-API connection whose every statement takes ``delay_s``,
    so backend execution dominates the traced statement and the
    stage-sum-vs-driver-latency bracket is meaningful. With
    ``update_error`` every UPDATE raises it instead (a failing replica)."""

    class _Cursor:
        description = [("v", None, None, None, None, None, None)]
        rowcount = 1

        def execute(self, sql, params=None):
            if update_error is not None and sql.startswith("UPDATE"):
                raise update_error
            time.sleep(delay_s)

        def fetchall(self):
            return [[1]]

        def close(self):
            pass

    class _Connection:
        closed = False
        driver_info = {"name": "slow-fake"}

        def cursor(self):
            return _Cursor()

        def commit(self):
            pass

        def rollback(self):
            pass

        def close(self):
            self.closed = True

    return _Connection


@pytest.fixture
def traced_cluster(tmp_path):
    """One controller with tracing + durable group-commit log over two
    latency-injected fake backends, plus a tracing driver connection."""
    network = InMemoryNetwork()
    factory = _slow_connection_factory(0.04)
    config = ControllerConfig(
        controller_id="obs-ctrl",
        virtual_database="vdb",
        tracing=True,
        log_dir=str(tmp_path / "log"),
        log_fsync=True,
    )
    controller = Controller(
        config,
        network,
        "obs-ctrl:25322",
        backends=[Backend("db1", factory), Backend("db2", factory)],
    ).start()
    runtime = ClusterDriverRuntime(name="obs-test")
    connection = runtime.connect(
        "sequoia://obs-ctrl:25322/vdb", network=network, trace="true"
    )
    yield controller, connection
    connection.close()
    controller.stop()


class TestEndToEnd:
    def test_span_tree_brackets_driver_latency(self, traced_cluster):
        """The acceptance criterion: over a multiplexed v3 channel, a
        traced write's span tree covers queue/classify/lock/execute/
        log_append/fsync_wait and the summed top-level stage times
        bracket the driver-observed latency."""
        controller, connection = traced_cluster
        assert connection.multiplexed and connection.tracing
        cursor = connection.cursor()
        cursor.execute("INSERT INTO events VALUES (1, 'a')")
        trace = connection.last_trace
        assert trace is not None and trace["spans"], "spans must ride the RESULT frame"
        spans = Trace.spans_from_wire(trace["spans"])
        names = {span.name for span in spans}
        assert {"queue", "classify", "lock", "execute", "log_append", "fsync_wait"} <= names
        # Per-replica children hang under the execute span, named after
        # their backend.
        replica_spans = [span for span in spans if span.name.startswith("replica:")]
        assert {span.name for span in replica_spans} == {"replica:db1", "replica:db2"}
        assert all(span.parent == "execute" for span in replica_spans)
        # Stage sum vs driver latency: stages are disjoint wall-clock
        # intervals inside the driver's observation window, so their sum
        # can never exceed it (epsilon for wire-field ms rounding), and
        # with a 40ms injected backend delay they must dominate it.
        stage_sum = sum(span.duration for span in spans if span.parent is None)
        driver_latency = trace["latency_s"]
        assert stage_sum <= driver_latency + 0.002
        assert stage_sum >= 0.5 * driver_latency
        assert stage_sum >= 0.04  # the injected backend delay is in there

    def test_read_trace_has_execute_without_lock(self, traced_cluster):
        controller, connection = traced_cluster
        cursor = connection.cursor()
        cursor.execute("INSERT INTO events VALUES (1, 'a')")
        cursor.execute("SELECT * FROM events")
        names = {
            span.name for span in Trace.spans_from_wire(connection.last_trace["spans"])
        }
        assert "execute" in names and "queue" in names
        assert "lock" not in names and "log_append" not in names

    def test_slow_log_and_registry_capture_the_workload(self, traced_cluster):
        controller, connection = traced_cluster
        cursor = connection.cursor()
        cursor.execute("INSERT INTO events VALUES (1, 'secret-string')")
        cursor.execute("SELECT * FROM events")
        entries = controller.slow_queries.entries()
        assert entries, "zero threshold must capture every statement"
        assert all("secret-string" not in entry["sql"] for entry in entries)
        insert_entry = next(e for e in entries if e["sql"].startswith("INSERT"))
        assert "execute" in insert_entry["stages_ms"]
        obs = controller.stats()["obs"]
        assert obs["tracing"] is True
        assert obs["traced_statements"] == 2
        assert obs["statement_latency"]["count"] == 2
        parsed = parse_prometheus_text(controller.metrics_text())
        assert parsed["repro_traced_statements_total"] == 2.0
        assert parsed["repro_statement_latency_seconds_count"] == 2.0

    def test_stats_and_registry_snapshot_agree(self, traced_cluster):
        controller, connection = traced_cluster
        connection.cursor().execute("INSERT INTO events VALUES (1, 'a')")
        stats = controller.stats()
        snapshot = controller.metrics_snapshot()
        assert snapshot["subsystems"]["scheduler"].keys() == stats["scheduler"].keys()
        assert (
            snapshot["subsystems"]["front_end"]["server_busy_rejections"]
            == stats["front_end"]["server_busy_rejections"]
        )
        assert (
            snapshot["subsystems"]["controller"]["statements_served"]
            == stats["statements_served"]
        )

    def test_batch_riders_attribute_their_wait_to_the_leader(self, traced_cluster):
        """Concurrent auto-commit writers coalesced by the WriteBatcher:
        a rider's trace shows a ``batch_wait`` stage naming the leader's
        trace id instead of silently missing that time."""
        controller, connection = traced_cluster
        errors = []

        def writer(offset):
            try:
                runtime = ClusterDriverRuntime(name=f"w{offset}")
                conn = runtime.connect(
                    "sequoia://obs-ctrl:25322/vdb",
                    network=controller.network,
                    trace="true",
                )
                cursor = conn.cursor()
                for index in range(4):
                    # One table per writer: disjoint table scopes are
                    # what lets the writers overlap into one round (the
                    # 40 ms backends keep a round in flight long enough
                    # for the siblings to queue behind its leader).
                    cursor.execute(
                        f"INSERT INTO events_{offset} VALUES ({offset + index}, 'x')"
                    )
                conn.close()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(100 * n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        waits = [
            entry
            for entry in controller.slow_queries.entries()
            if "batch_wait" in entry["stages_ms"]
        ]
        assert waits, "overlapping disjoint-table writers must produce riders"
        # The scheduler's write batcher really coalesced rounds.
        assert controller.stats()["scheduler"]["write_batching"]["max_batch_size"] > 1

    def test_v2_client_gets_no_tracing_grant(self, traced_cluster):
        controller, _ = traced_cluster
        channel = controller.network.connect("obs-ctrl:25322", timeout=5.0)
        channel.send(make_connect("vdb", 2, trace=True))
        reply = channel.recv(timeout=5.0)
        assert reply["type"] == ClusterMessageType.CONNECT_OK
        assert "tracing" not in reply
        channel.close()

    def test_untraced_execute_on_traced_controller_keeps_frame_shape(
        self, traced_cluster
    ):
        """config.tracing=True still traces server-side (slow log), but
        a reply to an EXECUTE with no trace_id carries no span list."""
        controller, _ = traced_cluster
        channel = controller.network.connect("obs-ctrl:25322", timeout=5.0)
        channel.send(make_connect("vdb", CLUSTER_PROTOCOL_VERSION))
        reply = channel.recv(timeout=5.0)
        assert reply["type"] == ClusterMessageType.CONNECT_OK
        channel.send(make_execute("SELECT * FROM events", {}))
        result = channel.recv(timeout=10.0)
        assert result["type"] == ClusterMessageType.RESULT
        assert set(result) == {"type", "columns", "rows", "rowcount"}
        channel.close()


class TestReplicaSpanErrors:
    """A replica that failed a write shows ``error=True`` on its
    ``replica:<name>`` span — on the default (write-batching) path too,
    which recorded nothing before the scalar and batched twins merged."""

    @staticmethod
    def _traced_update(db1_error, db2_error):
        scheduler = RequestScheduler(
            [
                Backend("db1", _slow_connection_factory(0.0, db1_error)),
                Backend("db2", _slow_connection_factory(0.0, db2_error)),
            ],
            RecoveryLog(),
        )
        trace = Trace()
        try:
            try:
                scheduler.execute("UPDATE t SET v = 1 WHERE id = 1", trace=trace)
            except SchedulerError:
                pass
            assert scheduler.stats()["write_batching"]["rounds"] == 1  # rode the batcher
        finally:
            scheduler.close()
        return {
            span.name: span.attrs for span in trace.spans() if span.name.startswith("replica:")
        }

    def test_replica_fault_flags_only_the_failing_replica(self):
        assert self._traced_update(None, OperationalError("connection reset")) == {
            "replica:db1": {},
            "replica:db2": {"error": True},
        }

    def test_exception_escaping_the_backend_flags_the_replica(self):
        assert self._traced_update(RuntimeError("driver bug"), None) == {
            "replica:db1": {"error": True},
            "replica:db2": {},
        }

    def test_statement_fault_blames_the_statement_not_the_replica(self):
        bad_sql = ProgrammingError("no such column")
        assert self._traced_update(bad_sql, bad_sql) == {
            "replica:db1": {},
            "replica:db2": {},
        }


class TestTracingOffIsFree:
    def test_no_trace_objects_allocated_when_off(self, tmp_path, monkeypatch):
        """With ``tracing=False`` the statement path must never touch the
        Trace class at all — constructing one anywhere aborts the test."""
        import repro.cluster.controller as controller_module

        class _Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("Trace allocated with tracing off")

        monkeypatch.setattr(controller_module, "Trace", _Boom)
        network = InMemoryNetwork()
        factory = _slow_connection_factory(0.0)
        controller = Controller(
            ControllerConfig(controller_id="off-ctrl", virtual_database="vdb"),
            network,
            "off-ctrl:25322",
            backends=[Backend("db1", factory)],
        ).start()
        runtime = ClusterDriverRuntime(name="off-test")
        # Even a client *asking* for tracing gets no grant and no traces.
        connection = runtime.connect(
            "sequoia://off-ctrl:25322/vdb", network=network, trace="true"
        )
        try:
            assert connection.tracing is False
            cursor = connection.cursor()
            cursor.execute("INSERT INTO events VALUES (1, 'a')")
            cursor.execute("SELECT * FROM events")
            assert connection.last_trace is None
            assert controller.stats()["obs"]["traced_statements"] == 0
            assert controller.slow_queries.entries() == []
        finally:
            connection.close()
            controller.stop()
