"""Batched backend round trips (docs/scheduling.md, docs/wire.md):
``Backend.execute_batch`` semantics, ``WriteBroadcaster.broadcast_batch``,
the cross-session :class:`WriteBatcher`, IN-list key scopes, admission
control under saturation, and pipelining inside transactions.

The promises under test: a batch costs one per-backend round trip and
returns one positional outcome per statement (statement faults captured
in place, connection faults poisoning the remainder); coalesced writers
get the per-statement accounting of a round of one; a fixed script of
writes, transactions and a replica failure ends in one pinned replica,
log and checkpoint state; a saturated
controller refuses new work with a retryable ``server_busy`` error but
never refuses an open transaction's statements (that would deadlock it
against its own lock holders); and pipelined statements inside a
transaction land strictly in order before the COMMIT."""

import threading
import time
from types import SimpleNamespace

import pytest

import chaos
from repro.cluster.backend import Backend, BackendState
from repro.cluster.broadcaster import WriteBroadcaster
from repro.cluster.classifier import classify
from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.locks import LockScope
from repro.cluster.lockscope import ScopeResolver
from repro.cluster.recovery import RecoveryLog
from repro.cluster.scheduler import (
    SchedulerError,
    WriteBatcher,
    _BatchItem,
)
from repro.dbapi import OperationalError, ProgrammingError
from repro.errors import DriverError
from repro.experiments.environments import build_cluster


class _Recorder:
    """Scripted DB-API connection without a native batch entry point:
    drives Backend's per-statement fallback loop. ``fail`` maps SQL text
    to the exception its execution raises."""

    def __init__(self, fail=None):
        self.executed = []
        self.closed = False
        self.fail = dict(fail or {})
        self.driver_info = {"name": "recorder"}

    def cursor(self):
        connection = self

        class _Cursor:
            description = [("v", None, None, None, None, None, None)]
            rowcount = 1

            def execute(self, sql, params=None):
                exc = connection.fail.get(sql)
                if exc is not None:
                    raise exc
                connection.executed.append((sql, dict(params or {})))

            def fetchall(self):
                return [[1]]

            def close(self):
                pass

        return _Cursor()

    def close(self):
        self.closed = True


class _NativeBatch(_Recorder):
    """Recorder with a native ``execute_batch``; ``script`` overrides the
    default per-pair outcome mapping when a test needs a broken shape."""

    def __init__(self, script=None, fail=None):
        super().__init__(fail=fail)
        self.batch_calls = 0
        self.script = script

    def execute_batch(self, pairs):
        self.batch_calls += 1
        if self.script is not None:
            return self.script(pairs)
        outcomes = []
        for sql, params in pairs:
            exc = self.fail.get(sql)
            if exc is not None:
                outcomes.append(exc)
            else:
                self.executed.append((sql, dict(params or {})))
                outcomes.append((["v"], [[1]], 1))
        return outcomes


class TestBackendBatchFallback:
    def test_runs_all_statements_and_counts(self):
        connection = _Recorder()
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", {"a": 1}), ("U2", None), ("U3", {})])
        assert [error for _, error in outcomes] == [None, None, None]
        assert all(result == (["v"], [[1]], 1) for result, _ in outcomes)
        assert [sql for sql, _ in connection.executed] == ["U1", "U2", "U3"]
        assert backend.statements_executed == 3

    def test_empty_batch_is_free(self):
        backend = Backend("b1", lambda: _Recorder())
        assert backend.execute_batch([]) == []

    def test_statement_fault_is_captured_per_position(self):
        fault = ProgrammingError("no such column")
        connection = _Recorder(fail={"BAD": fault})
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", None), ("BAD", None), ("U2", None)])
        assert outcomes[0][1] is None and outcomes[2][1] is None
        assert outcomes[1] == (None, fault)
        # The statement was bad; the connection is fine and stays cached.
        assert not connection.closed
        assert [sql for sql, _ in connection.executed] == ["U1", "U2"]

    def test_connection_fault_poisons_the_remainder(self):
        dead = OperationalError("connection reset")
        connection = _Recorder(fail={"DEAD": dead})
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", None), ("DEAD", None), ("U3", None)])
        assert len(outcomes) == 3
        assert outcomes[0][1] is None
        # Later statements must not run past a dead connection: they get
        # the same error instead of being skipped silently.
        assert outcomes[1] == (None, dead) and outcomes[2] == (None, dead)
        assert connection.closed
        assert [sql for sql, _ in connection.executed] == ["U1"]

    def test_late_failure_does_not_close_the_replacement_connection(self):
        """A shared connection's reply is awaited outside the backend
        lock, so the connection can be closed and replaced while a
        statement is still in flight on it; when that statement then
        fails, only the connection it ran on may be dropped — not its
        successor."""
        first, second = _Stalling(), _Stalling()
        opened = iter([first, second])
        backend = Backend("b1", lambda: next(opened))
        errors = []

        def stall():
            try:
                backend.execute("STALL")
            except OperationalError as exc:
                errors.append(exc)

        worker = threading.Thread(target=stall)
        worker.start()
        assert first.entered.wait(timeout=5.0)
        backend.close_connection()  # as mark_failed / disable would
        backend.execute("U1")  # reconnects: the cached connection is now `second`
        first.release.set()
        worker.join(timeout=5.0)
        assert not worker.is_alive() and len(errors) == 1
        assert first.closed and not second.closed
        backend.execute("U2")
        assert [sql for sql, _ in second.executed] == ["U1", "U2"]


class _Stalling(_Recorder):
    """A connection with the split form, as the pydb connection has:
    once its ``STALL`` statement is on the wire it signals ``entered``,
    and its reply waits for ``release`` and then fails as a dead
    connection's would."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def send_execute(self, sql, params=None):
        if sql != "STALL":
            self.cursor().execute(sql, params)
            return lambda: (["v"], [[1]], 1)
        self.entered.set()

        def collect():
            assert self.release.wait(timeout=5.0)
            raise OperationalError("connection reset")

        return collect


class TestBackendBatchNative:
    def test_one_native_round_trip_with_mixed_outcomes(self):
        fault = ProgrammingError("duplicate key")
        connection = _NativeBatch(fail={"BAD": fault})
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", None), ("BAD", None), ("U2", None)])
        assert connection.batch_calls == 1
        assert outcomes[0] == ((["v"], [[1]], 1), None)
        assert outcomes[1] == (None, fault)
        assert outcomes[2] == ((["v"], [[1]], 1), None)
        assert backend.statements_executed == 2  # successes only
        assert not connection.closed

    def test_length_mismatch_is_a_connection_fault(self):
        connection = _NativeBatch(script=lambda pairs: [(["v"], [[1]], 1)])
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", None), ("U2", None)])
        assert len(outcomes) == 2
        assert all(isinstance(error, DriverError) for _, error in outcomes)
        assert connection.closed

    def test_escaping_driver_error_poisons_batch_and_drops_connection(self):
        boom = OperationalError("socket closed mid-batch")

        def script(pairs):
            raise boom

        connection = _NativeBatch(script=script)
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", None), ("U2", None)])
        assert outcomes == [(None, boom), (None, boom)]
        assert connection.closed

    def test_escaping_statement_fault_keeps_the_connection(self):
        fault = ProgrammingError("parse error")

        def script(pairs):
            raise fault

        connection = _NativeBatch(script=script)
        backend = Backend("b1", lambda: connection)
        outcomes = backend.execute_batch([("U1", None), ("U2", None)])
        assert outcomes == [(None, fault), (None, fault)]
        assert not connection.closed


class TestBroadcastBatch:
    def test_failures_stay_isolated_per_backend(self):
        dead = OperationalError("replica down")
        good_connection = _NativeBatch()
        bad_connection = _Recorder(fail={"U0": dead, "U1": dead})
        good = Backend("good", lambda: good_connection)
        bad = Backend("bad", lambda: bad_connection)
        broadcaster = WriteBroadcaster()
        try:
            batch = broadcaster.broadcast_batch(
                [good, bad], [("U0", None), ("U1", {"v": 1})]
            )
            assert batch.statement_count == 2
            for index in range(2):
                outcome = batch.per_statement(index)
                assert [item.backend.name for item in outcome.succeeded] == ["good"]
                assert [item.backend.name for item in outcome.failed] == ["bad"]
                assert outcome.result == (["v"], [[1]], 1)
            stats = broadcaster.stats()
            assert stats["batch_broadcasts"] == 1
            assert stats["batched_statements"] == 2
        finally:
            broadcaster.close()


class _FakeRoundScheduler:
    """Stands in for RequestScheduler._run_round: records each
    round's batch, optionally blocks the first round on ``gate`` (so
    riders can pile up behind the in-flight leader) or fails every
    round with ``fail``."""

    def __init__(self, gate=None, fail=None):
        self.batches = []
        self.gate = gate
        self.fail = fail
        self._first = True

    def _run_round(self, items, leader_trace=None):
        self.batches.append([item.sql for item in items])
        if self.fail is not None:
            raise self.fail
        if self.gate is not None and self._first:
            self._first = False
            assert self.gate.wait(timeout=5.0)
        for position, item in enumerate(items):
            item.result = (["v"], [[position]], 1)
            item.outcome = "applied"
            item.durable_index = None


def _run_batcher_writers(batcher, targets, count, start_gate):
    """Lead one round with writer 0, queue ``count - 1`` riders behind
    it, then open ``start_gate`` and return every writer's item."""
    statement = classify("UPDATE wb_unit SET v = 1 WHERE id = 1")
    results = [None] * count
    errors = [None] * count

    def writer(index):
        item = _BatchItem(f"U{index}", None, statement, targets)
        try:
            batcher.run(item)
            results[index] = item
        except Exception as exc:  # noqa: BLE001 - asserted by the caller
            errors[index] = exc

    leader = threading.Thread(target=writer, args=(0,))
    leader.start()
    # Wait until the leader is inside its (gated) round before queueing
    # the riders, so they all land in the next round(s).
    deadline = time.time() + 5.0
    while not batcher.rounds and time.time() < deadline:
        time.sleep(0.001)
    assert batcher.rounds == 1
    riders = [threading.Thread(target=writer, args=(i,)) for i in range(1, count)]
    for thread in riders:
        thread.start()
    while time.time() < deadline:
        with batcher._cond:
            queued = sum(len(queue) for queue in batcher._queues.values())
        if queued == count - 1:
            break
        time.sleep(0.001)
    start_gate.set()
    leader.join(timeout=5.0)
    for thread in riders:
        thread.join(timeout=5.0)
    return results, errors


class TestWriteBatcher:
    def test_riders_coalesce_into_one_round(self):
        gate = threading.Event()
        scheduler = _FakeRoundScheduler(gate=gate)
        batcher = WriteBatcher(scheduler)
        targets = [Backend("b1", _Recorder), Backend("b2", _Recorder)]
        results, errors = _run_batcher_writers(batcher, targets, 5, gate)
        assert errors == [None] * 5
        assert all(
            item is not None and item.outcome == "applied" for item in results
        )
        # One gated round for the leader, one coalesced round for the
        # four riders that queued while it was in flight.
        assert [len(batch) for batch in scheduler.batches] == [1, 4]
        stats = batcher.stats()
        assert stats["rounds"] == 2
        assert stats["batched_statements"] == 5
        assert stats["max_batch_size"] == 4

    def test_max_batch_splits_oversized_rounds(self):
        gate = threading.Event()
        scheduler = _FakeRoundScheduler(gate=gate)
        batcher = WriteBatcher(scheduler, max_batch=2)
        targets = [Backend("b1", _Recorder)]
        results, errors = _run_batcher_writers(batcher, targets, 5, gate)
        assert errors == [None] * 5
        assert all(result is not None for result in results)
        # 1 (gated leader) + 4 riders split into rounds of at most 2.
        assert [len(batch) for batch in scheduler.batches] == [1, 2, 2]
        assert batcher.stats()["max_batch_size"] == 2

    def test_round_failure_is_delivered_to_every_writer(self):
        scheduler = _FakeRoundScheduler(fail=DriverError("round died"))
        batcher = WriteBatcher(scheduler)
        targets = [Backend("b1", _Recorder)]
        statement = classify("UPDATE wb_unit SET v = 1 WHERE id = 1")
        errors = []

        def writer(index):
            try:
                batcher.run(_BatchItem(f"U{index}", None, statement, targets))
            except DriverError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(errors) == 2
        # Leadership was released despite the failure: the next writer
        # elects itself instead of waiting forever.
        assert not batcher._leading


@pytest.fixture
def batched_cluster():
    env = build_cluster(replicas=2, controllers=1)
    yield env
    env.close()


class TestSchedulerBatching:
    def test_concurrent_writers_converge_with_per_table_log_order(self, batched_cluster):
        env = batched_cluster
        scheduler = env.controllers[0].scheduler
        writers, writes = 6, 12
        for index in range(writers):
            scheduler.execute(f"CREATE TABLE wbt_w{index} (id INTEGER PRIMARY KEY, v INTEGER)")
            scheduler.execute(f"INSERT INTO wbt_w{index} (id, v) VALUES (1, -1)")
        errors = []

        def writer(index):
            try:
                for value in range(writes):
                    scheduler.execute(
                        f"UPDATE wbt_w{index} SET v = $v WHERE id = 1", {"v": value}
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        # Every write is in the log, in issue order per table (each
        # writer issues sequentially, so its values must appear sorted).
        entries = env.controllers[0].recovery_log.entries_after(0)
        for index in range(writers):
            values = [
                entry.params["v"]
                for entry in entries
                if entry.write_tables == (f"wbt_w{index}",) and "v" in entry.params
            ]
            assert values == sorted(values) and len(values) == writes
        # Replicas converged on the final value.
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            for index in range(writers):
                assert session.execute(f"SELECT v FROM wbt_w{index}").rows == [(writes - 1,)]
        batch_stats = scheduler.stats()["write_batching"]
        assert batch_stats is not None and batch_stats["rounds"] >= 1
        # Every eligible auto-commit write went through the batcher.
        assert batch_stats["batched_statements"] >= writers * writes

    def test_statement_fault_everywhere_blames_statement_not_backends(self, batched_cluster):
        env = batched_cluster
        scheduler = env.controllers[0].scheduler
        scheduler.execute("CREATE TABLE wbt_dup (id INTEGER PRIMARY KEY, v INTEGER)")
        scheduler.execute("INSERT INTO wbt_dup (id, v) VALUES (1, 0)")
        log_before = env.controllers[0].recovery_log.last_index
        with pytest.raises(SchedulerError, match="every backend"):
            scheduler.execute("INSERT INTO wbt_dup (id, v) VALUES (1, 1)")
        # The replicas agreed the statement was bad: nobody was marked
        # failed, and the rejected write never reached the log.
        assert len(scheduler.enabled_backends()) == 2
        assert env.controllers[0].recovery_log.last_index == log_before
        scheduler.execute("UPDATE wbt_dup SET v = 7 WHERE id = 1")
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            assert session.execute("SELECT v FROM wbt_dup").rows == [(7,)]

    def test_arithmetic_on_a_text_parameter_fails_the_statement_not_the_replicas(self, batched_cluster):
        """``v + $x`` with a text ``x`` is every replica's statement error:
        the client gets a ProgrammingError, both backends stay ENABLED
        and the next read is served."""
        env = batched_cluster
        connection = ClusterDriverRuntime().connect(env.client_url(), network=env.network)
        try:
            cursor = connection.cursor()
            cursor.execute("CREATE TABLE wbt_text (id INTEGER PRIMARY KEY, v INTEGER)")
            cursor.execute("INSERT INTO wbt_text (id, v) VALUES (1, 1)")
            with pytest.raises(ProgrammingError, match="cannot apply"):
                cursor.execute("UPDATE wbt_text SET v = v + $x WHERE id = 1", {"x": "5"})
            scheduler = env.controllers[0].scheduler
            assert [backend.state for backend in scheduler.backends()] == [BackendState.ENABLED] * 2
            cursor.execute("SELECT v FROM wbt_text WHERE id = 1")
            assert cursor.fetchall() == [(1,)]
        finally:
            connection.close()

    def test_batched_writes_racing_resync_converge(self, batched_cluster):
        env = batched_cluster
        controller = env.controllers[0]
        scheduler = controller.scheduler
        writers, writes = 4, 15
        for index in range(writers):
            scheduler.execute(f"CREATE TABLE wbt_rs{index} (id INTEGER PRIMARY KEY, v INTEGER)")
            scheduler.execute(f"INSERT INTO wbt_rs{index} (id, v) VALUES (1, -1)")
        errors = []
        stop = threading.Event()

        def writer(index):
            try:
                for value in range(writes):
                    scheduler.execute(
                        f"UPDATE wbt_rs{index} SET v = $v WHERE id = 1", {"v": value}
                    )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def cycler():
            name = "db2"
            while not stop.is_set():
                try:
                    controller.disable_backend(name)
                    time.sleep(0.002)
                    controller.enable_backend(name)
                except SchedulerError:
                    # A transactionless race can still refuse the flip
                    # (e.g. nothing to resync yet); keep cycling.
                    pass
                time.sleep(0.002)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        cycle_thread = threading.Thread(target=cycler)
        for thread in threads:
            thread.start()
        cycle_thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        stop.set()
        cycle_thread.join(timeout=10.0)
        assert errors == []
        # Whatever mix of batched rounds and resyncs interleaved, both
        # replicas end on every writer's final value.
        controller.enable_backend("db2")
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            for index in range(writers):
                assert session.execute(f"SELECT v FROM wbt_rs{index}").rows == [(writes - 1,)]


def _run_script(failing_replica):
    """Drive one fixed script through a two-replica cluster's scheduler
    and return everything the replication rule is responsible for."""
    env = build_cluster(replicas=2, controllers=1)
    try:
        controller = env.controllers[0]
        scheduler = controller.scheduler

        def run(sql, params=None, in_transaction=False):
            return scheduler.execute(
                sql, params, in_transaction=in_transaction, session_id="eq-session"
            )

        run("CREATE TABLE eq_t (id INTEGER PRIMARY KEY, v INTEGER)")
        run("CREATE TABLE eq_gone (id INTEGER PRIMARY KEY)")
        run("INSERT INTO eq_t (id, v) VALUES (1, 10)")
        run("INSERT INTO eq_t (id, v) VALUES ($id, $v)", {"id": 2, "v": 20})
        run("UPDATE eq_t SET v = 11 WHERE id = 1")
        run("DELETE FROM eq_t WHERE id = 2")
        run("BEGIN")
        run("INSERT INTO eq_t (id, v) VALUES (3, 30)", in_transaction=True)
        run("UPDATE eq_t SET v = 12 WHERE id = 1", in_transaction=True)
        assert run("SELECT v FROM eq_t WHERE id = 1", in_transaction=True)[1] == [(12,)]
        run("COMMIT", in_transaction=True)
        run("BEGIN")
        run("UPDATE eq_t SET v = 99 WHERE id = 1", in_transaction=True)
        run("ROLLBACK", in_transaction=True)
        # Rejected by every replica: blames the statement, logs nothing.
        with pytest.raises(SchedulerError, match="every backend"):
            run("INSERT INTO eq_t (id, v) VALUES (1, 0)")
        # One replica dies: the next write marks it FAILED mid-script.
        chaos.fail_backend(env, controller, failing_replica)
        run("UPDATE eq_t SET v = 13 WHERE id = 1")
        run("INSERT INTO eq_t (id, v) VALUES (4, 40)")
        run("DROP TABLE eq_gone")
        return {
            "rows": [
                sorted(
                    engine.open_session(env.database_name)
                    .execute("SELECT id, v FROM eq_t")
                    .rows
                )
                for engine in env.replica_engines
            ],
            "log": [
                (entry.index, entry.sql, entry.params, entry.write_tables, entry.table_seqs)
                for entry in controller.recovery_log.entries_after(0)
            ],
            "backends": [
                (backend.name, backend.state, backend.checkpoint_index)
                for backend in controller.backends()
            ],
            "open_transactions": scheduler.open_transactions,
            "batcher_rounds": scheduler.stats()["write_batching"]["rounds"],
        }
    finally:
        env.close()


class TestScriptEndState:
    @pytest.mark.parametrize("failing_replica", [0, 1])
    def test_script_ends_in_the_pinned_state(self, failing_replica):
        """One script of auto-commit writes, a committed and a rolled-back
        transaction, a rejected write and a replica failure leaves pinned
        replicas, recovery log, backend states and checkpoints."""
        end = _run_script(failing_replica)
        # Its plain writes went through the batcher ...
        assert end["batcher_rounds"] > 0
        # ... the survivor holds the final rows, the failed replica froze
        # where it died, and its checkpoint keeps every write it missed
        # inside the replay range.
        survivor, failed = 1 - failing_replica, failing_replica
        assert end["rows"][survivor] == [(1, 13), (3, 30), (4, 40)]
        assert end["rows"][failed] == [(1, 12), (3, 30)]
        assert [sql.split()[0] for _, sql, _, _, _ in end["log"]] == [
            "CREATE", "CREATE", "INSERT", "INSERT", "UPDATE", "DELETE",
            "INSERT", "UPDATE", "UPDATE", "INSERT", "DROP",
        ]
        states = {name: (state, checkpoint) for name, state, checkpoint in end["backends"]}
        assert states[f"db{survivor + 1}"] == (BackendState.ENABLED, 11)
        assert states[f"db{failed + 1}"] == (BackendState.FAILED, 8)
        assert end["open_transactions"] == 0


class TestBatchedResync:
    def test_replay_is_chunked_through_execute_batch(self):
        log = RecoveryLog()
        for value in range(300):
            log.append(f"UPDATE t SET v = {value} WHERE id = 1", write_tables=["t"])
        connection = _NativeBatch()
        backend = Backend("b1", lambda: connection)
        replayed = backend.resync(log.entries_after(0))
        assert replayed == 300
        # 300 entries at the 128-entry chunk size: three round trips.
        assert connection.batch_calls == 3
        assert backend.checkpoint_index == 300
        assert backend.enabled
        assert len(connection.executed) == 300

    def test_chunk_flushes_before_a_skipped_entry_advances_checkpoint(self):
        log = RecoveryLog()
        for value in range(5):
            log.append(f"UPDATE t SET v = {value} WHERE id = 1", write_tables=["t"])
        connection = _NativeBatch()
        backend = Backend("b1", lambda: connection)
        replayed = backend.resync(
            log.entries_after(0), entry_filter=lambda entry: entry.index != 3
        )
        assert replayed == 4
        assert [sql for sql, _ in connection.executed] == [
            f"UPDATE t SET v = {value} WHERE id = 1" for value in (0, 1, 3, 4)
        ]
        assert backend.checkpoint_index == 5
        # The filtered entry forced an early flush: entries 1-2 went out
        # before its checkpoint advance, entries 4-5 in a second batch.
        assert connection.batch_calls == 2


class TestInListKeyScopes:
    def _scope(self, sql, params=None):
        return self._resolver("t").resolve(classify(sql), params)[0]

    def test_classifier_extracts_in_list_keys(self):
        scope = self._scope("UPDATE t SET v = 1 WHERE id IN (1, 2, 3)")
        assert scope == LockScope(keys=frozenset({("t", 1), ("t", 2), ("t", 3)}))

    def test_classifier_extracts_params_and_delete(self):
        scope = self._scope("DELETE FROM t WHERE id IN ($a, $b)", {"a": 1, "b": 1})
        assert scope == LockScope(keys=frozenset({("t", 1)}))

    def test_not_in_and_subqueries_and_or_never_match(self):
        table = LockScope(tables=frozenset({"t"}))
        assert self._scope("UPDATE t SET v = 1 WHERE id NOT IN (1, 2)") == table
        assert self._scope("UPDATE t SET v = 1 WHERE NOT (id IN (1, 2))") == table
        assert self._scope("UPDATE t SET v = 1 WHERE id IN (SELECT id FROM u)") == LockScope(
            tables=frozenset({"t", "u"})
        )
        # A top-level OR widens the matched rows: no conjunct bounds the
        # statement any more.
        assert self._scope("UPDATE t SET v = 1 WHERE id IN (1, 2) OR v = 3") == table
        # A PK-reassigning UPDATE moves rows to a key outside the list.
        assert self._scope("UPDATE t SET id = 9 WHERE id IN (1, 2)") == table

    def test_first_conjunct_per_column_is_the_bound(self):
        # key_terms keeps one conjunct per column; either is a sound
        # bound, the intersection would only be a tighter one.
        scope = self._scope("DELETE FROM t WHERE id IN (1, 2) AND id = 1")
        assert scope == LockScope(keys=frozenset({("t", 1), ("t", 2)}))

    @staticmethod
    def _resolver(table):
        rows = [(table, "", "id", 1, "INTEGER", True, None), (table, "", "v", 2, "INTEGER", False, None)]
        catalog = SimpleNamespace(execute=lambda sql, params, track: ([], rows, len(rows)))
        return ScopeResolver(lambda: [catalog])

    def test_in_list_resolves_to_multi_key_scope(self):
        resolver = self._resolver("ks_t")
        scope, _ = resolver.resolve(
            classify("UPDATE ks_t SET v = 2 WHERE id IN (1, '2', 3.0)"), None
        )
        # The engine's comparison coercions collapse 1 / '2' / 3.0 onto
        # integer keys.
        assert scope == LockScope(keys=frozenset({("ks_t", 1), ("ks_t", 2), ("ks_t", 3)}))
        scope, _ = resolver.resolve(
            classify("DELETE FROM ks_t WHERE id IN ($a, $b)"), {"a": 4, "b": 5}
        )
        assert scope == LockScope(keys=frozenset({("ks_t", 4), ("ks_t", 5)}))

    def test_one_unresolvable_element_poisons_the_list(self):
        # $missing cannot be resolved: the statement may touch a row no
        # listed key covers, so the whole scope falls back to the table.
        scope, _ = self._resolver("ks_p").resolve(
            classify("UPDATE ks_p SET v = 1 WHERE id IN (1, $missing)"), None
        )
        assert scope == LockScope(tables=frozenset({"ks_p"}))


@pytest.fixture
def saturated_cluster():
    env = build_cluster(
        replicas=2,
        controllers=1,
        controller_options={
            "max_in_flight_statements": 1,
            "max_session_queue_depth": 4,
        },
    )
    yield env
    env.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestAdmissionControl:
    def test_saturation_rejects_new_work_but_never_the_open_transaction(
        self, saturated_cluster
    ):
        env = saturated_cluster
        controller = env.controllers[0]
        runtime = ClusterDriverRuntime(name="adm-driver")
        url = env.client_url()
        tx = runtime.connect(url, network=env.network, busy_retries=0)
        cursor = tx.cursor()
        cursor.execute("CREATE TABLE adm_t (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("INSERT INTO adm_t (id, v) VALUES (1, 0)")
        tx.begin()
        cursor.execute("UPDATE adm_t SET v = 1 WHERE id = 1")

        # Stall the write path by holding the lock manager's exclusive
        # mode (what a resync or BEGIN holds, stretched out so the test
        # can observe the saturated window deterministically).
        exclusive = controller.scheduler._locks.exclusive()
        exclusive.__enter__()
        blocked = runtime.connect(url, network=env.network, busy_retries=0)
        blocked_done = threading.Event()
        blocked_errors = []

        def blocked_writer():
            try:
                blocked.cursor().execute("INSERT INTO adm_t (id, v) VALUES (2, 0)")
            except Exception as exc:  # noqa: BLE001 - surfaced below
                blocked_errors.append(exc)
            finally:
                blocked_done.set()

        thread = threading.Thread(target=blocked_writer)
        thread.start()
        patient_thread = None
        try:
            # The blocked writer waits on the exclusive lock *while
            # holding the only in-flight slot*: the controller is
            # saturated.
            assert _wait_for(
                lambda: controller.stats()["front_end"]["in_flight_statements"] == 1
            )

            # New work with retries exhausted surfaces the retryable error.
            probe = runtime.connect(url, network=env.network, busy_retries=0)
            with pytest.raises(OperationalError, match="server_busy"):
                probe.cursor().execute("SELECT 1")

            # New work with retries left spins in capped, jittered backoff.
            patient = runtime.connect(
                url,
                network=env.network,
                busy_retries=10_000,
                busy_backoff_ms=1.0,
                busy_backoff_cap_ms=5.0,
            )
            patient_done = threading.Event()
            patient_errors = []

            def patient_reader():
                try:
                    patient.cursor().execute("SELECT 1")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    patient_errors.append(exc)
                finally:
                    patient_done.set()

            patient_thread = threading.Thread(target=patient_reader)
            patient_thread.start()
            assert _wait_for(lambda: patient.stats()["server_busy_retries"] >= 1)

            # The open transaction's statements bypass admission even at
            # saturation: refusing them while blocked statements fill
            # every slot would deadlock the controller against its own
            # lock holders. With busy_retries=0 a rejection would bounce
            # back within milliseconds — instead the statement is
            # admitted and parks on the exclusive lock like any other
            # lock waiter (and holds no in-flight slot while it waits).
            tx_done = threading.Event()
            tx_errors = []

            def tx_writer():
                try:
                    tx.cursor().execute("UPDATE adm_t SET v = 3 WHERE id = 1")
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    tx_errors.append(exc)
                finally:
                    tx_done.set()

            tx_thread = threading.Thread(target=tx_writer)
            tx_thread.start()
            assert not tx_done.wait(timeout=0.2)
            assert controller.stats()["front_end"]["in_flight_statements"] == 1
        finally:
            exclusive.__exit__(None, None, None)
        assert blocked_done.wait(timeout=10.0)
        assert patient_done.wait(timeout=10.0)
        assert tx_done.wait(timeout=10.0)
        thread.join(timeout=5.0)
        patient_thread.join(timeout=5.0)
        tx_thread.join(timeout=5.0)
        tx.commit()
        assert blocked_errors == [] and patient_errors == [] and tx_errors == []

        stats = controller.stats()["front_end"]
        assert stats["server_busy_rejections"] >= 2
        assert stats["in_flight_peak"] <= 1
        assert patient.stats()["server_busy_retries"] >= 1
        assert patient.stats()["busy_backoff_seconds"] > 0.0
        for connection in (tx, blocked, probe, patient):
            connection.close()

    def test_session_queue_depth_bounds_a_pipelined_flood(self):
        env = build_cluster(
            replicas=2,
            controllers=1,
            controller_options={"max_session_queue_depth": 4},
        )
        try:
            controller = env.controllers[0]
            runtime = ClusterDriverRuntime(name="adm-depth-driver")
            flooder = runtime.connect(env.client_url(), network=env.network)
            assert flooder.multiplexed
            flooder.cursor().execute(
                "CREATE TABLE adm_q (id INTEGER PRIMARY KEY, v INTEGER)"
            )
            exclusive = controller.scheduler._locks.exclusive()
            exclusive.__enter__()
            flood_errors = []
            flood_done = threading.Event()

            def flood():
                try:
                    # The first statement blocks on the exclusive lock
                    # while draining; the rest pile into the session
                    # queue until the depth bound (4) refuses the
                    # overflow.
                    flooder.execute_pipeline(
                        [
                            ("INSERT INTO adm_q (id, v) VALUES ($i, 0)", {"i": value})
                            for value in range(12)
                        ]
                    )
                except OperationalError as exc:
                    flood_errors.append(exc)
                finally:
                    flood_done.set()

            thread = threading.Thread(target=flood)
            thread.start()
            try:
                assert _wait_for(
                    lambda: controller.stats()["front_end"]["server_busy_rejections"]
                    >= 1
                )
            finally:
                exclusive.__exit__(None, None, None)
            assert flood_done.wait(timeout=10.0)
            thread.join(timeout=5.0)
            # The overflow surfaced as the documented mid-pipeline error:
            # not auto-retried, because later statements were already
            # fired behind it.
            assert len(flood_errors) == 1
            assert "server_busy" in str(flood_errors[0])
            assert "may be re-issued" in str(flood_errors[0])
            flooder.close()
        finally:
            env.close()


class TestTransactionPipelining:
    def test_pipeline_inside_transaction_lands_in_order_before_commit(self, batched_cluster):
        env = batched_cluster
        runtime = ClusterDriverRuntime(name="txpipe-driver")
        connection = runtime.connect(env.client_url(), network=env.network)
        assert connection.multiplexed
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE txp_t (id INTEGER PRIMARY KEY, v INTEGER)")
        connection.begin()
        connection.execute_pipeline(
            [
                ("INSERT INTO txp_t (id, v) VALUES ($i, $v)", {"i": n, "v": n * 10})
                for n in range(10)
            ]
        )
        # The log defers buffered transaction writes until COMMIT: only
        # committed statements may ever be replayed by a resync.
        log = env.controllers[0].recovery_log

        def logged_inserts():
            return [
                entry
                for entry in log.entries_after(0)
                if entry.write_tables == ("txp_t",) and "INSERT" in entry.sql
            ]

        assert logged_inserts() == []
        connection.commit()
        assert [entry.params["i"] for entry in logged_inserts()] == list(range(10))
        other = runtime.connect(env.client_url(), network=env.network)
        other_cursor = other.cursor()
        other_cursor.execute("SELECT COUNT(*) FROM txp_t")
        assert other_cursor.fetchone() == (10,)
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            assert session.execute("SELECT v FROM txp_t WHERE id = 7").rows == [(70,)]
        connection.close()
        other.close()

    def test_pipeline_inside_transaction_rolls_back(self, batched_cluster):
        env = batched_cluster
        runtime = ClusterDriverRuntime(name="txpipe-rb-driver")
        connection = runtime.connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE txp_rb (id INTEGER PRIMARY KEY)")
        connection.begin()
        connection.execute_pipeline(
            [("INSERT INTO txp_rb (id) VALUES ($i)", {"i": n}) for n in range(5)]
        )
        connection.rollback()
        cursor.execute("SELECT COUNT(*) FROM txp_rb")
        assert cursor.fetchone() == (0,)
        # Discarded writes never reach the recovery log.
        entries = env.controllers[0].recovery_log.entries_after(0)
        assert not any(entry.write_tables == ("txp_rb",) and "INSERT" in entry.sql
                       for entry in entries)
        connection.close()


class TestDedicatedChannelUnchanged:
    def test_v2_style_dedicated_connection_works_under_batching(self, batched_cluster):
        env = batched_cluster
        runtime = ClusterDriverRuntime(name="dedicated-driver")
        connection = runtime.connect(
            env.client_url(), network=env.network, multiplexing=False
        )
        assert not connection.multiplexed
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE ded_t (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("INSERT INTO ded_t (id, v) VALUES (1, 41)")
        cursor.execute("UPDATE ded_t SET v = 42 WHERE id = 1")
        cursor.execute("SELECT v FROM ded_t WHERE id = 1")
        assert cursor.fetchone() == (42,)
        stats = connection.stats()
        assert stats["server_busy_retries"] == 0
        assert stats["busy_backoff_seconds"] == 0.0
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            assert session.execute("SELECT v FROM ded_t").rows == [(42,)]
        connection.close()
