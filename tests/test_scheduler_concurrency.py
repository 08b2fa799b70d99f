"""Concurrent clients against one controller: write ordering and no lost
updates under the parallel write broadcaster and the conflict-aware
lock manager (disjoint-table writes overlap; conflicting ones, and
everything touched by a resync, still serialise)."""

import threading
import time

import pytest

from repro.cluster.driver import ClusterDriverRuntime
from repro.cluster.scheduler import SchedulerError
from repro.experiments.environments import build_cluster


@pytest.fixture
def parallel_cluster():
    env = build_cluster(
        replicas=2,
        controllers=1,
        controller_options={"query_cache_enabled": True},
    )
    yield env
    env.close()


def _run_clients(env, worker, clients):
    """Run ``worker(connection, client_index)`` on one thread per client."""
    errors = []

    def body(client_index):
        runtime = ClusterDriverRuntime(name=f"concurrent-{client_index}")
        connection = runtime.connect(env.client_url(), network=env.network)
        try:
            worker(connection, client_index)
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=body, args=(client_index,), name=f"client-{client_index}")
        for client_index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestConcurrentWrites:
    CLIENTS = 4
    WRITES_PER_CLIENT = 15

    def test_no_lost_updates_and_log_matches(self, parallel_cluster):
        env = parallel_cluster
        controller = env.controllers[0]
        controller.scheduler.execute(
            "CREATE TABLE conc_t (id INTEGER NOT NULL PRIMARY KEY, client VARCHAR)"
        )
        base_log = controller.recovery_log.last_index

        def worker(connection, client_index):
            cursor = connection.cursor()
            for write_index in range(self.WRITES_PER_CLIENT):
                row_id = client_index * 1000 + write_index
                cursor.execute(
                    "INSERT INTO conc_t (id, client) VALUES ($id, $client)",
                    {"id": row_id, "client": f"c{client_index}"},
                )
            cursor.close()

        _run_clients(env, worker, self.CLIENTS)
        expected = self.CLIENTS * self.WRITES_PER_CLIENT

        # Every write is in the recovery log exactly once.
        entries = controller.recovery_log.entries_after(base_log)
        assert len(entries) == expected

        # Per-client ordering is preserved in the log (each client issued
        # its ids in increasing order over one session).
        per_client = {}
        for entry in entries:
            per_client.setdefault(entry.params["client"], []).append(entry.params["id"])
        assert set(per_client) == {f"c{i}" for i in range(self.CLIENTS)}
        for ids in per_client.values():
            assert ids == sorted(ids)

        # No lost updates: every replica holds every row.
        for engine in env.replica_engines:
            count = engine.open_session(env.database_name).execute(
                "SELECT COUNT(*) FROM conc_t"
            ).scalar()
            assert count == expected

    def test_read_modify_write_counter_is_not_lost(self, parallel_cluster):
        env = parallel_cluster
        controller = env.controllers[0]
        controller.scheduler.execute(
            "CREATE TABLE counter_t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)"
        )
        controller.scheduler.execute("INSERT INTO counter_t (id, v) VALUES (1, 0)")
        increments = 10

        def worker(connection, client_index):
            cursor = connection.cursor()
            for _ in range(increments):
                cursor.execute("UPDATE counter_t SET v = v + 1 WHERE id = 1")
            cursor.close()

        _run_clients(env, worker, self.CLIENTS)
        expected = self.CLIENTS * increments
        # The serialised write path applied every increment on every replica.
        for engine in env.replica_engines:
            value = engine.open_session(env.database_name).execute(
                "SELECT v FROM counter_t WHERE id = 1"
            ).scalar()
            assert value == expected

    def test_writes_racing_disable_enable_cycles_never_diverge(self, parallel_cluster):
        # Regression: the write path used to snapshot the backend set
        # before taking the write lock, so a write that waited out a
        # resync skipped the just-enabled backend — one silently lost
        # row per cycle.
        import time

        env = parallel_cluster
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE race_t (id INTEGER PRIMARY KEY)")
        stop = threading.Event()
        errors = []

        def writer():
            runtime = ClusterDriverRuntime(name="race-writer")
            connection = runtime.connect(env.client_url(), network=env.network)
            cursor = connection.cursor()
            row_id = 0
            try:
                while not stop.is_set():
                    cursor.execute(
                        "INSERT INTO race_t (id) VALUES ($id)", {"id": row_id}
                    )
                    row_id += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                connection.close()

        thread = threading.Thread(target=writer)
        thread.start()
        for _ in range(6):
            controller.disable_backend("db1")
            time.sleep(0.003)
            controller.enable_backend("db1")
            time.sleep(0.003)
        stop.set()
        thread.join(timeout=10.0)
        assert errors == []
        log_writes = controller.recovery_log.last_index - 1  # minus CREATE
        counts = [
            engine.open_session(env.database_name).execute(
                "SELECT COUNT(*) FROM race_t"
            ).scalar()
            for engine in env.replica_engines
        ]
        assert counts[0] == counts[1] == log_writes

    def test_disjoint_table_writers_lose_nothing_and_keep_per_table_order(
        self, parallel_cluster
    ):
        # The conflict-aware lock manager runs these four writers in
        # parallel (each owns its table); parallelism must not cost a
        # single row, and every replica must apply each table's writes
        # in that table's log order.
        env = parallel_cluster
        controller = env.controllers[0]
        for client_index in range(self.CLIENTS):
            controller.scheduler.execute(
                f"CREATE TABLE disj_t{client_index} "
                "(id INTEGER NOT NULL PRIMARY KEY, v INTEGER)"
            )
        base_log = controller.recovery_log.last_index

        def worker(connection, client_index):
            cursor = connection.cursor()
            for write_index in range(self.WRITES_PER_CLIENT):
                cursor.execute(
                    f"INSERT INTO disj_t{client_index} (id, v) VALUES ($id, $v)",
                    {"id": write_index, "v": write_index * 10},
                )
            cursor.close()

        _run_clients(env, worker, self.CLIENTS)

        # Every write logged exactly once, with strictly increasing
        # per-table sequence numbers in log-index order — the per-table
        # ordering model the resync replay depends on.
        entries = controller.recovery_log.entries_after(base_log)
        assert len(entries) == self.CLIENTS * self.WRITES_PER_CLIENT
        per_table = {}
        for entry in entries:
            assert entry.write_tables  # classifier extracted the target
            for table, seq in entry.table_seqs.items():
                per_table.setdefault(table, []).append(seq)
        assert set(per_table) == {f"disj_t{i}" for i in range(self.CLIENTS)}
        for seqs in per_table.values():
            assert seqs == sorted(seqs)
            assert len(seqs) == len(set(seqs))

        # No lost updates, on any replica, for any table.
        for engine in env.replica_engines:
            session = engine.open_session(env.database_name)
            for client_index in range(self.CLIENTS):
                rows = sorted(
                    session.execute(f"SELECT id, v FROM disj_t{client_index}").rows
                )
                assert rows == [
                    (i, i * 10) for i in range(self.WRITES_PER_CLIENT)
                ]

        # The writers really took narrow scopes, not the exclusive mode:
        # these single-row PK inserts all qualify for key-level locks.
        lock_stats = controller.scheduler.lock_manager.stats()
        assert lock_stats["key_acquisitions"] >= self.CLIENTS * self.WRITES_PER_CLIENT
        assert lock_stats["tables_held"] == 0
        assert lock_stats["keys_held"] == 0
        assert lock_stats["exclusive_held"] is False

    def test_same_table_disjoint_key_writers_lose_nothing(self, parallel_cluster):
        # One step narrower than the disjoint-table test: all writers
        # hammer ONE table, each updating only its own row. Key-level
        # locks let them overlap; no update may be lost on any replica,
        # and the recovery log's per-table sequences stay monotone even
        # though per-backend *execution* order can differ (disjoint
        # single-row writes commute).
        env = parallel_cluster
        controller = env.controllers[0]
        controller.scheduler.execute(
            "CREATE TABLE hot_t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER)"
        )
        for client_index in range(self.CLIENTS):
            controller.scheduler.execute(
                "INSERT INTO hot_t (id, v) VALUES ($id, -1)", {"id": client_index}
            )
        base_log = controller.recovery_log.last_index
        key_base = controller.scheduler.lock_manager.stats()["key_acquisitions"]

        def worker(connection, client_index):
            cursor = connection.cursor()
            for write_index in range(self.WRITES_PER_CLIENT):
                cursor.execute(
                    "UPDATE hot_t SET v = $v WHERE id = $id",
                    {"v": write_index, "id": client_index},
                )
            cursor.close()

        _run_clients(env, worker, self.CLIENTS)

        # Every write logged exactly once, hot_t's sequences strictly
        # increasing in log-index order.
        entries = controller.recovery_log.entries_after(base_log)
        assert len(entries) == self.CLIENTS * self.WRITES_PER_CLIENT
        seqs = [entry.table_seqs["hot_t"] for entry in entries]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

        # No lost updates: each writer's final value landed on every
        # replica (each row has exactly one writer, writing in order).
        for engine in env.replica_engines:
            rows = sorted(
                engine.open_session(env.database_name)
                .execute("SELECT id, v FROM hot_t")
                .rows
            )
            assert rows == [
                (i, self.WRITES_PER_CLIENT - 1) for i in range(self.CLIENTS)
            ]

        # The writers really took key scopes, and nothing leaked.
        lock_stats = controller.scheduler.lock_manager.stats()
        assert (
            lock_stats["key_acquisitions"] - key_base
            >= self.CLIENTS * self.WRITES_PER_CLIENT
        )
        assert lock_stats["keys_held"] == 0
        assert lock_stats["tables_held"] == 0
        assert lock_stats["exclusive_held"] is False

    def test_key_writers_racing_table_scope_writes_converge(self, parallel_cluster):
        # Keyed single-row UPDATEs race range UPDATEs on the same table.
        # The range predicate is unextractable, so those writes fall back
        # to the whole-table lock — which must conflict with every key in
        # BOTH directions, or the replicas would interleave the range
        # write differently and diverge.
        env = parallel_cluster
        controller = env.controllers[0]
        controller.scheduler.execute(
            "CREATE TABLE mix_t (id INTEGER NOT NULL PRIMARY KEY, v INTEGER, w INTEGER)"
        )
        for row in range(self.CLIENTS):
            controller.scheduler.execute(
                "INSERT INTO mix_t (id, v, w) VALUES ($id, -1, 0)", {"id": row}
            )
        sweeps = 8

        def worker(connection, client_index):
            cursor = connection.cursor()
            if client_index == 0:
                # The table-scope writer: a range update over every row.
                for _ in range(sweeps):
                    cursor.execute("UPDATE mix_t SET w = w + 1 WHERE id >= 0")
            else:
                for write_index in range(self.WRITES_PER_CLIENT):
                    cursor.execute(
                        "UPDATE mix_t SET v = $v WHERE id = $id",
                        {"v": write_index, "id": client_index},
                    )
            cursor.close()

        _run_clients(env, worker, self.CLIENTS)

        # Both granularities were exercised on the one table.
        lock_stats = controller.scheduler.lock_manager.stats()
        assert lock_stats["key_acquisitions"] > 0
        assert lock_stats["table_acquisitions"] > 0

        # Every replica identical: the keyed rows hold their writer's
        # last value, and every row saw all the range sweeps.
        for engine in env.replica_engines:
            rows = sorted(
                engine.open_session(env.database_name)
                .execute("SELECT id, v, w FROM mix_t")
                .rows
            )
            assert [row[0] for row in rows] == list(range(self.CLIENTS))
            for row_id, v, w in rows:
                assert w == sweeps
                if row_id != 0:
                    assert v == self.WRITES_PER_CLIENT - 1

    def test_resync_racing_disjoint_writers_converges(self, parallel_cluster):
        # A resync takes the exclusive lock mid-workload: it must drain
        # the in-flight table scopes, replay, re-enable, and hand the
        # write path back — with both replicas byte-identical at the end.
        env = parallel_cluster
        controller = env.controllers[0]
        writers = 3
        for writer_index in range(writers):
            controller.scheduler.execute(
                f"CREATE TABLE race_w{writer_index} (id INTEGER NOT NULL PRIMARY KEY)"
            )
        stop = threading.Event()
        errors = []
        counters = [0] * writers

        def writer(writer_index):
            runtime = ClusterDriverRuntime(name=f"race-writer-{writer_index}")
            connection = runtime.connect(env.client_url(), network=env.network)
            cursor = connection.cursor()
            try:
                while not stop.is_set():
                    cursor.execute(
                        f"INSERT INTO race_w{writer_index} (id) VALUES ($id)",
                        {"id": counters[writer_index]},
                    )
                    counters[writer_index] += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                connection.close()

        threads = [
            threading.Thread(target=writer, args=(index,)) for index in range(writers)
        ]
        for thread in threads:
            thread.start()
        for _ in range(6):
            controller.disable_backend("db1")
            time.sleep(0.003)
            controller.enable_backend("db1")
            time.sleep(0.003)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

        # Each writer's table holds exactly its issued rows on every
        # replica — the just-resynced one included.
        for writer_index in range(writers):
            counts = {
                engine.name: engine.open_session(env.database_name)
                .execute(f"SELECT COUNT(*) FROM race_w{writer_index}")
                .scalar()
                for engine in env.replica_engines
            }
            assert len(set(counts.values())) == 1, counts
            assert set(counts.values()) == {counters[writer_index]}

    def test_enable_refusal_names_session_and_tables(self, parallel_cluster):
        # Operator-triage bugfix: the mid-transaction refusal must say
        # *which* session holds the transaction open and what it wrote,
        # not just that "a transaction is open".
        env = parallel_cluster
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE tx_t (id INTEGER NOT NULL PRIMARY KEY)")
        controller.disable_backend("db1")
        scheduler.execute("BEGIN", session_id="session-abc123")
        try:
            scheduler.execute(
                "INSERT INTO tx_t (id) VALUES (1)",
                in_transaction=True,
                session_id="session-abc123",
            )
            with pytest.raises(SchedulerError) as refusal:
                controller.enable_backend("db1")
            message = str(refusal.value)
            assert "session-abc123" in message
            assert "tx_t" in message
        finally:
            scheduler.execute("ROLLBACK", in_transaction=True, session_id="session-abc123")
        controller.enable_backend("db1")

    def test_concurrent_reads_with_cache_stay_consistent(self, parallel_cluster):
        env = parallel_cluster
        controller = env.controllers[0]
        controller.scheduler.execute(
            "CREATE TABLE mixed_t (id INTEGER NOT NULL PRIMARY KEY)"
        )
        rows = 5
        for row_id in range(rows):
            controller.scheduler.execute(
                "INSERT INTO mixed_t (id) VALUES ($id)", {"id": row_id}
            )

        def worker(connection, client_index):
            cursor = connection.cursor()
            for _ in range(20):
                cursor.execute("SELECT COUNT(*) FROM mixed_t")
                assert cursor.fetchone() == (rows,)
            cursor.close()

        _run_clients(env, worker, self.CLIENTS)
        cache_stats = controller.scheduler.query_cache.stats()
        assert cache_stats["hits"] > 0
