"""Tests for the durable recovery subsystem (repro.cluster.recovery)."""

import json
import os
import stat

import pytest

import chaos

from repro.cluster import Backend, BackendState, Controller, ControllerConfig
from repro.cluster.recovery import (
    DatabaseDumper,
    FileLogStore,
    LogCompactedError,
    LogEntry,
    MemoryLogStore,
    RecoveryLog,
)
from repro.cluster.recovery.log import CheckpointError
from repro.cluster.recovery.logstore import LogStoreError
from repro.cluster.scheduler import SchedulerError
from repro.dbapi import legacy_driver
from repro.errors import DriverError


@pytest.fixture
def cluster_env():
    from repro.experiments.environments import build_cluster

    env = build_cluster(replicas=2, controllers=1)
    yield env
    env.close()


@pytest.fixture
def cached_cluster_env():
    from repro.experiments.environments import build_cluster

    env = build_cluster(
        replicas=2, controllers=1, controller_options={"query_cache_enabled": True}
    )
    yield env
    env.close()


def _select_all(backend_or_engine, env, sql):
    """Rows of ``sql`` on one replica engine (ground truth, no cache)."""
    return backend_or_engine.open_session(env.database_name).execute(sql).rows


class TestLogStores:
    def test_memory_store_truncation_bounds_entries(self):
        store = MemoryLogStore()
        for index in range(1, 11):
            store.append(LogEntry(index=index, sql=f"W{index}"))
        assert store.last_index == 10
        assert store.entry_count == 10
        dropped = store.truncate_through(6)
        assert dropped == 6
        assert store.truncated_through == 6
        assert store.entry_count == 4
        assert [e.index for e in store.entries_after(6)] == [7, 8, 9, 10]
        # last_index survives even when everything is truncated.
        store.truncate_through(10)
        assert store.entry_count == 0
        assert store.last_index == 10

    def test_file_store_persists_across_reopen(self, tmp_path):
        directory = str(tmp_path / "log")
        store = FileLogStore(directory, segment_max_entries=3)
        for index in range(1, 8):
            store.append(LogEntry(index=index, sql=f"INSERT {index}", params={"i": index}))
        store.close()
        reopened = FileLogStore(directory, segment_max_entries=3)
        assert reopened.last_index == 7
        entries = reopened.entries_after(4)
        assert [e.index for e in entries] == [5, 6, 7]
        assert entries[0].params == {"i": 5}
        # Appends continue where the previous process stopped.
        reopened.append(LogEntry(index=8, sql="INSERT 8"))
        assert reopened.last_index == 8
        reopened.close()

    def test_file_store_recovers_from_partial_trailing_line(self, tmp_path):
        directory = str(tmp_path / "log")
        store = FileLogStore(directory, segment_max_entries=100)
        for index in range(1, 4):
            store.append(LogEntry(index=index, sql=f"W{index}"))
        store.close()
        # Simulate a crash mid-append: a torn, newline-less partial record.
        segments = [n for n in os.listdir(directory) if n.endswith(".jsonl")]
        with open(os.path.join(directory, segments[0]), "a", encoding="utf-8") as handle:
            handle.write('{"index": 4, "sql": "INSERT half')
        recovered = FileLogStore(directory)
        assert recovered.recovered_partial_lines == 1
        assert recovered.last_index == 3
        recovered.append(LogEntry(index=4, sql="W4"))
        recovered.close()
        clean = FileLogStore(directory)
        assert [e.sql for e in clean.entries_after(2)] == ["W3", "W4"]
        clean.close()

    def test_file_store_compaction_deletes_whole_segments(self, tmp_path):
        directory = str(tmp_path / "log")
        store = FileLogStore(directory, segment_max_entries=2)
        for index in range(1, 8):
            store.append(LogEntry(index=index, sql=f"W{index}"))
        assert len([n for n in os.listdir(directory) if n.endswith(".jsonl")]) == 4
        dropped = store.truncate_through(5)
        # Whole segments only: [1,2] and [3,4] go, [5,6] survives (holds 6).
        assert dropped == 4
        assert store.truncated_through == 4
        assert len([n for n in os.listdir(directory) if n.endswith(".jsonl")]) == 2
        assert [e.index for e in store.entries_after(4)] == [5, 6, 7]
        store.close()
        # The floor survives restart through the state record.
        with open(os.path.join(directory, "state.json"), encoding="utf-8") as handle:
            assert json.load(handle)["truncated_through"] == 4
        reopened = FileLogStore(directory)
        assert reopened.truncated_through == 4
        assert reopened.last_index == 7
        reopened.close()

    def test_reopen_survives_crash_between_meta_write_and_segment_delete(self, tmp_path):
        # truncate_through records the floor (state.json) *before*
        # deleting files; a crash in between leaves stale segments below the floor that the
        # next open must clean up instead of refusing to load.
        directory = str(tmp_path / "log")
        store = FileLogStore(directory, segment_max_entries=2)
        for index in range(1, 7):
            store.append(LogEntry(index=index, sql=f"W{index}"))
        store.truncate_through(4)
        store.close()
        with open(os.path.join(directory, "state.json"), encoding="utf-8") as handle:
            assert json.load(handle)["truncated_through"] == 4
        # Resurrect a segment below the persisted floor (as if os.remove
        # never ran before the crash).
        stale = os.path.join(directory, "segment-00000001.jsonl")
        with open(stale, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(LogEntry(index=1, sql="W1").to_wire()) + "\n")
            handle.write(json.dumps(LogEntry(index=2, sql="W2").to_wire()) + "\n")
        reopened = FileLogStore(directory, segment_max_entries=2)
        assert reopened.truncated_through == 4
        assert reopened.last_index == 6
        assert not os.path.exists(stale)
        reopened.close()

    def test_reader_tolerates_the_retired_transaction_id_key(self, tmp_path):
        # Log lines written before LogEntry lost ``transaction_id`` carry
        # a ``"transaction_id": null`` pair; new lines do not.
        old_line = dict(LogEntry(index=1, sql="W1").to_wire(), transaction_id=None)
        os.makedirs(tmp_path / "log")
        with open(tmp_path / "log" / "segment-00000001.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(old_line) + "\n")
        store = FileLogStore(str(tmp_path / "log"))
        store.append(LogEntry(index=2, sql="W2"))
        assert [entry.sql for entry in store.entries_after(0)] == ["W1", "W2"]
        assert "transaction_id" not in LogEntry(index=2, sql="W2").to_wire()
        store.close()

    def test_fsync_on_append(self, tmp_path):
        store = FileLogStore(str(tmp_path / "log"), fsync_on_append=True)
        store.append(LogEntry(index=1, sql="W1"))
        assert store.stats()["fsync_on_append"] is True
        store.close()

    @staticmethod
    def _spy_fsyncs(monkeypatch):
        """Record each ``os.fsync`` as "dir" or "file" (by what the fd
        is) and each ``os.replace`` as "replace", in call order."""
        calls = []
        fsync, replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            fsync(fd)

        def spy_replace(src, dst):
            calls.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        return calls

    def test_the_state_record_is_durable_once_written(self, tmp_path, monkeypatch):
        # A rename is durable only once its directory is fsynced: without
        # it the epoch could go back after a crash.
        store = FileLogStore(str(tmp_path / "log"))
        calls = self._spy_fsyncs(monkeypatch)
        store.record_epoch(3)
        assert calls == ["file", "replace", "dir"]
        assert FileLogStore(str(tmp_path / "log")).epoch == 3

    def test_a_new_segment_file_is_durable_before_its_entries(self, tmp_path, monkeypatch):
        # One directory fsync per segment file created (entries 1, 3 and
        # 5 open one each), none for appends to a segment that exists.
        directory = str(tmp_path / "log")
        store = FileLogStore(directory, segment_max_entries=2, fsync_on_append=True)
        calls = self._spy_fsyncs(monkeypatch)
        for index in range(1, 6):
            store.append(LogEntry(index=index, sql=f"W{index}"))
        assert calls.count("dir") == 3 == len(os.listdir(directory))
        assert calls[0] == "dir"  # before the first entry's own fsync
        store.close()
        reopened = FileLogStore(directory, segment_max_entries=2, fsync_on_append=True)
        calls.clear()
        reopened.append(LogEntry(index=6, sql="W6"))
        assert calls == ["file"]
        reopened.close()

    def test_blob_params_roundtrip(self, tmp_path):
        store = FileLogStore(str(tmp_path / "log"))
        store.append(LogEntry(index=1, sql="W", params={"data": b"\x00\xff\x01"}))
        store.close()
        reopened = FileLogStore(str(tmp_path / "log"))
        assert reopened.entries_after(0)[0].params == {"data": b"\x00\xff\x01"}
        reopened.close()


class TestStateRecord:
    """The controller's one durable record: floor, epoch and checkpoints
    in ``state.json``, refused whole when any part of it is malformed."""

    VALID = {"truncated_through": 0, "epoch": None, "checkpoints": []}

    @pytest.mark.parametrize(
        "record",
        [
            "{not json",
            [],
            {"truncated_through": None},
            {"truncated_through": -3},
            {"truncated_through": True},
            {"epoch": 0},
            {"epoch": "x"},
            {"checkpoints": 3},
            {"checkpoints": [{"name": "x"}]},
            {"checkpoints": [{"name": "x", "index": -5}]},
            {"checkpoints": [{"name": 7, "index": 1}]},
            {"checkpoints": ["x"]},
        ],
    )
    def test_malformed_record_refuses_to_open(self, tmp_path, record):
        if isinstance(record, dict):
            record = dict(self.VALID, **record)
        content = record if isinstance(record, str) else json.dumps(record)
        (tmp_path / "state.json").write_text(content)
        with pytest.raises(LogStoreError, match="corrupt controller state"):
            FileLogStore(str(tmp_path))

    def test_a_directory_of_the_older_layout_refuses_to_open(self, tmp_path):
        # Without its epoch a 3-peer node with the smallest address would
        # restart as primary at epoch 1: the old files are never ignored.
        for name in ("logmeta.json", "checkpoints.json", "ha.json"):
            directory = tmp_path / name.split(".")[0]
            directory.mkdir()
            (directory / name).write_text('{"truncated_through": 0}')
            with pytest.raises(LogStoreError, match=name):
                FileLogStore(str(directory))

    def test_the_record_holds_floor_epoch_and_checkpoints(self, tmp_path):
        store = FileLogStore(str(tmp_path), segment_max_entries=2)
        for index in range(1, 6):
            store.append(LogEntry(index=index, sql=f"W{index}"))
        store.truncate_through(3)
        store.record_epoch(4)
        store.record_checkpoints({"pin": 3})
        store.close()
        with open(tmp_path / "state.json", encoding="utf-8") as handle:
            assert json.load(handle) == {
                "truncated_through": 2,
                "epoch": 4,
                "checkpoints": [{"name": "pin", "index": 3}],
            }
        assert sorted(os.listdir(tmp_path)) == [
            "segment-00000003.jsonl", "segment-00000005.jsonl", "state.json"
        ]
        reopened = FileLogStore(str(tmp_path))
        assert (reopened.truncated_through, reopened.epoch) == (2, 4)
        assert reopened.checkpoints == {"pin": 3}
        reopened.close()


class TestRecoveryLogCheckpoints:
    def test_create_release_and_floor(self):
        log = RecoveryLog()
        for i in range(10):
            log.append(f"W{i}")
        log.checkpoint("alpha", 5)
        log.checkpoint("beta", 3)
        log.compact()
        assert log.first_index == 4
        assert "beta" in log.checkpoints
        with pytest.raises(CheckpointError):
            log.checkpoint("alpha", 9)
        with pytest.raises(CheckpointError):
            log.checkpoint("gamma", -1)
        log.checkpoint("alpha", 9, overwrite=True)
        assert log.checkpoints["alpha"] == 9
        assert log.release_checkpoint("beta") is True
        assert log.release_checkpoint("beta") is False
        log.compact()
        assert log.first_index == 10

    def test_persistence(self, tmp_path):
        directory = str(tmp_path / "log")
        log = RecoveryLog(store=FileLogStore(directory))
        log.checkpoint("dump-5", 5)
        log.close()
        reloaded = RecoveryLog(store=FileLogStore(directory))
        assert reloaded.checkpoints["dump-5"] == 5
        assert sorted(reloaded.checkpoints) == ["dump-5"]
        reloaded.close()


class TestRecoveryLogCompaction:
    def test_compaction_respects_oldest_live_checkpoint(self):
        log = RecoveryLog()
        for i in range(10):
            log.append(f"W{i}")
        log.checkpoint("pin", 4)
        dropped = log.compact()
        assert dropped == 4  # entries 1..4: the checkpoint itself stays replay-from-able
        assert log.first_index == 5
        assert [e.index for e in log.entries_after(4)] == [5, 6, 7, 8, 9, 10]
        with pytest.raises(LogCompactedError):
            log.entries_after(2)
        log.release_checkpoint("pin")
        log.compact()
        assert log.stats()["retained_entries"] == 0
        assert log.last_index == 10

    def test_auto_compaction_bounds_memory(self):
        log = RecoveryLog(auto_compact_every=10)
        for i in range(100):
            log.append(f"W{i}")
        assert log.last_index == 100
        assert log.stats()["retained_entries"] <= 10
        assert log.compactions >= 9

    def test_compaction_never_truncates_past_live_checkpoints(self):
        log = RecoveryLog(auto_compact_every=5)
        log.checkpoint("backend:db1", 0)
        for i in range(50):
            log.append(f"W{i}")
        # The pinned backend can still replay its whole range.
        assert len(log.entries_after(0)) == 50


class TestDatabaseDumper:
    def test_dump_restore_schema_and_values_roundtrip(self, cluster_env):
        env = cluster_env
        scheduler = env.controllers[0].scheduler
        scheduler.execute(
            "CREATE TABLE parent (id INTEGER PRIMARY KEY, note VARCHAR NOT NULL)"
        )
        scheduler.execute(
            "CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES parent(id), "
            "flag BOOLEAN, data BLOB, score DOUBLE)"
        )
        scheduler.execute("INSERT INTO parent (id, note) VALUES (1, 'alpha')")
        scheduler.execute(
            "INSERT INTO child (id, pid, flag, data, score) VALUES ($i, $p, $f, $d, $s)",
            {"i": 10, "p": 1, "f": True, "d": b"\x00\x01\xfe", "s": 2.5},
        )
        source = env.controllers[0].backend("db1")
        dump = DatabaseDumper().dump(source.execute, checkpoint_index=4, source="db1")
        assert dump.checkpoint_index == 4
        assert dump.table_count == 2
        # Parent restores before child (REFERENCES ordering).
        assert [t.name for t in dump.tables] == ["parent", "child"]
        child = dump.tables[1]
        by_name = {c.name: c for c in child.columns}
        assert by_name["pid"].references_table == "parent"
        assert by_name["data"].data_type == "BLOB"
        # Restore into a brand-new replica and compare byte-for-byte.
        backend = env.new_replica()
        DatabaseDumper().restore(dump, backend.execute)
        for sql in ("SELECT * FROM parent", "SELECT * FROM child"):
            _, restored_rows, _ = backend.execute(sql)
            _, source_rows, _ = source.execute(sql)
            assert restored_rows == source_rows

    def test_dump_preserves_schema_qualified_tables(self, cluster_env):
        env = cluster_env
        scheduler = env.controllers[0].scheduler
        scheduler.execute("CREATE TABLE app.users (id INTEGER PRIMARY KEY, name VARCHAR)")
        scheduler.execute("INSERT INTO app.users (id, name) VALUES (1, 'q')")
        source = env.controllers[0].backend("db1")
        dump = DatabaseDumper().dump(source.execute)
        assert [t.name for t in dump.tables] == ["app.users"]
        target = env.new_replica()
        target.execute("CREATE TABLE app.users (id INTEGER PRIMARY KEY, name VARCHAR)")
        target.execute("INSERT INTO app.users (id, name) VALUES (9, 'stale')")
        DatabaseDumper().restore(dump, target.execute)  # wipe drops the qualified table
        _, rows, _ = target.execute("SELECT * FROM app.users")
        assert rows == [(1, "q")]

    def test_restore_wipes_stale_state(self, cluster_env):
        env = cluster_env
        scheduler = env.controllers[0].scheduler
        scheduler.execute("CREATE TABLE keep_t (id INTEGER PRIMARY KEY)")
        scheduler.execute("INSERT INTO keep_t (id) VALUES (1)")
        source = env.controllers[0].backend("db1")
        dump = DatabaseDumper().dump(source.execute)
        target = env.new_replica()
        target.execute("CREATE TABLE stale_t (id INTEGER PRIMARY KEY)")
        DatabaseDumper().restore(dump, target.execute)
        _, rows, _ = target.execute(
            "SELECT table_name FROM information_schema.tables"
        )
        assert ("stale_t",) not in rows
        assert ("keep_t",) in rows


class TestColdStart:
    def test_new_backend_via_dump_plus_tail_replay(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute(
            "CREATE TABLE events (id INTEGER PRIMARY KEY, payload VARCHAR, data BLOB)"
        )
        for i in range(5):
            scheduler.execute(
                "INSERT INTO events (id, payload, data) VALUES ($i, $p, $d)",
                {"i": i, "p": f"row-{i}", "d": bytes([i])},
            )
        dump = controller.dump_database()
        assert dump.checkpoint_name in controller.recovery_log.checkpoints
        # Tail writes land *after* the dump was taken.
        for i in range(5, 9):
            scheduler.execute(
                "INSERT INTO events (id, payload, data) VALUES ($i, $p, $d)",
                {"i": i, "p": f"row-{i}", "d": bytes([i])},
            )
        newcomer = env.new_replica()
        replayed = controller.add_backend_from_dump(newcomer, dump)
        assert replayed == 4  # exactly the tail, not the full history
        assert newcomer.state == BackendState.ENABLED
        assert newcomer in controller.backends()
        # The dump's pin was released after the cold start completed.
        assert dump.checkpoint_name not in controller.recovery_log.checkpoints
        # Byte-identical SELECT results across every replica.
        reference = None
        for backend in controller.backends():
            _, rows, _ = backend.execute("SELECT * FROM events")
            if reference is None:
                reference = rows
            assert rows == reference
        assert len(reference) == 9

    def test_provision_backend_one_call(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE p_t (id INTEGER PRIMARY KEY)")
        controller.scheduler.execute("INSERT INTO p_t (id) VALUES (1)")
        newcomer = env.new_replica()
        statements = controller.provision_backend(newcomer)
        assert statements >= 2  # CREATE + INSERT
        assert newcomer.enabled
        _, rows, _ = newcomer.execute("SELECT * FROM p_t")
        assert rows == [(1,)]
        assert controller.stats()["recovery"]["cold_starts"] == 1

    def test_resync_falls_back_to_dump_after_compaction(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE c_t (id INTEGER PRIMARY KEY)")
        controller.disable_backend("db1")
        for i in range(10):
            scheduler.execute("INSERT INTO c_t (id) VALUES ($i)", {"i": i})
        # Drop the disabled backend's pin, then compact: its replay range
        # is gone and only a dump can bring it back.
        controller.recovery_log.release_checkpoint("backend:db1")
        controller.compact_recovery_log()
        backend = controller.backend("db1")
        with pytest.raises(SchedulerError):
            scheduler.resync_and_enable(backend)  # no dumper -> refused
        assert backend.state in (BackendState.DISABLED, BackendState.FAILED)
        replayed = controller.enable_backend("db1")  # dump fallback built in
        assert replayed == 0
        assert backend.enabled
        _, rows, _ = backend.execute("SELECT COUNT(*) FROM c_t")
        assert rows == [(10,)]


class TestOneWayIntoTheRotation:
    """Every join goes through ``RequestScheduler.resync_and_enable``,
    which is also the only code that registers a member."""

    @pytest.mark.parametrize("entry_point", ["add_backend_from_dump", "provision_backend"])
    def test_refused_first_join_leaves_no_ghost_and_the_retry_joins_once(
        self, cluster_env, entry_point
    ):
        from repro.cluster import ClusterDriverRuntime

        env = cluster_env
        controller = env.controllers[0]
        connection = ClusterDriverRuntime().connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE j_t (id INTEGER PRIMARY KEY, v INTEGER)")
        cursor.execute("INSERT INTO j_t (id, v) VALUES (1, 1)")
        newcomer = env.new_replica()
        if entry_point == "add_backend_from_dump":
            dump = controller.dump_database()
            cursor.execute("INSERT INTO j_t (id, v) VALUES (2, 1)")  # the tail
            join = lambda: controller.add_backend_from_dump(newcomer, dump)  # noqa: E731
        else:
            join = lambda: controller.provision_backend(newcomer)  # noqa: E731

        cursor.execute("BEGIN")
        # The BEGIN rides the transaction's first statement: that opens it.
        cursor.execute("SELECT v FROM j_t WHERE id = 1")
        with pytest.raises(SchedulerError, match="retry after it ends"):
            join()
        assert newcomer not in controller.backends()
        assert newcomer.name not in controller.placement.backend_names()
        cursor.execute("COMMIT")

        joined = join()  # retry, as the refusal said
        assert [backend.name for backend in controller.backends()] == ["db1", "db2", "db3"]
        assert controller.placement.backend_names() == ["db1", "db2", "db3"]
        assert newcomer.enabled
        cold_starts = controller.stats()["recovery"]["cold_starts"]
        if entry_point == "add_backend_from_dump":
            # The operator's dump was restored outside the path; the
            # join replayed exactly the tail written after it.
            assert joined == 1 and cold_starts == 0
            assert dump.checkpoint_name not in controller.recovery_log.checkpoints
        else:
            assert joined >= 2 and cold_starts == 1  # restore statements: CREATE + rows
        # Every later write is applied exactly once on every replica.
        cursor.execute("UPDATE j_t SET v = v + 10 WHERE id = 1")
        for engine in env.replica_engines:
            assert _select_all(engine, env, "SELECT v FROM j_t WHERE id = 1") == [(11,)]
        connection.close()

    def test_joining_an_enabled_member_again_changes_no_membership(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE tw_t (id INTEGER PRIMARY KEY)")
        controller.scheduler.execute("INSERT INTO tw_t (id) VALUES (1)")
        newcomer = env.new_replica()
        controller.provision_backend(newcomer)
        controller.provision_backend(newcomer)
        assert controller.scheduler.resync_and_enable(newcomer) == 0
        assert [backend.name for backend in controller.backends()] == ["db1", "db2", "db3"]
        assert controller.placement.backend_names() == ["db1", "db2", "db3"]
        controller.scheduler.execute("INSERT INTO tw_t (id) VALUES (2)")
        for engine in env.replica_engines:
            assert _select_all(engine, env, "SELECT COUNT(*) FROM tw_t") == [(2,)]

    def test_second_backend_object_under_a_taken_name_is_refused(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE nm_t (id INTEGER PRIMARY KEY)")
        impostor = env.new_replica()
        impostor.name = "db1"
        with pytest.raises(SchedulerError, match="already registered"):
            controller.provision_backend(impostor)
        assert [backend.name for backend in controller.backends()] == ["db1", "db2"]
        assert impostor not in controller.backends()

    def test_cold_rejoin_of_a_disabled_member_releases_its_pin(self, cluster_env):
        # Re-seeding a stale member is the same path with ``cold=True``:
        # the checkpoint that pinned its replay range is released like
        # after any other rejoin, so compaction is not blocked forever.
        env = cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE cr_t (id INTEGER PRIMARY KEY)")
        controller.disable_backend("db1")
        scheduler.execute("INSERT INTO cr_t (id) VALUES (1)")
        assert "backend:db1" in controller.recovery_log.checkpoints
        controller.provision_backend(controller.backend("db1"))
        assert controller.backend("db1").enabled
        assert "backend:db1" not in controller.recovery_log.checkpoints
        assert [backend.name for backend in controller.backends()] == ["db1", "db2"]
        assert _select_all(env.replica_engines[0], env, "SELECT COUNT(*) FROM cr_t") == [(1,)]

    def test_refused_rejoin_keeps_the_member(self, cluster_env):
        # Only a never-enabled newcomer is un-registered by a refusal.
        from repro.cluster import ClusterDriverRuntime

        env = cluster_env
        controller = env.controllers[0]
        connection = ClusterDriverRuntime().connect(env.client_url(), network=env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE rj_t (id INTEGER PRIMARY KEY)")
        controller.disable_backend("db1")
        cursor.execute("BEGIN")
        # The BEGIN rides the transaction's first statement: that opens it.
        cursor.execute("SELECT COUNT(*) FROM rj_t")
        with pytest.raises(SchedulerError, match="retry after it ends"):
            controller.enable_backend("db1")
        cursor.execute("COMMIT")
        assert controller.backend("db1").state == BackendState.DISABLED
        assert controller.placement.backend_names() == ["db1", "db2"]
        controller.enable_backend("db1")
        assert controller.backend("db1").enabled
        connection.close()


class TestDurableControllerRestart:
    def _make_controller(self, env, log_dir, backends=None):
        controller = Controller(
            ControllerConfig(controller_id="durable-ctrl", virtual_database="vdb", log_dir=log_dir),
            env.network,
            "durable-ctrl:25322",
            backends=backends
            or [
                Backend(
                    f"db{i + 1}",
                    (lambda a: lambda: legacy_driver.connect(
                        f"pydb://{a}/{env.database_name}", network=env.network
                    ))(address),
                )
                for i, address in enumerate(env.replica_addresses)
            ],
        )
        return controller

    def test_restart_resumes_pre_crash_last_index(self, cluster_env, tmp_path):
        env = cluster_env
        log_dir = str(tmp_path / "ctrl-log")
        controller = self._make_controller(env, log_dir)
        controller.scheduler.execute("CREATE TABLE d_t (id INTEGER PRIMARY KEY)")
        for i in range(6):
            controller.scheduler.execute("INSERT INTO d_t (id) VALUES ($i)", {"i": i})
        pre_crash = controller.recovery_log.last_index
        assert pre_crash == 7
        controller.recovery_log.close()

        # "Restart": a brand-new controller process on the same directory.
        restarted = self._make_controller(env, log_dir)
        assert restarted.recovery_log.last_index == pre_crash
        restarted.scheduler.execute("INSERT INTO d_t (id) VALUES (100)")
        assert restarted.recovery_log.last_index == pre_crash + 1
        # Disable/enable across the restart boundary still replays the
        # persisted history (checkpoints survive too).
        backend = restarted.backend("db1")
        restarted.disable_backend("db1")
        restarted.scheduler.execute("INSERT INTO d_t (id) VALUES (101)")
        restarted.recovery_log.close()
        second = self._make_controller(env, log_dir)
        second_backend = second.backend("db1")
        second_backend.disable(backend.checkpoint_index)
        assert second.recovery_log.checkpoints["backend:db1"] == backend.checkpoint_index
        replayed = second.enable_backend("db1")
        assert replayed == 1
        second.recovery_log.close()


class TestQueryCacheInvalidationOnEnable:
    def test_enable_backend_flushes_query_cache(self, cached_cluster_env):
        # Regression (stale-read hazard): re-enabling a resynced backend
        # used to leave the query cache untouched, so entries cached while
        # the backend was out of rotation could be served against its
        # replayed state. The enable path must flush.
        env = cached_cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        cache = scheduler.query_cache
        scheduler.execute("CREATE TABLE q_t (id INTEGER PRIMARY KEY)")
        scheduler.execute("INSERT INTO q_t (id) VALUES (1)")
        controller.disable_backend("db1")
        scheduler.execute("SELECT COUNT(*) FROM q_t")
        scheduler.execute("SELECT COUNT(*) FROM q_t")
        assert len(cache) == 1
        assert cache.hits >= 1
        controller.enable_backend("db1")
        assert len(cache) == 0  # flushed: nothing cached pre-enable survives
        columns, rows, _ = scheduler.execute("SELECT COUNT(*) FROM q_t")
        assert rows == [(1,)]


class TestFailureDetector:
    def test_detector_disables_dead_backend_and_resyncs_on_recovery(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE hb_t (id INTEGER PRIMARY KEY)")
        scheduler.execute("INSERT INTO hb_t (id) VALUES (1)")
        # First round: everyone alive, heartbeats recorded.
        report = controller.heartbeat()
        assert report["disabled"] == []
        assert all(b.last_heartbeat_at > 0 for b in controller.backends())

        chaos.fail_backend(env, controller, 0)
        # Default config needs two consecutive misses.
        first = controller.heartbeat()
        assert first["disabled"] == [] and first["pending"] == ["db1"]
        second = controller.heartbeat()
        assert second["disabled"] == ["db1"]
        backend = controller.backend("db1")
        assert backend.state == BackendState.DISABLED
        assert "backend:db1" in controller.recovery_log.checkpoints

        # Writes keep flowing to the healthy replica while db1 is down.
        scheduler.execute("INSERT INTO hb_t (id) VALUES (2)")
        scheduler.execute("INSERT INTO hb_t (id) VALUES (3)")

        chaos.revive_backend(env, 0)
        recovery = controller.heartbeat()
        assert recovery["resynced"] == ["db1"]
        assert backend.enabled
        _, rows, _ = backend.execute("SELECT COUNT(*) FROM hb_t")
        assert rows == [(3,)]
        stats = controller.stats()["recovery"]["failure_detector"]
        assert stats["failures_detected"] == 1
        assert stats["backends_resynced"] == 1

    def test_detector_leaves_admin_disabled_backends_alone(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE adm_t (id INTEGER PRIMARY KEY)")
        controller.disable_backend("db1")  # operator intent
        report = controller.heartbeat()
        assert report["resynced"] == []
        assert controller.backend("db1").state == BackendState.DISABLED

    def test_admin_disable_overrides_earlier_auto_disable(self, cluster_env):
        # Operator intent outranks liveness even when the detector had
        # already claimed the backend: an explicit disable_backend after
        # an auto-disable must stop the detector from resyncing it.
        env = cluster_env
        controller = env.controllers[0]
        controller.scheduler.execute("CREATE TABLE ovr_t (id INTEGER PRIMARY KEY)")
        chaos.fail_backend(env, controller, 0)
        controller.heartbeat()
        controller.heartbeat()
        assert controller.backend("db1").state == BackendState.DISABLED
        controller.disable_backend("db1")  # operator takes it for maintenance
        chaos.revive_backend(env, 0)
        report = controller.heartbeat()
        assert report["resynced"] == []
        assert controller.backend("db1").state == BackendState.DISABLED

    def test_disable_of_already_disabled_backend_keeps_its_checkpoint(self, cluster_env):
        # Regression: disabling an already-DISABLED/FAILED backend used to
        # re-record the checkpoint at the current log head, so the next
        # resync skipped every write it missed — silent divergence.
        env = cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE ckpt_t (id INTEGER PRIMARY KEY)")
        chaos.fail_backend(env, controller, 0)
        controller.heartbeat()
        controller.heartbeat()  # auto-disable at checkpoint 1
        original = controller.backend("db1").checkpoint_index
        scheduler.execute("INSERT INTO ckpt_t (id) VALUES (1)")
        scheduler.execute("INSERT INTO ckpt_t (id) VALUES (2)")
        controller.disable_backend("db1")  # must NOT advance to the head
        assert controller.backend("db1").checkpoint_index == original
        assert controller.recovery_log.checkpoints["backend:db1"] == original
        chaos.revive_backend(env, 0)
        replayed = controller.enable_backend("db1")
        assert replayed == 2
        _, rows, _ = controller.backend("db1").execute("SELECT COUNT(*) FROM ckpt_t")
        assert rows == [(2,)]

    def test_detector_resyncs_write_path_failures(self, cluster_env):
        env = cluster_env
        controller = env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE wf_t (id INTEGER PRIMARY KEY)")
        chaos.fail_backend(env, controller, 0)
        scheduler.execute("INSERT INTO wf_t (id) VALUES (1)")  # marks db1 FAILED
        assert controller.backend("db1").state == BackendState.FAILED
        chaos.revive_backend(env, 0)
        report = controller.heartbeat()
        assert report["resynced"] == ["db1"]
        _, rows, _ = controller.backend("db1").execute("SELECT COUNT(*) FROM wf_t")
        assert rows == [(1,)]

    def test_detector_revives_the_last_replica_after_a_transaction_died_with_it(self):
        # The replica's server dies under an open transaction: the
        # transaction died with it, so the detector's resync must not wait
        # for it to end — with one replica, nothing else can take writes.
        from repro.cluster import ClusterDriverRuntime
        from repro.experiments.environments import build_cluster

        env = build_cluster(replicas=1, controllers=1)
        try:
            controller = env.controllers[0]
            runtime = ClusterDriverRuntime()
            owner = runtime.connect(env.client_url(), network=env.network)
            cursor = owner.cursor()
            cursor.execute("CREATE TABLE dead_tx_t (id INTEGER PRIMARY KEY)")
            cursor.execute("BEGIN")
            cursor.execute("INSERT INTO dead_tx_t (id) VALUES (1)")
            chaos.fail_backend(env, controller, 0)
            assert controller.heartbeat()["pending"] == ["db1"]
            assert controller.heartbeat()["disabled"] == ["db1"]
            chaos.revive_backend(env, 0)
            assert controller.heartbeat()["resynced"] == ["db1"]
            other = runtime.connect(env.client_url(), network=env.network)
            other.cursor().execute("INSERT INTO dead_tx_t (id) VALUES (2)")
            assert _select_all(env.replica_engines[0], env, "SELECT id FROM dead_tx_t") == [(2,)]
            other.close()
            owner.close()
        finally:
            env.close()

    def test_background_heartbeat_thread_lifecycle(self, cluster_env):
        env = cluster_env
        controller = Controller(
            ControllerConfig(
                controller_id="hb-ctrl",
                virtual_database="vdb",
                heartbeat_interval=0.01,
            ),
            env.network,
            "hb-ctrl:25322",
            backends=[
                Backend(
                    "db1",
                    lambda: legacy_driver.connect(
                        f"pydb://{env.replica_addresses[0]}/{env.database_name}",
                        network=env.network,
                    ),
                )
            ],
        )
        controller.start()
        try:
            assert chaos.wait_until(lambda: controller.failure_detector.checks > 0)
        finally:
            controller.stop()
        assert controller._heartbeat_thread is None
