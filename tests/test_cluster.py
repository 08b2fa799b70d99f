"""Tests for the Sequoia-like cluster middleware."""

import pytest

import chaos
from repro.cluster import Backend, is_write_statement
from repro.errors import DriverError
from repro.cluster.recovery import RecoveryLog
from repro.cluster.recovery.replication import PeerLink
from repro.cluster.scheduler import RequestScheduler, SchedulerError
from repro.cluster.wire import CLUSTER_PROTOCOL_VERSION, ClusterMessageType, make_group
from repro.cluster.driver import ClusterDriverRuntime
from repro.dbapi import OperationalError, ProgrammingError
from repro.dbapi import legacy_driver


class TestRecoveryLog:
    def test_append_and_entries_after(self):
        log = RecoveryLog()
        assert log.last_index == 0
        log.append("INSERT INTO t VALUES (1)")
        log.append("INSERT INTO t VALUES (2)", params={"x": 1})
        assert log.last_index == 2
        assert [entry.index for entry in log.entries_after(0)] == [1, 2]
        assert [entry.index for entry in log.entries_after(1)] == [2]
        assert log.entries_after(5) == []
        assert len(log) == 2


class TestStatementClassification:
    def test_reads_and_writes(self):
        assert not is_write_statement("SELECT * FROM t")
        assert not is_write_statement("  select 1")
        assert is_write_statement("INSERT INTO t VALUES (1)")
        assert is_write_statement("UPDATE t SET a = 1")
        assert is_write_statement("DELETE FROM t")
        assert is_write_statement("CREATE TABLE t (x INTEGER)")
        assert is_write_statement("BEGIN")
        assert not is_write_statement("")

    def test_complex_reads_no_longer_misclassified(self):
        # These used to be prefix-sniffed as writes, broadcast everywhere
        # and appended to the recovery log.
        assert not is_write_statement("WITH recent AS (SELECT id FROM t) SELECT * FROM recent")
        assert not is_write_statement("(SELECT 1)")
        assert not is_write_statement("EXPLAIN SELECT * FROM t")


class TestSchedulerAndBackends:
    def _make_backends(self, cluster_env, controller_index=0):
        return cluster_env.controllers[controller_index].backends()

    def test_writes_replicated_reads_balanced(self, cluster_env):
        controller = cluster_env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE sched_t (id INTEGER PRIMARY KEY)")
        scheduler.execute("INSERT INTO sched_t (id) VALUES (1)")
        for engine in cluster_env.replica_engines:
            count = engine.open_session(cluster_env.database_name).execute(
                "SELECT COUNT(*) FROM sched_t"
            ).scalar()
            assert count == 1
        # Reads spread across backends: both report statements after a few reads.
        for _ in range(4):
            scheduler.execute("SELECT COUNT(*) FROM sched_t")
        executed = [backend.statements_executed for backend in controller.backends()]
        assert all(count > 0 for count in executed)

    def test_disable_enable_resync(self, cluster_env):
        controller = cluster_env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE resync_t (id INTEGER PRIMARY KEY)")
        controller.disable_backend("db1")
        scheduler.execute("INSERT INTO resync_t (id) VALUES (1)")
        scheduler.execute("INSERT INTO resync_t (id) VALUES (2)")
        behind = cluster_env.replica_engines[0].open_session(cluster_env.database_name).execute(
            "SELECT COUNT(*) FROM resync_t"
        ).scalar()
        assert behind == 0
        replayed = controller.enable_backend("db1")
        assert replayed == 2
        caught_up = cluster_env.replica_engines[0].open_session(cluster_env.database_name).execute(
            "SELECT COUNT(*) FROM resync_t"
        ).scalar()
        assert caught_up == 2

    def test_no_enabled_backend(self, cluster_env):
        controller = cluster_env.controllers[0]
        for backend in controller.backends():
            backend.disable(0)
        with pytest.raises(SchedulerError):
            controller.scheduler.execute("SELECT 1 FROM nothing")

    def test_backend_failure_marks_failed_but_statement_succeeds(self, cluster_env):
        controller = cluster_env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE failover_t (id INTEGER PRIMARY KEY)")
        # Kill one replica's database server endpoint: the write fails there
        # but succeeds on the other replica.
        cluster_env.network.kill_endpoint(cluster_env.replica_addresses[0])
        controller.backend("db1").close_connection()
        scheduler.execute("INSERT INTO failover_t (id) VALUES (1)")
        states = {backend.name: backend.state.value for backend in controller.backends()}
        assert states["db1"] == "failed"
        assert states["db2"] == "enabled"
        cluster_env.network.revive_endpoint(cluster_env.replica_addresses[0])

    def test_replace_connection_factory(self, cluster_env):
        controller = cluster_env.controllers[0]
        backend = controller.backend("db1")
        address = cluster_env.replica_addresses[0]

        def new_factory():
            return legacy_driver.connect(
                f"pydb://{address}/{cluster_env.database_name}", network=cluster_env.network
            )

        backend.replace_connection_factory(new_factory)
        columns, rows, _ = backend.execute("SELECT 1")
        assert rows == [(1,)]


class TestClusterDriver:
    def test_connect_execute_and_failover(self, cluster_env):
        driver = ClusterDriverRuntime(name="sequoia-test")
        connection = driver.connect(cluster_env.client_url(), network=cluster_env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE drv_t (id INTEGER PRIMARY KEY)")
        cursor.execute("INSERT INTO drv_t (id) VALUES (1)")
        cursor.execute("SELECT COUNT(*) FROM drv_t")
        assert cursor.fetchone() == (1,)
        # Kill the controller currently serving this connection.
        current = connection.controller_id
        for controller in cluster_env.controllers:
            if controller.config.controller_id == current:
                controller.stop()
                cluster_env.network.kill_endpoint(controller.address)
        cursor.execute("SELECT COUNT(*) FROM drv_t")
        assert cursor.fetchone() == (1,)
        assert connection.failovers == 1
        assert connection.controller_id != current
        connection.close()

    def test_unknown_virtual_database(self, cluster_env):
        driver = ClusterDriverRuntime()
        hosts = ",".join(controller.address for controller in cluster_env.controllers)
        with pytest.raises(OperationalError):
            driver.connect(f"sequoia://{hosts}/wrongvdb", network=cluster_env.network)

    def test_old_driver_protocol_rejected(self, cluster_env):
        ancient = ClusterDriverRuntime(protocol_version=0)
        with pytest.raises(OperationalError):
            ancient.connect(cluster_env.client_url(), network=cluster_env.network)

    def test_newer_driver_downgrades(self, cluster_env):
        newer = ClusterDriverRuntime(protocol_version=CLUSTER_PROTOCOL_VERSION + 5)
        connection = newer.connect(cluster_env.client_url(), network=cluster_env.network)
        cursor = connection.cursor()
        cursor.execute("SELECT 1")
        assert cursor.fetchone() == (1,)
        connection.close()

    def test_transaction_routed_to_all_backends(self, cluster_env):
        driver = ClusterDriverRuntime()
        connection = driver.connect(cluster_env.client_url(), network=cluster_env.network)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE tx_t (id INTEGER PRIMARY KEY)")
        connection.begin()
        cursor.execute("INSERT INTO tx_t (id) VALUES (1)")
        connection.commit()
        for engine in cluster_env.replica_engines:
            assert engine.open_session(cluster_env.database_name).execute(
                "SELECT COUNT(*) FROM tx_t"
            ).scalar() == 1
        connection.close()

    def test_sql_error_surfaces_as_programming_error(self, cluster_env):
        driver = ClusterDriverRuntime()
        connection = driver.connect(cluster_env.client_url(), network=cluster_env.network)
        cursor = connection.cursor()
        with pytest.raises(ProgrammingError):
            cursor.execute("SELECT * FROM does_not_exist")
        connection.close()


class TestControllerSessions:
    def test_session_contexts_and_stats(self, cluster_env):
        controller = cluster_env.controllers[0]
        driver = ClusterDriverRuntime()
        connection = driver.connect(
            f"sequoia://{controller.address}/vdb", network=cluster_env.network
        )
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE sess_t (id INTEGER PRIMARY KEY)")
        stats = controller.stats()
        assert stats["controller_id"] == controller.config.controller_id
        assert stats["active_sessions"] == 1
        assert stats["statements_served"] >= 1
        assert stats["scheduler"]["read_policy"] == "round_robin"
        assert stats["scheduler"]["query_cache"] is None
        assert {b["name"] for b in stats["scheduler"]["backends"]} == {"db1", "db2"}
        connection.begin()
        cursor.execute("INSERT INTO sess_t (id) VALUES (1)")
        assert list(controller._sessions) == [connection.session_id]
        assert controller.scheduler.in_transaction(connection.session_id)
        connection.commit()
        assert not controller.scheduler.in_transaction(connection.session_id)
        connection.close()

    def test_disconnect_mid_transaction_rolls_back(self, cluster_env):
        controller = cluster_env.controllers[0]
        driver = ClusterDriverRuntime()
        url = f"sequoia://{controller.address}/vdb"
        setup = driver.connect(url, network=cluster_env.network)
        setup.cursor().execute("CREATE TABLE dc_t (id INTEGER PRIMARY KEY)")
        vanishing = driver.connect(url, network=cluster_env.network)
        vanishing.begin()
        vanishing.cursor().execute("INSERT INTO dc_t (id) VALUES (1)")
        vanishing.close()
        # The controller rolls the abandoned transaction back on its own
        # session thread; wait for that cleanup to land. Afterwards the
        # row is gone, the scheduler's transaction accounting is released,
        # and a new session can open a transaction of its own.
        assert chaos.wait_until(
            lambda: controller.scheduler.open_transactions == 0
        ), "abandoned transaction was never rolled back"
        cursor = setup.cursor()
        cursor.execute("SELECT COUNT(*) FROM dc_t")
        assert cursor.fetchone() == (0,)
        setup.begin()
        cursor.execute("INSERT INTO dc_t (id) VALUES (2)")
        setup.commit()
        cursor.execute("SELECT COUNT(*) FROM dc_t")
        assert cursor.fetchone() == (1,)
        setup.close()

    def test_enable_backend_refused_while_transaction_open(self, cluster_env):
        controller = cluster_env.controllers[0]
        driver = ClusterDriverRuntime()
        connection = driver.connect(
            f"sequoia://{controller.address}/vdb", network=cluster_env.network
        )
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE eb_t (id INTEGER PRIMARY KEY)")
        controller.disable_backend("db1")
        connection.begin()
        cursor.execute("INSERT INTO eb_t (id) VALUES (1)")
        # Joining mid-transaction would commit the in-flight write on the
        # newcomer where a ROLLBACK could never undo it.
        with pytest.raises(DriverError):
            controller.enable_backend("db1")
        connection.rollback()
        assert controller.enable_backend("db1") == 0
        assert controller.backend("db1").enabled
        connection.close()

    def test_read_only_cte_not_logged_for_resync(self, cluster_env):
        # The seed scheduler prefix-sniffed WITH/(SELECT/EXPLAIN as writes:
        # they were broadcast to every backend and appended to the recovery
        # log, so they got replayed (and failed again) during resync. They
        # are reads now: routed to one backend and never logged — even
        # though the SQL engine itself cannot execute them yet.
        controller = cluster_env.controllers[0]
        scheduler = controller.scheduler
        scheduler.execute("CREATE TABLE cte_t (id INTEGER PRIMARY KEY)")
        scheduler.execute("INSERT INTO cte_t (id) VALUES (1)")
        log_before = controller.recovery_log.last_index
        for sql in (
            "WITH c AS (SELECT id FROM cte_t) SELECT COUNT(*) FROM c",
            "(SELECT COUNT(*) FROM cte_t)",
            "EXPLAIN SELECT * FROM cte_t",
        ):
            with pytest.raises(DriverError):
                scheduler.execute(sql)
        assert controller.recovery_log.last_index == log_before
        # And a disabled backend resyncs cleanly, replaying only real writes.
        controller.disable_backend("db1")
        scheduler.execute("INSERT INTO cte_t (id) VALUES (2)")
        assert controller.enable_backend("db1") == 1


class TestControllerGroupReplication:
    def test_driver_install_replicated_to_peers(self, cluster_env):
        from repro.dbapi.driver_factory import build_sequoia_driver

        package = build_sequoia_driver("sequoia-9.9", driver_version=(9, 9, 0))
        cluster_env.controllers[0].install_driver_cluster_wide(
            package, database="vdb", lease_time_ms=1_000
        )
        for controller in cluster_env.controllers:
            names = [pkg.name for _id, pkg in controller.drivolution.registry.list_drivers()]
            assert "sequoia-9.9" in names

    def test_cluster_wide_install_writes_the_admins_permission_row(self, cluster_env):
        """On the installing controller and on the peer that gets the
        install by GROUP, the row is the one DrivolutionAdmin writes."""
        import dataclasses

        from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding
        from repro.core.constants import ExpirationPolicy, RenewPolicy
        from repro.dbapi.driver_factory import build_sequoia_driver

        package = build_sequoia_driver("sequoia-9.9", driver_version=(9, 9, 0))
        settings = dict(
            database="vdb",
            lease_time_ms=1234,
            renew_policy=RenewPolicy.RENEW,
            expiration_policy=ExpirationPolicy.IMMEDIATE,
        )
        clock = cluster_env.clock
        reference = DrivolutionServer(StandaloneServerBinding(clock=clock), clock=clock)
        DrivolutionAdmin([reference]).install_driver(package, **settings)
        cluster_env.controllers[0].install_driver_cluster_wide(package, **settings)

        def written(server):
            ((driver_id, _),) = server.registry.find_drivers(package.location())
            (permission,) = [p for p in server.registry.list_permissions() if p.driver_id == driver_id]
            return dataclasses.replace(permission, driver_id=0, permission_id=None)

        expected = written(reference)
        assert (expected.lease_time_in_ms, expected.renew_policy, expected.expiration_policy) == (
            1234,
            RenewPolicy.RENEW,
            ExpirationPolicy.IMMEDIATE,
        )
        for controller in cluster_env.controllers:
            assert written(controller.drivolution) == expected, controller.config.controller_id

    def test_cluster_wide_backend_disable_enable(self, cluster_env):
        primary = cluster_env.controllers[0]
        primary.scheduler.execute("CREATE TABLE cw_t (id INTEGER PRIMARY KEY)")
        primary.disable_backend_cluster_wide("db1")
        for controller in cluster_env.controllers:
            assert not controller.backend("db1").enabled
        primary.enable_backend_cluster_wide("db1")
        for controller in cluster_env.controllers:
            assert controller.backend("db1").enabled

    def test_cluster_wide_enable_surfaces_peer_refusal(self, cluster_env):
        primary, peer = cluster_env.controllers
        primary.scheduler.execute("CREATE TABLE cwr_t (id INTEGER PRIMARY KEY)")
        primary.disable_backend_cluster_wide("db1")
        # The peer has a transaction open: its open-transaction gate
        # refuses the enable, and the primary must not report success.
        peer.scheduler.execute("BEGIN")
        with pytest.raises(DriverError, match="refused by peers"):
            primary.enable_backend_cluster_wide("db1")
        assert primary.backend("db1").enabled
        assert not peer.backend("db1").enabled
        peer.scheduler.execute("ROLLBACK")
        primary.enable_backend_cluster_wide("db1")
        for controller in cluster_env.controllers:
            assert controller.backend("db1").enabled

    def test_malformed_group_frame_is_refused_and_the_channel_survives(self, cluster_env):
        # A frame that does not decode must be answered, not raised on:
        # a dead handler thread reads as "unreachable" to the sender, and
        # an unreachable peer is skipped — the operation reports success.
        c1, c2 = cluster_env.controllers
        link = PeerLink(c2.address, cluster_env.network, c1.address)
        try:
            for payload in ({}, {"backend": 5}, {"backend": None}, "db1", 7, ["db1"]):
                for operation in ("disable_backend", "enable_backend"):
                    reply = link.request(make_group(operation, payload), timeout=5.0)
                    assert reply["type"] == ClusterMessageType.ERROR, (operation, payload)
                    assert reply["code"] == "bad_group_operation", (operation, payload)
            reply = link.request(
                make_group("install_driver", {"package": "x", "lease_time_ms": "soon"}),
                timeout=5.0,
            )
            assert reply["code"] == "bad_group_operation"
            assert c2.backend("db1").enabled
            # Same channel, well-formed frame: still served.
            reply = link.request(
                make_group("disable_backend", {"backend": "db1"}), timeout=5.0
            )
            assert reply["type"] == "seq_group_ack"
            assert not c2.backend("db1").enabled
        finally:
            link.close()

    def test_partition_between_controllers_cuts_group_operations(self, cluster_env):
        c1, c2 = cluster_env.controllers
        with chaos.partitioned_replication_link(c1, c2.address):
            c1.disable_backend_cluster_wide("db1")
            assert not c1.backend("db1").enabled
            assert c2.backend("db1").enabled  # unreachable peers are skipped
        # Healed: the next cluster-wide call reaches it.
        c1.disable_backend_cluster_wide("db1")
        assert not c2.backend("db1").enabled
        c1.enable_backend_cluster_wide("db1")
        for controller in cluster_env.controllers:
            assert controller.backend("db1").enabled
