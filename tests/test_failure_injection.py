"""Failure injection and concurrency scenarios across the full stack."""

import threading

import pytest

import chaos
from repro.core import BootloaderConfig
from repro.core.bootloader import BootloaderError
from repro.dbapi.driver_factory import build_pydb_driver
from repro.experiments.environments import build_cluster, build_single_database


class TestDrivolutionServerFailures:
    def test_bootstrap_fails_cleanly_when_everything_is_down(self, single_db_env):
        env = single_db_env
        env.admin.install_driver(build_pydb_driver("d"), database=env.database_name)
        env.network.kill_endpoint(env.db_address)
        bootloader = env.new_bootloader(BootloaderConfig())
        with pytest.raises(BootloaderError):
            bootloader.connect(env.url)
        env.network.revive_endpoint(env.db_address)
        connection = bootloader.connect(env.url)
        assert not connection.closed
        connection.close()

    def test_failover_to_second_drivolution_server(self, single_db_env):
        from repro.core import DrivolutionAdmin, DrivolutionServer, StandaloneServerBinding

        env = single_db_env
        backup = DrivolutionServer(
            StandaloneServerBinding(clock=env.clock),
            network=env.network,
            address="drivolution-backup:8000",
            clock=env.clock,
            server_id="drivo-backup",
        ).start()
        DrivolutionAdmin([backup]).install_driver(
            build_pydb_driver("backup-driver"), database=env.database_name, lease_time_ms=1_000
        )
        # Primary (in-database) has no driver and the first configured server
        # is unreachable: the bootloader falls through the server list.
        bootloader = env.new_bootloader(
            BootloaderConfig(drivolution_servers=["drivolution-dead:8000", "drivolution-backup:8000"])
        )
        connection = bootloader.connect(env.url)
        assert bootloader.driver_info()["driver_name"] == "backup-driver"
        assert bootloader.current_lease.server_id == "drivo-backup"
        connection.close()
        backup.stop()

    def test_slow_network_still_bootstraps(self, single_db_env):
        env = single_db_env
        env.admin.install_driver(build_pydb_driver("d"), database=env.database_name)
        env.network.set_latency(0.005)
        bootloader = env.new_bootloader(BootloaderConfig())
        connection = bootloader.connect(env.url)
        assert not connection.closed
        connection.close()
        env.network.set_latency(0.0)


class TestConcurrentClients:
    def test_many_bootloaders_upgrade_concurrently(self, single_db_env):
        env = single_db_env
        record = env.admin.install_driver(
            build_pydb_driver("conc-v1", driver_version=(1, 0, 0)),
            database=env.database_name,
            lease_time_ms=1_000,
        )
        bootloaders = [env.new_bootloader(BootloaderConfig()) for _ in range(8)]
        for bootloader in bootloaders:
            bootloader.connect(env.url).close()
        env.admin.push_upgrade(
            build_pydb_driver("conc-v2", driver_version=(2, 0, 0)),
            old_record=record,
            database=env.database_name,
            lease_time_ms=1_000,
        )
        env.clock.advance(2.0)
        outcomes = [None] * len(bootloaders)

        def check(index):
            outcomes[index] = bootloaders[index].check_for_update()

        threads = [threading.Thread(target=check, args=(i,)) for i in range(len(bootloaders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert outcomes.count("upgraded") == len(bootloaders)
        assert {b.driver_info()["driver_name"] for b in bootloaders} == {"conc-v2"}
        # Every client got its own lease; the server logged them all.
        new_driver_id = list(
            env.drivolution.registry.query_permissions(env.database_name, None, None)
        )[0].driver_id
        assert len(env.drivolution.registry.active_leases(new_driver_id)) == len(bootloaders)

    @pytest.mark.parametrize(
        "old_protocol, new_protocol",
        [(1, 1), (3, 3), (1, 3)],
        ids=["private-links", "shared-links", "private-to-shared"],
    )
    def test_concurrent_traffic_during_upgrade_on_cluster(
        self, cluster_env, old_protocol, new_protocol
    ):
        """Traffic keeps flowing while the cluster driver is upgraded —
        on either kind of link, and across an upgrade that changes the
        kind under an application that does not change at all."""
        from repro.core import Bootloader
        from repro.dbapi.driver_factory import build_sequoia_driver
        from repro.workloads import ClientApplication, WorkloadSpec

        env = cluster_env
        env.controllers[0].install_driver_cluster_wide(
            build_sequoia_driver(
                "seq-v1", driver_version=(1, 0, 0), protocol_version=old_protocol
            ),
            database="vdb",
            lease_time_ms=1_000,
        )
        bootloaders = [
            Bootloader(BootloaderConfig(api_name="SEQUOIA"), network=env.network, clock=env.clock)
            for _ in range(3)
        ]
        apps = [
            ClientApplication(
                f"conc{i}", b.connect, env.client_url(),
                spec=WorkloadSpec(table="conc_events"), clock=env.clock,
            )
            for i, b in enumerate(bootloaders)
        ]
        apps[0].ensure_schema()
        stop = threading.Event()
        # The application records a ReproError as a failed request and
        # carries on; anything else kills its thread, which a failure
        # count of zero would never show.
        crashes = []

        def traffic(app):
            try:
                while not stop.is_set():
                    app.run_requests(1)
            except Exception as exc:
                crashes.append(exc)

        threads = [threading.Thread(target=traffic, args=(app,)) for app in apps]
        for thread in threads:
            thread.start()
        env.controllers[1].install_driver_cluster_wide(
            build_sequoia_driver(
                "seq-v2", driver_version=(2, 0, 0), protocol_version=new_protocol
            ),
            database="vdb",
            lease_time_ms=1_000,
        )
        # A client that bootstrapped concurrently with the install may have
        # been granted a fresh lease for the old driver just before the new
        # one landed; it converges at its next lease expiry. Keep expiring
        # leases until every client has upgraded (bounded).
        for _ in range(5):
            env.clock.advance(2.0)
            for bootloader in bootloaders:
                bootloader.check_for_update()
            if {b.driver_info()["driver_name"] for b in bootloaders} == {"seq-v2"}:
                break
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert crashes == []
        assert {b.driver_info()["driver_name"] for b in bootloaders} == {"seq-v2"}
        for app in apps:
            app.run_requests(1)
        total_failed = sum(app.metrics.summary().failed for app in apps)
        assert total_failed == 0
        live = [conn for b in bootloaders for conn in b.active_connections()]
        assert len(live) == len(apps)
        assert all(conn.inner.multiplexed is (new_protocol >= 3) for conn in live)
        # Every connection the upgrade closed gave its session back.
        assert chaos.wait_until(
            lambda: sum(c.stats()["active_sessions"] for c in env.controllers) == len(live)
        )
        for app in apps:
            app.close()
